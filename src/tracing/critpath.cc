#include "src/tracing/critpath.h"

#include <algorithm>
#include <iterator>
#include <tuple>

#include "src/tracing/span_check.h"

namespace hlrc {

const char* CritCatName(CritCat c) {
  static constexpr const char* kNames[] = {
      "wire", "queueing", "retransmit", "home service", "diff create", "diff apply",
      "protocol bookkeeping", "compute"};
  static_assert(std::size(kNames) == kCritCatCount);
  return c < CritCat::kCount ? kNames[static_cast<size_t>(c)] : "?";
}

CritCat CategoryOf(SpanKind k) {
  switch (k) {
    case SpanKind::kQueue:
    case SpanKind::kCoalesceHold:
      return CritCat::kQueueing;
    case SpanKind::kWire:
      return CritCat::kWire;
    case SpanKind::kRetransmit:
      return CritCat::kRetransmit;
    case SpanKind::kService:
    case SpanKind::kHomeWait:
      return CritCat::kHomeService;
    case SpanKind::kDiffCreate:
      return CritCat::kDiffCreate;
    case SpanKind::kDiffApply:
      return CritCat::kDiffApply;
    case SpanKind::kLockHold:
    case SpanKind::kBarrierGather:
      return CritCat::kCompute;
    default:
      return CritCat::kBookkeeping;
  }
}

int RootKindIndex(SpanKind k) {
  static_assert(static_cast<int>(SpanKind::kFault) == 0 &&
                static_cast<int>(SpanKind::kLock) == 1 && static_cast<int>(SpanKind::kBarrier) == 2);
  return k <= SpanKind::kBarrier ? static_cast<int>(k) : -1;
}

CritPathSummary AttributeCriticalPaths(const std::vector<Span>& spans) {
  CritPathSummary out;
  SpanGraph g;
  BuildSpanGraph(spans, &g, nullptr);

  // Per-root scratch reused across roots. `fifo` holds every span a root's
  // search visited, so resetting exactly those depths keeps each root's cost
  // to its own descendants.
  std::vector<int> depth(spans.size(), -1);
  std::vector<uint32_t> fifo;
  std::vector<SimTime> cuts;
  std::vector<const CritStep*> active;
  auto shallower = [](const CritStep* a, const CritStep* b) {
    return std::tie(a->depth, a->t0, a->id) < std::tie(b->depth, b->t0, b->id);
  };
  for (size_t r = 0; r < spans.size(); ++r) {
    const Span& root = spans[r];
    if (RootKindIndex(root.kind) < 0) {
      continue;
    }

    RootAttribution ra;
    ra.id = root.id;
    ra.kind = root.kind;
    ra.node = root.node;
    ra.t0 = root.t0;
    ra.t1 = root.t1;
    ra.a0 = root.a0;

    // BFS over causal descendants, clipping each to the root's window. Depth
    // is the first-visit hop count: deeper spans refine their ancestors'
    // attribution (a wire span inside a fault beats the fault itself).
    depth[r] = 0;
    fifo.assign(1, static_cast<uint32_t>(r));
    for (size_t head = 0; head < fifo.size(); ++head) {
      const uint32_t n = fifo[head];
      for (const uint32_t c : g.Successors(n)) {
        if (depth[c] >= 0 || RootKindIndex(spans[c].kind) >= 0) {
          continue;  // other roots (and their subtrees) attribute themselves
        }
        depth[c] = depth[n] + 1;
        fifo.push_back(c);
        const Span& s = spans[c];
        CritStep step;
        step.id = s.id;
        step.kind = s.kind;
        step.node = s.node;
        step.t0 = std::max(s.t0, root.t0);
        step.t1 = std::min(s.t1, root.t1);
        step.depth = depth[c];
        if (step.t0 < step.t1) {
          ra.steps.push_back(step);
        }
      }
    }
    for (const uint32_t n : fifo) {
      depth[n] = -1;
    }
    std::sort(ra.steps.begin(), ra.steps.end(),
              [](const CritStep& a, const CritStep& b) {
                if (a.t0 != b.t0) return a.t0 < b.t0;
                if (a.depth != b.depth) return a.depth < b.depth;
                return a.id < b.id;
              });

    // Segment sweep: between consecutive boundaries the deepest active
    // descendant's category wins (ties: later start, then larger id); gaps
    // with no active descendant are protocol bookkeeping. Segments partition
    // [t0, t1], so categories sum exactly to the root's duration. Steps join
    // a max-heap on (depth, t0, id) when the sweep reaches their start and
    // leave it lazily once they end, so a root costs O(k log k) in its steps.
    cuts.clear();
    cuts.push_back(root.t0);
    cuts.push_back(root.t1);
    for (const CritStep& s : ra.steps) {
      cuts.push_back(s.t0);
      cuts.push_back(s.t1);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    active.clear();
    size_t next = 0;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      const SimTime lo = cuts[i];
      const SimTime hi = cuts[i + 1];
      for (; next < ra.steps.size() && ra.steps[next].t0 <= lo; ++next) {
        active.push_back(&ra.steps[next]);
        std::push_heap(active.begin(), active.end(), shallower);
      }
      while (!active.empty() && active.front()->t1 < hi) {
        std::pop_heap(active.begin(), active.end(), shallower);
        active.pop_back();
      }
      const CritCat cat =
          active.empty() ? CritCat::kBookkeeping : CategoryOf(active.front()->kind);
      ra.by_cat[static_cast<size_t>(cat)] += hi - lo;
    }

    const int ki = RootKindIndex(root.kind);
    for (size_t c = 0; c < kCritCatCount; ++c) {
      out.total[c] += ra.by_cat[c];
      out.by_kind[ki][c] += ra.by_cat[c];
    }
    out.total_wait += root.t1 - root.t0;
    if (root.kind == SpanKind::kFault) {
      CatTimes& page = out.by_page[root.a0];
      for (size_t c = 0; c < kCritCatCount; ++c) {
        page[c] += ra.by_cat[c];
      }
      out.page_wait[root.a0] += root.t1 - root.t0;
    }
    out.roots.push_back(std::move(ra));
  }
  return out;
}

}  // namespace hlrc
