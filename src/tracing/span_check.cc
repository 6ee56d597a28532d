#include "src/tracing/span_check.h"

#include <numeric>
#include <unordered_map>
#include <utility>

#include "src/common/check.h"

namespace hlrc {
namespace {

constexpr uint32_t kNone = UINT32_MAX;

std::string Describe(const Span& s) {
  return std::string(SpanKindName(s.kind)) + " span " + std::to_string(s.id) +
         " (node " + std::to_string(s.node) + ")";
}

}  // namespace

bool BuildSpanGraph(const std::vector<Span>& spans, SpanGraph* g, std::string* err) {
  HLRC_CHECK(spans.size() < kNone);
  auto fail = [err](std::string msg) {
    HLRC_CHECK_MSG(err != nullptr, "invalid span set: %s", msg.c_str());
    *err = std::move(msg);
    return false;
  };
  // Id -> position: the identity for a tracer's spans (ids are positions),
  // a hash map for any other set, where the earliest span wins a repeated id.
  bool dense = true;
  for (size_t i = 0; i < spans.size() && dense; ++i) {
    dense = spans[i].id == static_cast<SpanId>(i);
  }
  std::unordered_map<SpanId, uint32_t> by_id;
  for (size_t i = 0; !dense && i < spans.size(); ++i) {
    by_id.emplace(spans[i].id, static_cast<uint32_t>(i));
  }
  auto find = [&](SpanId id) -> uint32_t {
    if (dense) {
      return id >= 0 && static_cast<size_t>(id) < spans.size() ? static_cast<uint32_t>(id) : kNone;
    }
    const auto it = by_id.find(id);
    return it != by_id.end() ? it->second : kNone;
  };
  for (size_t i = 0; err != nullptr && i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.id < 0) {
      return fail("negative span id " + std::to_string(s.id));
    }
    if (find(s.id) != i) {
      return fail("duplicate span id " + std::to_string(s.id));
    }
    if (s.t0 > s.t1) {
      return fail(Describe(s) + " has t0 > t1");
    }
    if (s.kind == SpanKind::kCount) {
      return fail("span " + std::to_string(s.id) + " has invalid kind");
    }
  }

  // Edges in span order, parent first, then counting-sorted by source: the
  // sort is stable, so each span's successors keep that order.
  std::vector<std::pair<uint32_t, uint32_t>> edges;  // (source, target)
  edges.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent != kNoSpan) {
      const uint32_t p = find(s.parent);
      if (p == kNone) {
        return fail(Describe(s) + " references missing parent " + std::to_string(s.parent));
      }
      const Span& ps = spans[p];
      if (err != nullptr && (ps.t0 > s.t0 || s.t1 > ps.t1)) {
        return fail("parent " + Describe(ps) + " interval [" + std::to_string(ps.t0) + "," +
                    std::to_string(ps.t1) + "] does not contain child " + Describe(s) +
                    " [" + std::to_string(s.t0) + "," + std::to_string(s.t1) + "]");
      }
      edges.emplace_back(p, static_cast<uint32_t>(i));
    }
    for (const SpanId l : s.links) {
      const uint32_t src = find(l);
      if (src == kNone) {
        return fail(Describe(s) + " references missing link source " + std::to_string(l));
      }
      edges.emplace_back(src, static_cast<uint32_t>(i));
    }
  }
  g->offsets.assign(spans.size() + 1, 0);
  for (const auto& [src, dst] : edges) {
    ++g->offsets[src + 1];
  }
  std::partial_sum(g->offsets.begin(), g->offsets.end(), g->offsets.begin());
  g->targets.resize(edges.size());
  std::vector<uint32_t> fill(g->offsets.begin(), g->offsets.end() - 1);
  for (const auto& [src, dst] : edges) {
    g->targets[fill[src]++] = dst;
  }
  return true;
}

bool CheckSpanDag(const std::vector<Span>& spans, std::string* err) {
  SpanGraph g;
  if (!BuildSpanGraph(spans, &g, err)) {
    return false;
  }

  // Roots must be root kinds; every span must be reachable from a root; the
  // whole graph must be acyclic. One iterative DFS with tricolor marking
  // covers both: 0 = white, 1 = on stack, 2 = done. A frame is (node, position
  // of its next successor in g.targets).
  std::vector<uint8_t> color(spans.size(), 0);
  std::vector<std::pair<uint32_t, uint32_t>> frames;
  for (size_t r = 0; r < spans.size(); ++r) {
    if (spans[r].parent != kNoSpan || !spans[r].links.empty()) {
      continue;
    }
    if (!SpanKindIsRoot(spans[r].kind)) {
      *err = Describe(spans[r]) +
             " is an orphan: interior kind with no parent and no causal link";
      return false;
    }
    frames.emplace_back(static_cast<uint32_t>(r), g.offsets[r]);
    color[r] = 1;
    while (!frames.empty()) {
      auto& [n, next] = frames.back();
      if (next == g.offsets[n + 1]) {
        color[n] = 2;
        frames.pop_back();
        continue;
      }
      const uint32_t c = g.targets[next++];
      if (color[c] == 1) {
        *err = "cycle through " + Describe(spans[c]);
        return false;
      }
      if (color[c] == 0) {
        color[c] = 1;
        frames.emplace_back(c, g.offsets[c]);
      }
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (color[i] == 0) {
      *err = Describe(spans[i]) + " is not reachable from any root";
      return false;
    }
  }
  return true;
}

}  // namespace hlrc
