// Causal span tracing (src/tracing): DAG well-formedness across the paper's
// applications and protocol families, exact critical-path attribution
// (categories partition each root's wait), a hand-computed attribution
// fixture, a differential check of attribution against the original
// quadratic implementation, JSON round-tripping, the checker's exact
// rejection messages, and the retransmit regression — a dropped then
// retransmitted page request must stay one connected fault chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/apps/app.h"
#include "src/common/rng.h"
#include "src/metrics/json.h"
#include "src/metrics/json_writer.h"
#include "src/svm/system.h"
#include "src/tracing/critpath.h"
#include "src/tracing/span.h"
#include "src/tracing/span_check.h"
#include "tests/test_util.h"

namespace hlrc {
namespace {

// Categories must sum exactly to each root's duration — attribution is a
// partition of the root's window, not a sample (simulated time is integral,
// so the equality is exact, no rounding slop).
void ExpectExactPartition(const CritPathSummary& sum, const std::string& where) {
  SimTime roots_wait = 0;
  for (const RootAttribution& r : sum.roots) {
    SimTime cats = 0;
    for (size_t c = 0; c < kCritCatCount; ++c) {
      cats += r.by_cat[c];
    }
    ASSERT_EQ(cats, r.t1 - r.t0)
        << where << ": root span " << r.id << " (" << SpanKindName(r.kind)
        << ") categories do not partition its wait";
    roots_wait += r.t1 - r.t0;
  }
  EXPECT_EQ(roots_wait, sum.total_wait) << where;
  SimTime grand = 0;
  for (size_t c = 0; c < kCritCatCount; ++c) {
    grand += sum.total[c];
  }
  EXPECT_EQ(grand, sum.total_wait) << where;
}

// One tiny run of every paper app under every paper protocol, recorded once
// per process and shared by the tests below.
struct PaperSpans {
  std::string where;
  bool verified = false;
  std::string why;
  std::vector<Span> spans;
  int64_t dropped = 0;
};

const std::vector<PaperSpans>& PaperSpanSets() {
  static const std::vector<PaperSpans> sets = [] {
    std::vector<PaperSpans> out;
    for (const std::string& app_name : AppNames()) {
      for (ProtocolKind kind : testing::PaperProtocols()) {
        PaperSpans p;
        p.where = app_name + "/" + ProtocolName(kind);
        std::unique_ptr<App> app = MakeApp(app_name, AppScale::kTiny);
        SimConfig cfg;
        cfg.nodes = 8;
        cfg.protocol.kind = kind;
        System sys(cfg);
        SpanTracer* spans = sys.EnableSpans(1 << 20);
        app->Setup(sys);
        sys.Run(app->Program());
        p.verified = app->Verify(sys, &p.why);
        p.spans = spans->spans();
        p.dropped = spans->dropped();
        out.push_back(std::move(p));
      }
    }
    return out;
  }();
  return sets;
}

TEST(SpanDag, WellFormedAcrossPaperAppsAndProtocols) {
  for (const PaperSpans& run : PaperSpanSets()) {
    const std::string& where = run.where;
    ASSERT_TRUE(run.verified) << where << ": " << run.why;

    ASSERT_FALSE(run.spans.empty()) << where;
    EXPECT_EQ(run.dropped, 0) << where << ": raise the test capacity";
    std::string err;
    EXPECT_TRUE(CheckSpanDag(run.spans, &err)) << where << ": " << err;

    // Every root carries a vector-clock snapshot of its node.
    bool saw_root = false;
    for (const Span& s : run.spans) {
      if (RootKindIndex(s.kind) >= 0) {
        saw_root = true;
        EXPECT_EQ(s.vt.size(), 8u) << where << ": root span " << s.id;
        break;
      }
    }
    EXPECT_TRUE(saw_root) << where;

    ExpectExactPartition(AttributeCriticalPaths(run.spans), where);
  }
}

// Hand-computed fixture: a remote page fault whose request queues, rides the
// wire (with one retransmit stretch inside), and is served at the home.
//
//   fault #0 (node 0, page 7)   [0 ......................... 100]
//     queue #1                     [10 .. 20]
//     wire #2                             [20 ............ 50]
//       retransmit #3                        [30 .. 40]
//     service #4 (node 1)                                 [50 ... 80]
//
// Deepest-active wins each segment; uncovered stretches are bookkeeping:
//   [0,10) bookkeeping  [10,20) queueing  [20,30) wire  [30,40) retransmit
//   [40,50) wire        [50,80) home service             [80,100) bookkeeping
TEST(CritPath, HandComputedFaultAttribution) {
  std::vector<Span> spans;
  auto add = [&spans](SpanId id, SpanKind kind, NodeId node, SimTime t0, SimTime t1,
                      std::vector<SpanId> links, int64_t a0 = 0) {
    Span s;
    s.id = id;
    s.kind = kind;
    s.node = node;
    s.t0 = t0;
    s.t1 = t1;
    s.links = std::move(links);
    s.a0 = a0;
    spans.push_back(std::move(s));
  };
  add(0, SpanKind::kFault, 0, 0, 100, {}, /*a0=*/7);
  add(1, SpanKind::kQueue, 0, 10, 20, {0});
  add(2, SpanKind::kWire, 0, 20, 50, {1});
  add(3, SpanKind::kRetransmit, 0, 30, 40, {2});
  add(4, SpanKind::kService, 1, 50, 80, {2});

  std::string err;
  ASSERT_TRUE(CheckSpanDag(spans, &err)) << err;

  const CritPathSummary sum = AttributeCriticalPaths(spans);
  ASSERT_EQ(sum.roots.size(), 1u);
  const RootAttribution& r = sum.roots[0];
  EXPECT_EQ(r.id, 0);
  EXPECT_EQ(r.by_cat[static_cast<size_t>(CritCat::kBookkeeping)], 30);
  EXPECT_EQ(r.by_cat[static_cast<size_t>(CritCat::kQueueing)], 10);
  EXPECT_EQ(r.by_cat[static_cast<size_t>(CritCat::kWire)], 20);
  EXPECT_EQ(r.by_cat[static_cast<size_t>(CritCat::kRetransmit)], 10);
  EXPECT_EQ(r.by_cat[static_cast<size_t>(CritCat::kHomeService)], 30);
  EXPECT_EQ(r.by_cat[static_cast<size_t>(CritCat::kDiffCreate)], 0);
  EXPECT_EQ(r.by_cat[static_cast<size_t>(CritCat::kDiffApply)], 0);
  EXPECT_EQ(r.by_cat[static_cast<size_t>(CritCat::kCompute)], 0);
  ExpectExactPartition(sum, "fixture");

  // Page rollup: the fault's full wait lands on page 7.
  ASSERT_EQ(sum.page_wait.count(7), 1u);
  EXPECT_EQ(sum.page_wait.at(7), 100);
  EXPECT_EQ(sum.by_page.at(7)[static_cast<size_t>(CritCat::kHomeService)], 30);
}

// A second root's subtree must attribute to itself, never leak into a root
// it is causally linked from; critical sections count as compute.
TEST(CritPath, RootsAttributeTheirOwnSubtrees) {
  std::vector<Span> spans;
  auto add = [&spans](SpanId id, SpanKind kind, NodeId node, SimTime t0, SimTime t1,
                      std::vector<SpanId> links) {
    Span s;
    s.id = id;
    s.kind = kind;
    s.node = node;
    s.t0 = t0;
    s.t1 = t1;
    s.links = std::move(links);
    spans.push_back(std::move(s));
  };
  add(0, SpanKind::kFault, 0, 0, 100, {});
  add(1, SpanKind::kWire, 0, 20, 50, {0});
  // A lock acquire causally downstream of the fault: still its own root.
  add(2, SpanKind::kLock, 1, 100, 160, {1});
  add(3, SpanKind::kLockHold, 1, 110, 130, {2});

  const CritPathSummary sum = AttributeCriticalPaths(spans);
  ASSERT_EQ(sum.roots.size(), 2u);
  EXPECT_EQ(sum.by_kind[0][static_cast<size_t>(CritCat::kWire)], 30);
  EXPECT_EQ(sum.by_kind[0][static_cast<size_t>(CritCat::kBookkeeping)], 70);
  EXPECT_EQ(sum.by_kind[1][static_cast<size_t>(CritCat::kCompute)], 20);
  EXPECT_EQ(sum.by_kind[1][static_cast<size_t>(CritCat::kBookkeeping)], 40);
  ExpectExactPartition(sum, "two-root fixture");
}

// ---------------------------------------------------------------------------
// Differential check: AttributeCriticalPaths against the original
// implementation (a per-root full depth reset, hash-map index, per-span
// adjacency vectors, deque BFS), kept here verbatim as the reference.

CritPathSummary ReferenceAttributeCriticalPaths(const std::vector<Span>& spans) {
  CritPathSummary out;

  std::unordered_map<SpanId, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
  }
  std::vector<std::vector<size_t>> adj(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent != kNoSpan) {
      adj[index.at(s.parent)].push_back(i);
    }
    for (const SpanId l : s.links) {
      adj[index.at(l)].push_back(i);
    }
  }

  std::vector<int> depth(spans.size(), -1);
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
    std::fill(depth.begin(), depth.end(), -1);
    depth[r] = 0;
    std::deque<size_t> q{r};
    while (!q.empty()) {
      const size_t n = q.front();
      q.pop_front();
      for (const size_t c : adj[n]) {
        if (depth[c] >= 0 || RootKindIndex(spans[c].kind) >= 0) {
          continue;  // other roots (and their subtrees) attribute themselves
        }
        depth[c] = depth[n] + 1;
        q.push_back(c);
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
    std::sort(ra.steps.begin(), ra.steps.end(),
              [](const CritStep& a, const CritStep& b) {
                if (a.t0 != b.t0) return a.t0 < b.t0;
                if (a.depth != b.depth) return a.depth < b.depth;
                return a.id < b.id;
              });

    // Segment sweep: between consecutive boundaries the deepest active
    // descendant's category wins (ties: later start, then larger id); gaps
    // with no active descendant are protocol bookkeeping. Segments partition
    // [t0, t1], so categories sum exactly to the root's duration.
    std::vector<SimTime> cuts;
    cuts.reserve(2 * ra.steps.size() + 2);
    cuts.push_back(root.t0);
    cuts.push_back(root.t1);
    for (const CritStep& s : ra.steps) {
      cuts.push_back(s.t0);
      cuts.push_back(s.t1);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      const SimTime lo = cuts[i];
      const SimTime hi = cuts[i + 1];
      const CritStep* best = nullptr;
      for (const CritStep& s : ra.steps) {
        if (s.t0 > lo) {
          break;  // steps are t0-sorted; none further can cover lo
        }
        if (s.t1 < hi) {
          continue;
        }
        if (best == nullptr || s.depth > best->depth ||
            (s.depth == best->depth &&
             (s.t0 > best->t0 || (s.t0 == best->t0 && s.id > best->id)))) {
          best = &s;
        }
      }
      const CritCat cat =
          best != nullptr ? CategoryOf(best->kind) : CritCat::kBookkeeping;
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

void ExpectSameCatTimes(const CatTimes& a, const CatTimes& b, const std::string& where) {
  for (size_t c = 0; c < kCritCatCount; ++c) {
    ASSERT_EQ(a[c], b[c]) << where << " category " << CritCatName(static_cast<CritCat>(c));
  }
}

void ExpectSameSummary(const CritPathSummary& got, const CritPathSummary& want,
                       const std::string& where) {
  ASSERT_EQ(got.roots.size(), want.roots.size()) << where;
  for (size_t i = 0; i < got.roots.size(); ++i) {
    const RootAttribution& a = got.roots[i];
    const RootAttribution& b = want.roots[i];
    const std::string at = where + " root #" + std::to_string(i);
    ASSERT_EQ(a.id, b.id) << at;
    ASSERT_EQ(a.kind, b.kind) << at;
    ASSERT_EQ(a.node, b.node) << at;
    ASSERT_EQ(a.t0, b.t0) << at;
    ASSERT_EQ(a.t1, b.t1) << at;
    ASSERT_EQ(a.a0, b.a0) << at;
    ExpectSameCatTimes(a.by_cat, b.by_cat, at);
    ASSERT_EQ(a.steps.size(), b.steps.size()) << at;
    for (size_t k = 0; k < a.steps.size(); ++k) {
      const CritStep& x = a.steps[k];
      const CritStep& y = b.steps[k];
      const std::string st = at + " step #" + std::to_string(k);
      ASSERT_EQ(x.id, y.id) << st;
      ASSERT_EQ(x.kind, y.kind) << st;
      ASSERT_EQ(x.node, y.node) << st;
      ASSERT_EQ(x.t0, y.t0) << st;
      ASSERT_EQ(x.t1, y.t1) << st;
      ASSERT_EQ(x.depth, y.depth) << st;
    }
  }
  ExpectSameCatTimes(got.total, want.total, where + " total");
  for (int k = 0; k < 3; ++k) {
    ExpectSameCatTimes(got.by_kind[k], want.by_kind[k], where + " by_kind");
  }
  ASSERT_EQ(got.total_wait, want.total_wait) << where;
  ASSERT_EQ(got.by_page.size(), want.by_page.size()) << where;
  for (auto a = got.by_page.begin(), b = want.by_page.begin(); a != got.by_page.end(); ++a, ++b) {
    ASSERT_EQ(a->first, b->first) << where;
    ExpectSameCatTimes(a->second, b->second, where + " page " + std::to_string(a->first));
  }
  ASSERT_EQ(got.page_wait, want.page_wait) << where;
}

// A random well-formed span DAG. Spans are generated in causal order (edges
// only point from earlier to later spans, so the graph is acyclic and every
// interior span is reachable); then the vector may be shuffled and the ids
// spread out, so nothing relies on ids matching positions. Small time ranges
// force ties in t0 and depth; links reach across nodes and outside the
// linking root's window (so steps are clipped or vanish); several roots can
// share descendants; interval-close roots are DAG roots but not attributed.
std::vector<Span> RandomSpanDag(Rng& rng) {
  static const SpanKind kRoots[] = {SpanKind::kFault, SpanKind::kLock, SpanKind::kBarrier,
                                    SpanKind::kIntervalClose};
  const int n = static_cast<int>(rng.NextInt(1, 60));
  const int nodes = static_cast<int>(rng.NextInt(1, 4));
  std::vector<Span> spans;
  for (int i = 0; i < n; ++i) {
    Span s;
    s.id = i;
    s.node = static_cast<NodeId>(rng.NextInt(0, nodes - 1));
    s.a0 = rng.NextInt(0, 5);
    const bool root = i == 0 || rng.NextBool(0.2);
    if (root) {
      s.kind = kRoots[rng.NextInt(0, 3)];
      s.t0 = rng.NextInt(0, 80);
      s.t1 = s.t0 + rng.NextInt(0, 40);
    } else {
      s.kind = static_cast<SpanKind>(
          rng.NextInt(static_cast<int>(SpanKind::kQueue), static_cast<int>(SpanKind::kCount) - 1));
      if (rng.NextBool(0.6)) {
        // Contained in its parent.
        const Span& p = spans[static_cast<size_t>(rng.NextInt(0, i - 1))];
        s.parent = p.id;
        s.t0 = rng.NextInt(p.t0, p.t1);
        s.t1 = rng.NextInt(s.t0, p.t1);
      } else {
        s.t0 = rng.NextInt(0, 100);
        s.t1 = s.t0 + rng.NextInt(0, 30);
      }
    }
    // Links: at least one when an interior span has no parent; optional (and
    // possibly into a root) otherwise.
    const bool need_link = !root && s.parent == kNoSpan;
    const int links = i == 0 ? 0 : static_cast<int>(rng.NextInt(need_link ? 1 : 0, 3));
    for (int l = 0; l < links; ++l) {
      s.links.push_back(rng.NextInt(0, i - 1));  // repeats and parent-as-link allowed
    }
    spans.push_back(std::move(s));
  }
  // Spread the ids (gaps, not position-equal) and maybe shuffle positions.
  const SpanId stride = rng.NextInt(1, 3);
  const SpanId base = rng.NextInt(0, 2);
  for (Span& s : spans) {
    s.id = base + stride * s.id;
    if (s.parent != kNoSpan) {
      s.parent = base + stride * s.parent;
    }
    for (SpanId& l : s.links) {
      l = base + stride * l;
    }
  }
  if (rng.NextBool(0.3)) {
    for (size_t i = spans.size(); i > 1; --i) {
      std::swap(spans[i - 1], spans[static_cast<size_t>(rng.NextBounded(i))]);
    }
  }
  return spans;
}

TEST(CritPath, MatchesReferenceOnRandomDags) {
  Rng rng(13);
  for (int t = 0; t < 1000; ++t) {
    const std::vector<Span> spans = RandomSpanDag(rng);
    const std::string where = "random DAG #" + std::to_string(t);
    std::string err;
    ASSERT_TRUE(CheckSpanDag(spans, &err)) << where << ": " << err;
    ExpectSameSummary(AttributeCriticalPaths(spans), ReferenceAttributeCriticalPaths(spans),
                      where);
  }
}

TEST(CritPath, MatchesReferenceAcrossPaperAppsAndProtocols) {
  for (const PaperSpans& run : PaperSpanSets()) {
    ExpectSameSummary(AttributeCriticalPaths(run.spans),
                      ReferenceAttributeCriticalPaths(run.spans), run.where);
  }
}

// Regression (reliable delivery × tracing): a page request dropped by the
// fault injector and recovered by the ReliableChannel must still read as ONE
// connected fault chain — the retransmit stretch shows up as a kRetransmit
// span on the fault's critical path instead of severing the DAG.
TEST(SpanDag, RetransmittedPageRequestStaysConnected) {
  SimConfig cfg = testing::SmallConfig(ProtocolKind::kHlrc, 4);
  cfg.reliability.enabled = true;
  cfg.fault.seed = 7;
  cfg.fault.drop_prob = 0.4;
  cfg.fault.only_types = {MsgType::kPageRequest};
  System sys(cfg);
  SpanTracer* spans = sys.EnableSpans();
  const GlobalAddr addr = sys.space().AllocPageAligned(8 * 1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    for (int r = 0; r < 4; ++r) {
      co_await ctx.Lock(1);
      co_await ctx.Write(addr, 1024);
      *ctx.Ptr<int64_t>(addr) += 1;
      co_await ctx.Unlock(1);
      co_await ctx.Barrier(r);
      co_await ctx.Read(addr, 8);
    }
  });

  ASSERT_GT(sys.network().TotalStats().msgs_retransmitted, 0)
      << "fault plan produced no retransmissions; regression is vacuous";
  std::string err;
  EXPECT_TRUE(CheckSpanDag(spans->spans(), &err)) << err;

  int64_t retransmit_spans = 0;
  for (const Span& s : spans->spans()) {
    if (s.kind == SpanKind::kRetransmit) {
      ++retransmit_spans;
      ASSERT_FALSE(s.links.empty()) << "retransmit span " << s.id << " has no cause";
    }
  }
  EXPECT_GT(retransmit_spans, 0);

  // The retry wait is attributed — some blocking root pays for it.
  const CritPathSummary sum = AttributeCriticalPaths(spans->spans());
  EXPECT_GT(sum.total[static_cast<size_t>(CritCat::kRetransmit)], 0);
  ExpectExactPartition(sum, "retransmit run");
}

TEST(SpanJson, RoundTripsThroughRunSummarySection) {
  SimConfig cfg = testing::SmallConfig(ProtocolKind::kHlrc, 4);
  System sys(cfg);
  SpanTracer* spans = sys.EnableSpans();
  const GlobalAddr addr = sys.space().AllocPageAligned(8 * 1024);
  sys.Run([&](NodeContext& ctx) -> Task<void> {
    co_await ctx.Lock(1);
    co_await ctx.Write(addr, 512);
    *ctx.Ptr<int64_t>(addr) += 1;
    co_await ctx.Unlock(1);
    co_await ctx.Barrier(0);
  });
  ASSERT_FALSE(spans->spans().empty());

  JsonWriter w;
  w.BeginObject();
  WriteSpansJson(&w, *spans);
  w.EndObject();

  JsonValue doc;
  std::string err;
  ASSERT_TRUE(ParseJson(w.str(), &doc, &err)) << err;
  std::vector<Span> parsed;
  int64_t dropped = -1;
  ASSERT_TRUE(ParseSpans(doc, &parsed, &dropped, &err)) << err;
  EXPECT_EQ(dropped, spans->dropped());
  ASSERT_EQ(parsed.size(), spans->spans().size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    const Span& a = spans->spans()[i];
    const Span& b = parsed[i];
    ASSERT_EQ(a.id, b.id);
    EXPECT_EQ(a.kind, b.kind) << "span " << a.id;
    EXPECT_EQ(a.node, b.node) << "span " << a.id;
    EXPECT_EQ(a.t0, b.t0) << "span " << a.id;
    EXPECT_EQ(a.t1, b.t1) << "span " << a.id;
    EXPECT_EQ(a.parent, b.parent) << "span " << a.id;
    EXPECT_EQ(a.links, b.links) << "span " << a.id;
    EXPECT_EQ(a.a0, b.a0) << "span " << a.id;
    EXPECT_EQ(a.a1, b.a1) << "span " << a.id;
    EXPECT_EQ(a.vt, b.vt) << "span " << a.id;
  }
  EXPECT_TRUE(CheckSpanDag(parsed, &err)) << err;
}

TEST(SpanJson, MissingSectionExplainsHowToGetOne) {
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(ParseJson("{\"schema\":\"x\"}", &doc, &err)) << err;
  std::vector<Span> parsed;
  EXPECT_FALSE(ParseSpans(doc, &parsed, nullptr, &err));
  EXPECT_NE(err.find("--metrics-out"), std::string::npos) << err;
}

TEST(SpanCheck, RejectsMalformedDags) {
  auto make = [](SpanKind kind, SimTime t0, SimTime t1, SpanId id) {
    Span s;
    s.id = id;
    s.kind = kind;
    s.node = 0;
    s.t0 = t0;
    s.t1 = t1;
    return s;
  };
  // Each case pins the exact first violation reported.
  auto expect_rejected = [](const std::vector<Span>& spans, const std::string& want) {
    std::string err;
    EXPECT_FALSE(CheckSpanDag(spans, &err)) << want;
    EXPECT_EQ(err, want);
  };

  // Negative id.
  expect_rejected({make(SpanKind::kFault, 0, 10, -4)}, "negative span id -4");
  // Duplicate id: the later span is the one reported.
  expect_rejected({make(SpanKind::kFault, 0, 10, 3), make(SpanKind::kLock, 0, 10, 3)},
                  "duplicate span id 3");
  // Inverted interval.
  expect_rejected({make(SpanKind::kFault, 10, 0, 0)}, "fault span 0 (node 0) has t0 > t1");
  // Invalid kind.
  expect_rejected({make(SpanKind::kCount, 0, 10, 5)}, "span 5 has invalid kind");
  // Parent that does not exist.
  {
    std::vector<Span> spans = {make(SpanKind::kFault, 0, 10, 0),
                               make(SpanKind::kWire, 2, 5, 1)};
    spans[1].parent = 42;
    expect_rejected(spans, "wire span 1 (node 0) references missing parent 42");
  }
  // Parent interval does not contain the child.
  {
    std::vector<Span> spans = {make(SpanKind::kFault, 0, 10, 0),
                               make(SpanKind::kWire, 5, 20, 1)};
    spans[1].parent = 0;
    expect_rejected(spans,
                    "parent fault span 0 (node 0) interval [0,10] does not contain child "
                    "wire span 1 (node 0) [5,20]");
  }
  // Link to a nonexistent span.
  {
    std::vector<Span> spans = {make(SpanKind::kFault, 0, 10, 0)};
    spans[0].links.push_back(99);
    expect_rejected(spans, "fault span 0 (node 0) references missing link source 99");
  }
  // Edge checks run in span order: an earlier containment violation is
  // reported before a later dangling link.
  {
    std::vector<Span> spans = {make(SpanKind::kFault, 0, 10, 0),
                               make(SpanKind::kWire, 5, 20, 1),
                               make(SpanKind::kWire, 5, 6, 2)};
    spans[1].parent = 0;
    spans[2].links.push_back(77);
    expect_rejected(spans,
                    "parent fault span 0 (node 0) interval [0,10] does not contain child "
                    "wire span 1 (node 0) [5,20]");
  }
  // Interior span with no parent and no causal link.
  expect_rejected({make(SpanKind::kFault, 0, 10, 0), make(SpanKind::kWire, 2, 5, 1)},
                  "wire span 1 (node 0) is an orphan: interior kind with no parent and no "
                  "causal link");
  // Cycle reachable from a root: 0 -> 1 -> 2 -> 1.
  {
    std::vector<Span> spans = {make(SpanKind::kFault, 0, 10, 0),
                               make(SpanKind::kWire, 2, 5, 1),
                               make(SpanKind::kService, 3, 4, 2)};
    spans[1].links = {0, 2};
    spans[2].links = {1};
    expect_rejected(spans, "cycle through wire span 1 (node 0)");
  }
  // A cycle no root reaches: every span has an incoming edge, so nothing is
  // an orphan, but 1 and 2 are unreachable.
  {
    std::vector<Span> spans = {make(SpanKind::kFault, 0, 10, 0),
                               make(SpanKind::kWire, 2, 5, 1),
                               make(SpanKind::kService, 3, 4, 2)};
    spans[1].links = {2};
    spans[2].links = {1};
    expect_rejected(spans, "wire span 1 (node 0) is not reachable from any root");
  }
}

}  // namespace
}  // namespace hlrc
