// Golden determinism test: the simulator must produce bit-identical summary
// statistics for a fixed configuration, run to run and commit to commit.
//
// A Table-2-style summary (virtual time plus the operation/traffic totals
// behind the paper's tables) is pinned for the four protocol families on 8
// nodes to tests/golden/summary_8nodes.txt. Any change to scheduling,
// protocol logic, cost model or network timing that alters behavior shows up
// as a diff of that file — intentional changes are re-pinned with
//
//   HLRC_REGEN_GOLDEN=1 ./test_golden_determinism
//
// which rewrites the golden in the source tree; review the diff like code.
// Only integer virtual-time and counter fields are pinned (no floating
// point), so the file is platform-independent.
//
// A second golden, tests/golden/summary_64nodes.txt, pins tiny-scale runs at
// 64 nodes with the per-page protocol paths the 8-node rows never reach:
// homeless GC forced at some barriers while write notices survive the
// others, home migration with parked page requests, and AURC. Each row also
// pins the run's coverage map (points, hits, fingerprint).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/app.h"
#include "src/check/explorer.h"
#include "src/fuzz/coverage.h"
#include "src/wkld/recorder.h"
#include "src/wkld/replay.h"
#include "src/wkld/trace_file.h"

namespace hlrc {
namespace {

constexpr int kNodes = 8;

std::string FormatSummary(const std::string& app_name, ProtocolKind kind, const RunReport& report,
                          int nodes = kNodes);

std::string SummaryLine(const std::string& app_name, ProtocolKind kind) {
  std::unique_ptr<App> app = MakeApp(app_name, AppScale::kTiny);
  SimConfig cfg;
  cfg.nodes = kNodes;
  cfg.protocol.kind = kind;
  const AppRunResult r = RunApp(*app, cfg);
  EXPECT_TRUE(r.verified) << app_name << " under " << ProtocolName(kind) << ": " << r.why;
  return FormatSummary(app_name, kind, r.report);
}

// Same run with the metrics layer enabled: recording must be pure
// observation, so the summary line has to be bit-identical to SummaryLine's.
std::string SummaryLineWithMetrics(const std::string& app_name, ProtocolKind kind) {
  std::unique_ptr<App> app = MakeApp(app_name, AppScale::kTiny);
  SimConfig cfg;
  cfg.nodes = kNodes;
  cfg.protocol.kind = kind;
  System sys(cfg);
  sys.EnableMetrics(Micros(100));
  app->Setup(sys);
  sys.Run(app->Program());
  std::string why;
  EXPECT_TRUE(app->Verify(sys, &why)) << app_name << ": " << why;
  return FormatSummary(app_name, kind, sys.report());
}

// Same run with metrics AND the span tracer enabled: span recording is pure
// observation (no simulated time, no messages, no allocation visible to the
// protocols), so the summary line has to be bit-identical to SummaryLine's.
std::string SummaryLineWithSpans(const std::string& app_name, ProtocolKind kind) {
  std::unique_ptr<App> app = MakeApp(app_name, AppScale::kTiny);
  SimConfig cfg;
  cfg.nodes = kNodes;
  cfg.protocol.kind = kind;
  System sys(cfg);
  sys.EnableMetrics(Micros(100));
  sys.EnableSpans();
  app->Setup(sys);
  sys.Run(app->Program());
  std::string why;
  EXPECT_TRUE(app->Verify(sys, &why)) << app_name << ": " << why;
  EXPECT_FALSE(sys.spans()->spans().empty()) << "tracer attached but recorded nothing";
  return FormatSummary(app_name, kind, sys.report());
}

std::string FormatSummary(const std::string& app_name, ProtocolKind kind,
                          const RunReport& report, int nodes) {
  const NodeReport t = report.Totals();
  std::ostringstream os;
  os << app_name << " " << ProtocolName(kind) << " nodes=" << nodes
     << " time=" << report.total_time << " msgs=" << t.traffic.msgs_sent
     << " update_bytes=" << t.traffic.update_bytes_sent
     << " proto_bytes=" << t.traffic.protocol_bytes_sent
     << " read_misses=" << t.proto.read_misses << " write_faults=" << t.proto.write_faults
     << " page_fetches=" << t.proto.page_fetches << " diffs=" << t.proto.diffs_created
     << " applied=" << t.proto.diffs_applied << " locks=" << t.proto.lock_acquires
     << " barriers=" << t.proto.barriers << " intervals=" << t.proto.intervals_closed
     << " invalidations=" << t.proto.pages_invalidated
     << " proto_mem=" << t.proto_mem_highwater;
  return os.str();
}

std::string BuildSummary() {
  const ProtocolKind kProtocols[] = {ProtocolKind::kLrc, ProtocolKind::kOlrc,
                                     ProtocolKind::kHlrc, ProtocolKind::kOhlrc};
  std::ostringstream os;
  for (const std::string& app : {std::string("sor"), std::string("lu")}) {
    for (ProtocolKind kind : kProtocols) {
      os << SummaryLine(app, kind) << "\n";
    }
  }
  return os.str();
}

std::string GoldenPath() { return std::string(HLRC_GOLDEN_DIR) + "/summary_8nodes.txt"; }

// One 64-node tiny-scale row. `label` names the non-default options. The
// row also pins the run's protocol-state coverage map (distinct points,
// emissions and fingerprint): at 64 nodes most write notices name pages the
// receiver does not map, a regime the 4-node fuzz sessions barely reach.
std::string Summary64Line(const std::string& app_name, ProtocolKind kind, const char* label,
                          const ProtocolOptions& opts) {
  constexpr int kNodes64 = 64;
  std::unique_ptr<App> app = MakeApp(app_name, AppScale::kTiny);
  SimConfig cfg;
  cfg.nodes = kNodes64;
  cfg.protocol = opts;
  cfg.protocol.kind = kind;
  System sys(cfg);
  fuzz::CoverageMap coverage(static_cast<uint64_t>(kind));
  sys.SetCoverageObserver(&coverage);
  app->Setup(sys);
  sys.Run(app->Program());
  std::string why;
  EXPECT_TRUE(app->Verify(sys, &why)) << app_name << " under " << ProtocolName(kind) << " "
                                      << label << ": " << why;
  return FormatSummary(app_name, kind, sys.report(), kNodes64) + " gc_runs=" +
         std::to_string(sys.report().Totals().proto.gc_runs) +
         " cov_points=" + std::to_string(coverage.points()) +
         " cov_hits=" + std::to_string(coverage.hits()) +
         " cov_fp=" + std::to_string(coverage.Fingerprint()) + " [" + label + "]";
}

std::string Build64Summary() {
  // Homeless GC at a low threshold: it runs at some barriers and not at the
  // others, so pending write notices and stored diffs outlive interval-log
  // truncation before a later GC collects them.
  ProtocolOptions gc;
  gc.gc_threshold_bytes = 30000;
  ProtocolOptions lazy_gc = gc;
  lazy_gc.diff_policy = DiffPolicy::kLazy;
  ProtocolOptions lu_gc;
  lu_gc.gc_threshold_bytes = 60000;
  // Home migration: water-nsq migrates under block homes; round-robin homes
  // with a short streak make SOR migrate and park requests across moves.
  ProtocolOptions migrate;
  migrate.migrate_homes = true;
  ProtocolOptions migrate_rr = migrate;
  migrate_rr.home_policy = HomePolicy::kRoundRobin;
  migrate_rr.migrate_threshold = 2;
  std::ostringstream os;
  os << Summary64Line("sor", ProtocolKind::kLrc, "gc=30000", gc) << "\n";
  os << Summary64Line("sor", ProtocolKind::kOlrc, "gc=30000", gc) << "\n";
  os << Summary64Line("sor", ProtocolKind::kLrc, "gc=30000 lazy", lazy_gc) << "\n";
  os << Summary64Line("lu", ProtocolKind::kLrc, "gc=60000", lu_gc) << "\n";
  os << Summary64Line("water-nsq", ProtocolKind::kHlrc, "migrate", migrate) << "\n";
  os << Summary64Line("sor", ProtocolKind::kOhlrc, "migrate rr t=2", migrate_rr) << "\n";
  os << Summary64Line("sor", ProtocolKind::kHlrc, "migrate rr t=2", migrate_rr) << "\n";
  os << Summary64Line("lu", ProtocolKind::kAurc, "default", ProtocolOptions{}) << "\n";
  os << Summary64Line("water-nsq", ProtocolKind::kAurc, "migrate", migrate) << "\n";
  return os.str();
}

// Compares `actual` with the checked-in golden `path`, or rewrites it under
// HLRC_REGEN_GOLDEN.
void CheckGolden(const std::string& path, const std::string& actual) {
  if (std::getenv("HLRC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run with HLRC_REGEN_GOLDEN=1 to create it";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "summary drifted from " << path
      << "; if the behavior change is intentional, regenerate with "
         "HLRC_REGEN_GOLDEN=1 and review the diff";
}

TEST(GoldenDeterminism, RepeatedRunsAreBitIdentical) {
  EXPECT_EQ(SummaryLine("sor", ProtocolKind::kHlrc), SummaryLine("sor", ProtocolKind::kHlrc));
}

TEST(GoldenDeterminism, MetricsCollectionDoesNotChangeTheRun) {
  for (ProtocolKind kind : {ProtocolKind::kLrc, ProtocolKind::kHlrc}) {
    EXPECT_EQ(SummaryLine("sor", kind), SummaryLineWithMetrics("sor", kind))
        << ProtocolName(kind);
  }
}

TEST(GoldenDeterminism, SpanTracingDoesNotChangeTheRun) {
  for (ProtocolKind kind : {ProtocolKind::kLrc, ProtocolKind::kHlrc, ProtocolKind::kErc,
                            ProtocolKind::kAurc}) {
    EXPECT_EQ(SummaryLine("sor", kind), SummaryLineWithSpans("sor", kind))
        << ProtocolName(kind);
  }
}

// The parallel seed-sweep driver (src/sim/sweep.h) must be an implementation
// detail: a schedule-exploration sweep aggregated across worker threads has to
// match the serial sweep exactly — same counters and the same failure
// callbacks in the same (seed) order.
TEST(GoldenDeterminism, ParallelSweepMatchesSerialSweep) {
  CheckConfig base;
  base.litmus = "barrier-propagation";
  base.protocol = ProtocolKind::kHlrc;
  // Inject a mutation so some seeds genuinely fail and exercise the
  // on_failure path on both sides (same setup as test_check's mutation
  // regression, which flags this bug within 200 seeds).
  base.mutation = TestMutation::kHlrcSkipDiffApply;
  constexpr uint64_t kFirstSeed = 1;
  constexpr int kSeeds = 200;

  auto run = [&](int jobs) {
    std::vector<std::pair<uint64_t, bool>> failures;
    const SweepResult r = Sweep(
        base, kFirstSeed, kSeeds,
        [&failures](uint64_t seed, const CheckResult& cr) {
          failures.emplace_back(seed, cr.ok);
        },
        jobs);
    return std::make_pair(r, failures);
  };

  const auto [serial, serial_failures] = run(1);
  const auto [parallel, parallel_failures] = run(4);
  EXPECT_EQ(serial.runs, parallel.runs);
  EXPECT_EQ(serial.failures, parallel.failures);
  EXPECT_EQ(serial.found_failure, parallel.found_failure);
  EXPECT_EQ(serial.first_failing_seed, parallel.first_failing_seed);
  EXPECT_EQ(serial.reads_checked, parallel.reads_checked);
  EXPECT_EQ(serial.writes_recorded, parallel.writes_recorded);
  EXPECT_EQ(serial_failures, parallel_failures);
  EXPECT_GT(serial.failures, 0) << "mutation produced no failures; parity test is vacuous";
}

// Trace replay is pinned to the same bar as repeated runs: a recorded run
// replayed from its trace file must reproduce the original summary line bit
// for bit (src/wkld). Recording itself must also be pure observation.
TEST(GoldenDeterminism, ReplayReproducesRecordedRun) {
  const std::string path = ::testing::TempDir() + "/golden-replay.wkld";
  SimConfig cfg;
  cfg.nodes = kNodes;
  cfg.protocol.kind = ProtocolKind::kHlrc;

  std::string recorded;
  {
    std::unique_ptr<App> app = MakeApp("sor", AppScale::kTiny);
    System sys(cfg);
    wkld::TraceWriter writer(path, wkld::MakeTraceInfo(cfg, app->name(), "golden"));
    wkld::TraceRecorder recorder(&sys, &writer);
    sys.SetWorkloadObserver(&recorder);
    app->Setup(sys);
    sys.Run(app->Program());
    writer.Finish();
    std::string why;
    ASSERT_TRUE(app->Verify(sys, &why)) << why;
    recorded = FormatSummary("sor", ProtocolKind::kHlrc, sys.report());
  }
  EXPECT_EQ(SummaryLine("sor", ProtocolKind::kHlrc), recorded)
      << "recording perturbed the run it observed";

  std::string error;
  std::unique_ptr<wkld::TraceReplayApp> replay = wkld::TraceReplayApp::Open(path, &error);
  ASSERT_NE(nullptr, replay) << error;
  System sys(cfg);
  replay->Setup(sys);
  sys.Run(replay->Program());
  std::string why;
  ASSERT_TRUE(replay->Verify(sys, &why)) << why;
  EXPECT_EQ(recorded, FormatSummary("sor", ProtocolKind::kHlrc, sys.report()));
}

// The coalesced wire plane (PR-10) is opt-in: a default-constructed config
// must have every piece of it off, which together with
// SummaryMatchesCheckedInGolden pins "flags off => bit-identical to the
// pre-coalescing golden" for all four protocol families.
TEST(GoldenDeterminism, CoalescedWirePlaneIsOffByDefault) {
  SimConfig cfg;
  EXPECT_FALSE(cfg.network.coalesce);
  EXPECT_FALSE(cfg.protocol.coalesce);
  EXPECT_FALSE(cfg.reliability.piggyback_acks);
  EXPECT_EQ(cfg.protocol.barrier_arity, 0);
}

// Coalesce-on runs: deterministic, correct, and frame-accounting-consistent.
AppRunResult RunCoalesced(const std::string& app_name, ProtocolKind kind) {
  std::unique_ptr<App> app = MakeApp(app_name, AppScale::kTiny);
  SimConfig cfg;
  cfg.nodes = kNodes;
  cfg.protocol.kind = kind;
  cfg.network.coalesce = true;
  cfg.protocol.coalesce = true;
  cfg.protocol.barrier_arity = 4;
  return RunApp(*app, cfg);
}

// Logical protocol messages inside the frames: everything except standalone
// acks and the bundle frames themselves (each bundle is counted once per
// carried part).
int64_t LogicalMsgs(const NodeReport& t) {
  int64_t n = 0;
  for (size_t i = 0; i < t.traffic.msgs_by_type.size(); ++i) {
    if (i == static_cast<size_t>(MsgType::kAck) ||
        i == static_cast<size_t>(MsgType::kBundle)) {
      continue;
    }
    n += t.traffic.msgs_by_type[i];
  }
  return n;
}

TEST(GoldenDeterminism, CoalescedRunsAreBitIdenticalAndLogicallyEquivalent) {
  for (ProtocolKind kind : {ProtocolKind::kLrc, ProtocolKind::kOlrc, ProtocolKind::kHlrc,
                            ProtocolKind::kOhlrc}) {
    const AppRunResult a = RunCoalesced("sor", kind);
    const AppRunResult b = RunCoalesced("sor", kind);
    ASSERT_TRUE(a.verified) << ProtocolName(kind) << ": " << a.why;
    EXPECT_EQ(FormatSummary("sor", kind, a.report), FormatSummary("sor", kind, b.report))
        << ProtocolName(kind) << ": coalesce-on run is not deterministic";

    const NodeReport on = a.report.Totals();
    // Frame accounting must balance exactly: each bundle replaces its parts
    // with one frame, and (without reliability) there are no ack frames.
    EXPECT_EQ(on.traffic.msgs_sent,
              LogicalMsgs(on) - on.traffic.msgs_coalesced + on.traffic.frames_coalesced +
                  on.traffic.acks_sent)
        << ProtocolName(kind);
    EXPECT_EQ(on.traffic.acks_sent, 0) << ProtocolName(kind);

    // Against the plain run: the program-driven counters cannot move (the
    // wire plane repacks frames, it does not change what the app does), and
    // coalescing never adds frames.
    std::unique_ptr<App> app = MakeApp("sor", AppScale::kTiny);
    SimConfig cfg;
    cfg.nodes = kNodes;
    cfg.protocol.kind = kind;
    const AppRunResult plain = RunApp(*app, cfg);
    const NodeReport off = plain.report.Totals();
    EXPECT_EQ(on.proto.barriers, off.proto.barriers) << ProtocolName(kind);
    EXPECT_EQ(on.proto.lock_acquires, off.proto.lock_acquires) << ProtocolName(kind);
    EXPECT_LE(on.traffic.msgs_sent, off.traffic.msgs_sent) << ProtocolName(kind);
  }
}

TEST(GoldenDeterminism, SummaryMatchesCheckedInGolden) {
  CheckGolden(GoldenPath(), BuildSummary());
}

TEST(GoldenDeterminism, Summary64MatchesCheckedInGolden) {
  CheckGolden(std::string(HLRC_GOLDEN_DIR) + "/summary_64nodes.txt", Build64Summary());
}

}  // namespace
}  // namespace hlrc
