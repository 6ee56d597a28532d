// Workload subsystem tests (src/wkld): wire-format round-trips, trace-file
// integrity checking, record→replay exactness on the paper applications,
// synthetic workload determinism, and the app registry.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/common/rng.h"
#include "src/wkld/recorder.h"
#include "src/wkld/replay.h"
#include "src/wkld/synth.h"
#include "src/wkld/trace_file.h"
#include "src/wkld/wire.h"

namespace hlrc {
namespace wkld {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<uint8_t> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void Dump(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ---- wire primitives -------------------------------------------------------

TEST(Wire, VarintRoundTrips) {
  const uint64_t cases[] = {0,    1,    127,  128,   129,  16383, 16384,
                            1ull << 32, 1ull << 63, ~0ull, 42};
  for (uint64_t v : cases) {
    Buffer buf;
    PutVarint(buf, v);
    ByteReader in(buf.data(), buf.size());
    uint64_t back = 1;
    ASSERT_TRUE(in.ReadVarint(&back));
    EXPECT_EQ(v, back);
    EXPECT_TRUE(in.AtEnd());
  }
}

TEST(Wire, VarintRandomRoundTrips) {
  Rng rng(7);
  Buffer buf;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    // Mix magnitudes so all varint lengths are exercised.
    const uint64_t v = rng.NextU64() >> (rng.NextU64() % 64);
    values.push_back(v);
    PutVarint(buf, v);
  }
  ByteReader in(buf.data(), buf.size());
  for (uint64_t v : values) {
    uint64_t back;
    ASSERT_TRUE(in.ReadVarint(&back));
    EXPECT_EQ(v, back);
  }
  EXPECT_TRUE(in.AtEnd());
}

TEST(Wire, ZigZagRoundTrips) {
  const int64_t cases[] = {0, 1, -1, 2, -2, 1000, -1000, INT64_MAX, INT64_MIN};
  for (int64_t v : cases) {
    EXPECT_EQ(v, UnZigZag(ZigZag(v)));
  }
}

TEST(Wire, TruncatedVarintFails) {
  Buffer buf;
  PutVarint(buf, 1ull << 40);
  buf.pop_back();
  ByteReader in(buf.data(), buf.size());
  uint64_t v;
  EXPECT_FALSE(in.ReadVarint(&v));
  EXPECT_FALSE(in.ok());
}

TEST(Wire, Crc32MatchesKnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(0xCBF43926u, Crc32(reinterpret_cast<const uint8_t*>(s), 9));
}

TEST(Wire, Crc32DetectsBitFlip) {
  Buffer buf(64, 0xAB);
  const uint32_t crc = Crc32(buf);
  buf[17] ^= 0x01;
  EXPECT_NE(crc, Crc32(buf));
}

// ---- trace file round-trips ------------------------------------------------

Record MakeRandomRecord(Rng& rng) {
  Record rec;
  switch (rng.NextBounded(7)) {
    case 0:
      rec.kind = Record::Kind::kCompute;
      rec.duration_ns = rng.NextInt(0, 1 << 30);
      break;
    case 1: {
      rec.kind = Record::Kind::kAccess;
      const int n = static_cast<int>(rng.NextInt(1, 4));
      for (int i = 0; i < n; ++i) {
        rec.ranges.push_back(AccessRange{rng.NextU64() % (1ull << 40),
                                         rng.NextInt(1, 1 << 20), rng.NextBool()});
      }
      break;
    }
    case 2: {
      rec.kind = Record::Kind::kWrites;
      const int n = static_cast<int>(rng.NextInt(1, 3));
      for (int i = 0; i < n; ++i) {
        WriteRun run;
        run.addr = rng.NextU64() % (1ull << 40);
        run.bytes.resize(static_cast<size_t>(rng.NextInt(1, 512)));
        for (uint8_t& b : run.bytes) {
          b = static_cast<uint8_t>(rng.NextBounded(256));
        }
        rec.runs.push_back(std::move(run));
      }
      break;
    }
    case 3:
      rec.kind = Record::Kind::kLock;
      rec.sync_id = rng.NextInt(0, 1000);
      break;
    case 4:
      rec.kind = Record::Kind::kUnlock;
      rec.sync_id = rng.NextInt(0, 1000);
      break;
    case 5:
      rec.kind = Record::Kind::kBarrier;
      rec.sync_id = rng.NextInt(0, 100);
      break;
    default:
      rec.kind = Record::Kind::kPhase;
      rec.sync_id = rng.NextInt(0, 100);
      break;
  }
  return rec;
}

TraceInfo TestInfo(int nodes) {
  TraceInfo info;
  info.nodes = nodes;
  info.page_size = 4096;
  info.shared_bytes = 1 << 20;
  info.app = "test-app";
  info.meta = "directed round-trip";
  return info;
}

void ExpectWorkloadsEqual(const VectorSink& a, const VectorSink& b) {
  ASSERT_EQ(a.nodes(), b.nodes());
  EXPECT_EQ(a.allocs(), b.allocs());
  for (int n = 0; n < a.nodes(); ++n) {
    ASSERT_EQ(a.stream(n).size(), b.stream(n).size()) << "node " << n;
    for (size_t i = 0; i < a.stream(n).size(); ++i) {
      EXPECT_EQ(a.stream(n)[i], b.stream(n)[i]) << "node " << n << " record " << i;
    }
  }
}

TEST(TraceFile, DirectedRoundTrip) {
  const std::string path = TempPath("directed.wkld");
  VectorSink original(2);
  original.Alloc(AllocEntry{0, 8192, true});
  original.Alloc(AllocEntry{8192, 100, false});
  Record compute;
  compute.kind = Record::Kind::kCompute;
  compute.duration_ns = 12345;
  original.Append(0, compute);
  Record access;
  access.kind = Record::Kind::kAccess;
  access.ranges = {{0, 4096, true}, {4096, 64, false}};
  original.Append(0, access);
  Record writes;
  writes.kind = Record::Kind::kWrites;
  WriteRun run;
  run.addr = 16;
  run.bytes = {1, 2, 3, 4, 5};
  writes.runs.push_back(run);
  original.Append(0, writes);
  Record end;
  end.kind = Record::Kind::kEnd;
  Record barrier;
  barrier.kind = Record::Kind::kBarrier;
  barrier.sync_id = 0;
  original.Append(0, barrier);
  original.Append(0, end);
  original.Append(1, barrier);
  original.Append(1, end);

  TraceInfo info = TestInfo(2);
  WriteTrace(path, info, original);

  VectorSink back(2);
  TraceInfo read_info;
  std::string error;
  ASSERT_TRUE(ReadTrace(path, &back, &read_info, &error)) << error;
  EXPECT_EQ(info.app, read_info.app);
  EXPECT_EQ(info.meta, read_info.meta);
  EXPECT_EQ(info.page_size, read_info.page_size);
  EXPECT_EQ(info.shared_bytes, read_info.shared_bytes);
  ExpectWorkloadsEqual(original, back);
}

// ~1000 random records across several files and node interleavings: whatever
// is written comes back bit-identical.
TEST(TraceFile, RandomizedRoundTrips) {
  Rng rng(99);
  for (int file = 0; file < 8; ++file) {
    const int nodes = static_cast<int>(rng.NextInt(1, 4));
    const std::string path = TempPath("random" + std::to_string(file) + ".wkld");
    VectorSink original(nodes);
    GlobalAddr next_alloc = 0;
    for (int a = 0; a < static_cast<int>(rng.NextInt(1, 4)); ++a) {
      const int64_t bytes = rng.NextInt(16, 1 << 16);
      original.Alloc(AllocEntry{next_alloc, bytes, rng.NextBool()});
      next_alloc += static_cast<GlobalAddr>(bytes);
    }
    for (int r = 0; r < 140; ++r) {
      original.Append(static_cast<int>(rng.NextBounded(static_cast<uint64_t>(nodes))),
                      MakeRandomRecord(rng));
    }
    Record end;
    end.kind = Record::Kind::kEnd;
    for (int n = 0; n < nodes; ++n) {
      original.Append(n, end);
    }
    WriteTrace(path, TestInfo(nodes), original);

    VectorSink back(nodes);
    std::string error;
    ASSERT_TRUE(ReadTrace(path, &back, nullptr, &error)) << error;
    ExpectWorkloadsEqual(original, back);
  }
}

// A trace big enough to force multiple chunk flushes per node still
// round-trips (records never span chunks; delta state carries across them).
TEST(TraceFile, MultiChunkRoundTrip) {
  Rng rng(5);
  const std::string path = TempPath("multichunk.wkld");
  VectorSink original(2);
  original.Alloc(AllocEntry{0, 1 << 20, true});
  for (int r = 0; r < 600; ++r) {  // ~600 x ~0.5 KiB avg >> 64 KiB flush threshold.
    original.Append(r % 2, MakeRandomRecord(rng));
  }
  Record end;
  end.kind = Record::Kind::kEnd;
  original.Append(0, end);
  original.Append(1, end);
  WriteTrace(path, TestInfo(2), original);

  VectorSink back(2);
  std::string error;
  ASSERT_TRUE(ReadTrace(path, &back, nullptr, &error)) << error;
  ExpectWorkloadsEqual(original, back);
}

// ---- corruption rejection --------------------------------------------------

std::string ValidTracePath() {
  const std::string path = TempPath("valid.wkld");
  SynthConfig cfg;
  cfg.nodes = 2;
  cfg.pages_per_node = 2;
  cfg.iterations = 2;
  cfg.ops_per_iter = 4;
  WriteSyntheticTrace(path, cfg);
  return path;
}

TEST(TraceFile, RejectsBadMagic) {
  const std::string path = ValidTracePath();
  std::vector<uint8_t> bytes = Slurp(path);
  bytes[0] ^= 0xFF;
  const std::string bad = TempPath("badmagic.wkld");
  Dump(bad, bytes);
  std::string error;
  EXPECT_EQ(nullptr, TraceReader::Open(bad, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(TraceFile, RejectsVersionMismatch) {
  const std::string path = ValidTracePath();
  std::vector<uint8_t> bytes = Slurp(path);
  // The version is the u32 after the 8-byte magic; it is deliberately
  // outside the header CRC so a reader can name the version it cannot parse.
  bytes[8] = 0x7F;
  const std::string bad = TempPath("badversion.wkld");
  Dump(bad, bytes);
  std::string error;
  EXPECT_EQ(nullptr, TraceReader::Open(bad, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(TraceFile, RejectsCorruptHeader) {
  const std::string path = ValidTracePath();
  std::vector<uint8_t> bytes = Slurp(path);
  bytes[20] ^= 0x10;  // Inside the header payload.
  const std::string bad = TempPath("badheader.wkld");
  Dump(bad, bytes);
  std::string error;
  EXPECT_EQ(nullptr, TraceReader::Open(bad, &error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

TEST(TraceFile, RejectsCorruptChunk) {
  const std::string path = ValidTracePath();
  std::vector<uint8_t> bytes = Slurp(path);
  bytes[bytes.size() - 40] ^= 0x40;  // Inside the last node's chunk payload.
  const std::string bad = TempPath("badchunk.wkld");
  Dump(bad, bytes);
  VectorSink sink(2);
  std::string error;
  EXPECT_FALSE(ReadTrace(bad, &sink, nullptr, &error));
  EXPECT_FALSE(error.empty());
}

TEST(TraceFile, RejectsTruncation) {
  const std::string path = ValidTracePath();
  std::vector<uint8_t> bytes = Slurp(path);
  // Cut at several depths that each lose real data: mid-magic, mid-header,
  // mid-stream, and inside the last chunk. (Losing only the trailing 12-byte
  // end marker is harmless by design — every per-node stream carries its own
  // kEnd sentinel — so the shallowest cut here still bites into a chunk.)
  for (const size_t keep :
       {size_t{4}, size_t{10}, bytes.size() / 2, bytes.size() - 20}) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + static_cast<long>(keep));
    const std::string bad = TempPath("trunc" + std::to_string(keep) + ".wkld");
    Dump(bad, cut);
    VectorSink sink(2);
    std::string error;
    EXPECT_FALSE(ReadTrace(bad, &sink, nullptr, &error)) << "keep=" << keep;
    EXPECT_FALSE(error.empty()) << "keep=" << keep;
  }
}

// ---- record → replay exactness ---------------------------------------------

// The full pinned signature: every time category, every protocol counter,
// every per-MsgType message count.
std::string FullSummary(const RunReport& report) {
  const NodeReport t = report.Totals();
  std::ostringstream os;
  os << "time=" << report.total_time;
  for (int c = 0; c < static_cast<int>(BusyCat::kCount); ++c) {
    os << " busy." << BusyCatName(static_cast<BusyCat>(c)) << "="
       << t.cpu_busy.Get(static_cast<BusyCat>(c));
  }
  for (int c = 0; c < static_cast<int>(WaitCat::kCount); ++c) {
    os << " wait." << WaitCatName(static_cast<WaitCat>(c)) << "="
       << t.waits.Get(static_cast<WaitCat>(c));
  }
  for (int m = 0; m < static_cast<int>(MsgType::kCount); ++m) {
    os << " msg." << MsgTypeName(static_cast<MsgType>(m)) << "="
       << t.traffic.msgs_by_type[static_cast<size_t>(m)];
  }
  os << " fetches=" << t.proto.page_fetches << " diffs=" << t.proto.diffs_created
     << " applied=" << t.proto.diffs_applied << " locks=" << t.proto.lock_acquires
     << " barriers=" << t.proto.barriers << " update_bytes=" << t.traffic.update_bytes_sent
     << " proto_bytes=" << t.traffic.protocol_bytes_sent;
  return os.str();
}

SimConfig TestConfig(ProtocolKind kind) {
  SimConfig cfg;
  cfg.nodes = 8;
  cfg.protocol.kind = kind;
  return cfg;
}

// Runs `app_name` (tiny scale) with the recorder attached, writing the trace
// to `path`. Returns the recorded run's summary.
std::string RecordAppTrace(const std::string& app_name, ProtocolKind kind,
                           const std::string& path) {
  auto app = MakeApp(app_name, AppScale::kTiny);
  const SimConfig cfg = TestConfig(kind);
  System sys(cfg);
  TraceWriter writer(path, MakeTraceInfo(cfg, app->name(), "test"));
  TraceRecorder recorder(&sys, &writer);
  sys.SetWorkloadObserver(&recorder);
  app->Setup(sys);
  sys.Run(app->Program());
  writer.Finish();
  std::string why;
  EXPECT_TRUE(app->Verify(sys, &why)) << app_name << ": " << why;
  return FullSummary(sys.report());
}

std::string ReplayTrace(const std::string& path, ProtocolKind kind) {
  std::string error;
  auto app = TraceReplayApp::Open(path, &error);
  EXPECT_NE(nullptr, app) << error;
  if (app == nullptr) {
    return "";
  }
  const SimConfig cfg = TestConfig(kind);
  System sys(cfg);
  app->Setup(sys);
  sys.Run(app->Program());
  std::string why;
  EXPECT_TRUE(app->Verify(sys, &why)) << why;
  return FullSummary(sys.report());
}

std::string PlainRun(const std::string& app_name, ProtocolKind kind) {
  auto app = MakeApp(app_name, AppScale::kTiny);
  System sys(TestConfig(kind));
  app->Setup(sys);
  sys.Run(app->Program());
  std::string why;
  EXPECT_TRUE(app->Verify(sys, &why)) << app_name << ": " << why;
  return FullSummary(sys.report());
}

// The acceptance bar: record→replay on each of the five paper applications
// reproduces the protocol behavior exactly — per-category time breakdown and
// per-MsgType message counts, bit for bit.
TEST(RecordReplay, PaperAppsReplayExactlyUnderHlrc) {
  for (const char* app : {"sor", "lu", "water-nsq", "water-sp", "raytrace"}) {
    const std::string path = TempPath(std::string("exact-") + app + ".wkld");
    const std::string recorded = RecordAppTrace(app, ProtocolKind::kHlrc, path);
    const std::string replayed = ReplayTrace(path, ProtocolKind::kHlrc);
    EXPECT_EQ(recorded, replayed) << app;
  }
}

// Attaching the recorder must not perturb the run it observes.
TEST(RecordReplay, RecordingIsPureObservation) {
  for (ProtocolKind kind : {ProtocolKind::kHlrc, ProtocolKind::kLrc}) {
    const std::string path = TempPath("observe.wkld");
    EXPECT_EQ(PlainRun("sor", kind), RecordAppTrace("sor", kind, path))
        << ProtocolName(kind);
  }
}

// A trace recorded under one protocol family replays under the others: the
// workload is protocol-independent; only the measured behavior changes.
TEST(RecordReplay, CrossProtocolReplayRuns) {
  const std::string path = TempPath("cross.wkld");
  RecordAppTrace("sor", ProtocolKind::kHlrc, path);
  for (ProtocolKind kind : {ProtocolKind::kLrc, ProtocolKind::kErc, ProtocolKind::kAurc,
                            ProtocolKind::kOhlrc}) {
    const std::string summary = ReplayTrace(path, kind);
    EXPECT_FALSE(summary.empty()) << ProtocolName(kind);
  }
}

TEST(RecordReplay, NodeCountMismatchDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = TempPath("mismatch.wkld");
  RecordAppTrace("sor", ProtocolKind::kHlrc, path);
  EXPECT_DEATH(
      {
        std::string error;
        auto app = TraceReplayApp::Open(path, &error);
        SimConfig cfg;
        cfg.nodes = 4;
        cfg.protocol.kind = ProtocolKind::kHlrc;
        System sys(cfg);
        app->Setup(sys);
      },
      "recorded with");
}

// The same mismatches are bad input to the tools: ValidateRun names them
// before any System exists, instead of the CHECK above aborting the run.
TEST(RecordReplay, ValidateRunRejectsForeignNodeCountAndLayout) {
  const std::string path = TempPath("validate.wkld");
  RecordAppTrace("sor", ProtocolKind::kHlrc, path);
  std::string error;
  auto app = TraceReplayApp::Open(path, &error);
  ASSERT_NE(nullptr, app) << error;
  SimConfig cfg = TestConfig(ProtocolKind::kHlrc);
  EXPECT_EQ(ValidateRun(*app, cfg), "");
  cfg.nodes = 4;
  EXPECT_NE(ValidateRun(*app, cfg).find("recorded with 8 nodes but the system has 4"),
            std::string::npos);
  cfg.nodes = 8;
  cfg.page_size = 1 << 20;
  EXPECT_NE(ValidateRun(*app, cfg).find("layout shifted"), std::string::npos);
}

// ---- synthetic workloads ---------------------------------------------------

TEST(Synth, SameSeedIsByteIdentical) {
  SynthConfig cfg;
  cfg.pattern = SynthPattern::kHotspot;
  cfg.seed = 123;
  const std::string a = TempPath("synth-a.wkld");
  const std::string b = TempPath("synth-b.wkld");
  WriteSyntheticTrace(a, cfg);
  WriteSyntheticTrace(b, cfg);
  EXPECT_EQ(Slurp(a), Slurp(b));
}

TEST(Synth, DifferentSeedDiffers) {
  SynthConfig cfg;
  cfg.pattern = SynthPattern::kHotspot;
  cfg.seed = 123;
  const std::string a = TempPath("synth-s123.wkld");
  WriteSyntheticTrace(a, cfg);
  cfg.seed = 124;
  const std::string b = TempPath("synth-s124.wkld");
  WriteSyntheticTrace(b, cfg);
  EXPECT_NE(Slurp(a), Slurp(b));
}

// Every pattern runs to completion (no deadlock: barrier schedules match
// across nodes, locks are balanced) and through every protocol's replay path.
TEST(Synth, AllPatternsRunUnderHlrcAndLrc) {
  for (int p = 0; p < static_cast<int>(SynthPatternNames().size()); ++p) {
    SynthConfig cfg;
    cfg.pattern = static_cast<SynthPattern>(p);
    cfg.nodes = 4;
    cfg.pages_per_node = 2;
    cfg.iterations = 2;
    cfg.ops_per_iter = 4;
    for (ProtocolKind kind : {ProtocolKind::kHlrc, ProtocolKind::kLrc}) {
      auto app = MakeSyntheticApp(cfg);
      SimConfig sim;
      sim.nodes = 4;
      sim.protocol.kind = kind;
      const AppRunResult r = RunApp(*app, sim);
      EXPECT_TRUE(r.verified) << SynthPatternName(cfg.pattern) << " under "
                              << ProtocolName(kind) << ": " << r.why;
      EXPECT_GT(r.report.total_time, 0);
    }
  }
}

// Synthetic apps adapt to the system's topology (unlike file replay): one
// app, validated then run, regenerates its workload for each new node count.
// Pages the generator cannot use are rejected, not aborted on.
TEST(Synth, AppAdaptsToNodeCount) {
  SynthConfig cfg;
  cfg.pattern = SynthPattern::kSingleWriter;
  cfg.iterations = 2;
  cfg.ops_per_iter = 4;
  auto app = MakeSyntheticApp(cfg);
  for (int nodes : {2, 8, 2}) {
    SimConfig sim;
    sim.nodes = nodes;
    ASSERT_EQ(ValidateRun(*app, sim), "") << nodes;
    const AppRunResult r = RunApp(*app, sim);
    EXPECT_TRUE(r.verified) << nodes << " nodes: " << r.why;
  }
  SimConfig sim;
  sim.page_size = 128;
  EXPECT_NE(ValidateRun(*app, sim).find("page_size >= 256"), std::string::npos);
}

// A generated trace file replays through the full file path too.
TEST(Synth, GeneratedTraceReplays) {
  const std::string path = TempPath("synth-replay.wkld");
  SynthConfig cfg;
  cfg.pattern = SynthPattern::kMigratory;
  cfg.nodes = 4;
  cfg.pages_per_node = 2;
  cfg.iterations = 2;
  cfg.ops_per_iter = 4;
  WriteSyntheticTrace(path, cfg);
  std::string error;
  auto app = TraceReplayApp::Open(path, &error);
  ASSERT_NE(nullptr, app) << error;
  SimConfig sim;
  sim.nodes = 4;
  System sys(sim);
  app->Setup(sys);
  sys.Run(app->Program());
  std::string why;
  EXPECT_TRUE(app->Verify(sys, &why)) << why;
}

TEST(Synth, PatternNamesRoundTrip) {
  for (const std::string& name : SynthPatternNames()) {
    SynthPattern p;
    ASSERT_TRUE(ParseSynthPattern(name, &p));
    EXPECT_EQ(name, SynthPatternName(p));
  }
  SynthPattern p;
  EXPECT_FALSE(ParseSynthPattern("no-such-pattern", &p));
}

// ---- app registry ----------------------------------------------------------

TEST(Registry, TryMakeAppReturnsNullOnUnknown) {
  EXPECT_EQ(nullptr, TryMakeApp("no-such-app", AppScale::kTiny));
  EXPECT_NE(nullptr, TryMakeApp("sor", AppScale::kTiny));
}

TEST(Registry, RegisteredNamesIncludePaperAppsAndSynthetics) {
  const std::vector<std::string> names = RegisteredAppNames();
  auto has = [&](const std::string& n) {
    for (const std::string& name : names) {
      if (name == n) {
        return true;
      }
    }
    return false;
  };
  for (const std::string& n : AllAppNames()) {
    EXPECT_TRUE(has(n)) << n;
  }
  for (const std::string& p : SynthPatternNames()) {
    EXPECT_TRUE(has("synth-" + p)) << p;
  }
  // Sorted, no duplicates.
  for (size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);
  }
}

TEST(Registry, SyntheticAppsComeFromTheFactory) {
  auto app = TryMakeApp("synth-migratory", AppScale::kTiny);
  ASSERT_NE(nullptr, app);
  SimConfig sim;
  sim.nodes = 4;
  const AppRunResult r = RunApp(*app, sim);
  EXPECT_TRUE(r.verified) << r.why;
}

}  // namespace
}  // namespace wkld
}  // namespace hlrc
