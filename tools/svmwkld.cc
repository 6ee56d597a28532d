// svmwkld — workload trace toolbox (docs/WORKLOADS.md).
//
//   svmwkld record --app=sor --out=sor.wkld [--protocol=P] [--nodes=N]
//                  [--scale=S] [--page-size=B] [--seed=N]
//       Run an application with the workload-trace recorder attached and
//       write the captured workload. The run itself is unchanged by
//       recording.
//
//   svmwkld replay --in=FILE [--protocol=P] [--nodes=N] [--page-size=B]
//       Re-execute a captured workload trace (any protocol; topology
//       defaults to the trace header) and print the run's vital signs.
//
//   svmwkld gen --pattern=NAME --out=FILE [--nodes=N] [--page-size=B]
//               [--pages-per-node=N] [--iterations=N] [--ops=N]
//               [--write-frac=F] [--locality=F] [--compute-ns=N] [--seed=N]
//       Generate a seeded synthetic workload trace. Same flags + same seed
//       => byte-identical file.
//
//   svmwkld stats --in=FILE
//       Print the header and per-node record/byte counts.
//
//   svmwkld cat --in=FILE [--node=N] [--limit=N]
//       Dump records in a readable text form.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/common/cli.h"
#include "src/common/rng.h"
#include "src/proto/options.h"
#include "src/svm/system.h"
#include "src/wkld/recorder.h"
#include "src/wkld/replay.h"
#include "src/wkld/synth.h"
#include "src/wkld/trace_file.h"

namespace hlrc {
namespace {

using wkld::Record;

const ToolInfo kTool = {
    "svmwkld",
    "Workload trace toolbox: record an application's shared-access/sync\n"
    "workload, replay a captured workload trace under any protocol, generate\n"
    "seeded synthetic workloads, and inspect workload trace files\n"
    "(docs/WORKLOADS.md). A workload trace is replayable input, distinct\n"
    "from the execution trace timeline svmsim --trace writes.\n"
    "Commands:\n"
    "  record --app=NAME --out=FILE [--protocol=P] [--nodes=N]\n"
    "         [--scale=S] [--page-size=B] [--seed=N]\n"
    "  replay --in=FILE [--protocol=P] [--nodes=N] [--page-size=B]\n"
    "  gen    --pattern=NAME --out=FILE [--nodes=N] [--page-size=B]\n"
    "         [--pages-per-node=N] [--iterations=N] [--ops=N]\n"
    "         [--write-frac=F] [--locality=F] [--compute-ns=N] [--seed=N]\n"
    "  stats  --in=FILE\n"
    "  cat    --in=FILE [--node=N] [--limit=N]",
    "COMMAND [flags]",
};

struct Options {
  // gen's knobs; --nodes, --page-size and --seed serve record and replay too.
  wkld::SynthConfig synth;
  std::string app;
  std::string pattern;
  std::string in_path;
  std::string out_path;
  ProtocolKind protocol = ProtocolKind::kHlrc;
  AppScale scale = AppScale::kTiny;
  bool nodes_given = false;
  bool page_size_given = false;
  bool seed_given = false;
  int node = -1;       // -1 = every node.
  int64_t limit = -1;  // -1 = no limit.
};

void AddFlags(FlagTable* flags, Options* f) {
  flags->Value("--app", "NAME", &f->app, "application to record (record)",
               Word{RegisteredAppNames()})
      .Value("--pattern", "NAME", &f->pattern, "synthetic sharing pattern (gen)",
             Word{wkld::SynthPatternNames()})
      .String("--in", "FILE", &f->in_path, "workload trace to read (replay, stats, cat)")
      .String("--out", "FILE", &f->out_path, "workload trace to write (record, gen)")
      .Value("--protocol", "P", &f->protocol, "protocol (default hlrc)",
             OneOf<ProtocolKind>{kProtocolNames})
      .Value("--scale", "S", &f->scale, "problem scale (default tiny)",
             OneOf<AppScale>{kAppScaleNames})
      .Value("--nodes", "N", &f->synth.nodes, "node count (default 8; replay: the trace's)",
             Range<int>{1, kMaxNodes})
      .Marks(&f->nodes_given)
      .Value("--page-size", "B", &f->synth.page_size,
             "page size (default 4096; replay: the trace's)", Range<int64_t>{1})
      .Marks(&f->page_size_given)
      .Value("--pages-per-node", "N", &f->synth.pages_per_node,
             "arena pages per node (default 4)", Range<int>{1})
      .Value("--iterations", "N", &f->synth.iterations, "barrier-delimited rounds (default 8)",
             Range<int>{0})
      .Value("--ops", "N", &f->synth.ops_per_iter, "accesses per node per round (default 16)",
             Range<int>{0})
      .Value("--write-frac", "F", &f->synth.write_frac, "P(an access is a write) (default 0.5)",
             kProbability)
      .Value("--locality", "F", &f->synth.locality, "P(an access stays local) (default 0.8)",
             kProbability)
      .Value("--compute-ns", "N", &f->synth.compute_ns,
             "mean compute between accesses (default 2000)", Range<int64_t>{0})
      .Value("--seed", "N", &f->synth.seed, "seed (default 42)", Range<uint64_t>{})
      .Marks(&f->seed_given)
      .Value("--node", "N", &f->node, "dump only this node (default: all)", Range<int>{0})
      .Value("--limit", "N", &f->limit, "dump at most N records (default: all)",
             Range<int64_t>{0});
}

void PrintRunVitals(const System& sys, const App& app, bool verified,
                    const std::string& why) {
  const RunReport& report = sys.report();
  const NodeReport totals = report.Totals();
  std::printf("%s: virtual time %.6f s, %" PRId64 " messages, %" PRId64
              " page fetches, %" PRId64 " diffs, verification %s%s\n",
              app.name().c_str(), ToSeconds(report.total_time), totals.traffic.msgs_sent,
              totals.proto.page_fetches, totals.proto.diffs_created,
              verified ? "OK" : "FAILED ", verified ? "" : why.c_str());
}

int CmdRecord(const Options& f, const FlagTable& flags) {
  if (f.app.empty() || f.out_path.empty()) {
    flags.UsageError("record needs --app and --out");
  }
  const ProtocolKind kind = f.protocol;
  SimConfig cfg;
  cfg.nodes = f.synth.nodes;
  cfg.page_size = f.synth.page_size;
  cfg.shared_bytes = 256ll << 20;
  cfg.seed = f.synth.seed;
  cfg.protocol.kind = kind;
  Rng root(cfg.seed);
  const uint64_t app_seed = root.NextU64();
  auto app = f.seed_given ? MakeApp(f.app, f.scale, app_seed) : MakeApp(f.app, f.scale);
  ExitIfInvalid(*app, cfg);

  System sys(cfg);
  const std::string meta =
      std::string("protocol=") + ProtocolName(kind) + " seed=" + std::to_string(cfg.seed);
  wkld::TraceWriter writer(f.out_path, wkld::MakeTraceInfo(cfg, app->name(), meta));
  wkld::TraceRecorder recorder(&sys, &writer);
  sys.SetWorkloadObserver(&recorder);
  app->Setup(sys);
  sys.Run(app->Program());
  writer.Finish();

  std::string why;
  const bool verified = app->Verify(sys, &why);
  PrintRunVitals(sys, *app, verified, why);
  std::printf("workload trace written to %s\n", f.out_path.c_str());
  return verified ? 0 : 1;
}

int CmdReplay(const Options& f, const FlagTable& flags) {
  if (f.in_path.empty()) {
    flags.UsageError("replay needs --in");
  }
  std::string err;
  auto app = wkld::TraceReplayApp::Open(f.in_path, &err);
  if (app == nullptr) {
    std::fprintf(stderr, "cannot replay: %s\n", err.c_str());
    return 2;
  }
  SimConfig cfg;
  cfg.nodes = f.nodes_given ? f.synth.nodes : app->info().nodes;
  cfg.page_size = f.page_size_given ? f.synth.page_size : app->info().page_size;
  cfg.shared_bytes = app->info().shared_bytes > 0 ? app->info().shared_bytes : 256ll << 20;
  cfg.protocol.kind = f.protocol;
  ExitIfInvalid(*app, cfg);
  System sys(cfg);
  app->Setup(sys);
  sys.Run(app->Program());
  std::string why;
  const bool verified = app->Verify(sys, &why);
  PrintRunVitals(sys, *app, verified, why);
  return verified ? 0 : 1;
}

int CmdGen(const Options& f, const FlagTable& flags) {
  if (f.pattern.empty() || f.out_path.empty()) {
    flags.UsageError("gen needs --pattern and --out");
  }
  wkld::SynthConfig cfg = f.synth;
  wkld::ParseSynthPattern(f.pattern, &cfg.pattern);  // --pattern checked the name.
  // The trace must replay: check the machine it targets and the generator's
  // own limits before writing anything.
  SimConfig machine;
  machine.nodes = cfg.nodes;
  machine.page_size = cfg.page_size;
  machine.shared_bytes = cfg.shared_bytes;
  std::string why = ValidateConfig(machine);
  if (why.empty()) {
    why = wkld::ValidateSynthConfig(cfg);
  }
  if (!why.empty()) {
    flags.UsageError(why);
  }
  wkld::WriteSyntheticTrace(f.out_path, cfg);
  std::printf("synthetic %s trace written to %s (%d nodes, %d iterations, seed %" PRIu64
              ")\n",
              f.pattern.c_str(), f.out_path.c_str(), cfg.nodes, cfg.iterations, cfg.seed);
  return 0;
}

int CmdStats(const Options& f, const FlagTable& flags) {
  if (f.in_path.empty()) {
    flags.UsageError("stats needs --in");
  }
  std::string err;
  auto reader = wkld::TraceReader::Open(f.in_path, &err);
  if (reader == nullptr) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  const wkld::TraceInfo& info = reader->info();
  std::printf("trace %s\n  app: %s\n  meta: %s\n  nodes: %d\n  page size: %" PRId64
              "\n  shared bytes: %" PRId64 "\n  allocations: %zu\n",
              f.in_path.c_str(), info.app.c_str(), info.meta.c_str(), info.nodes,
              info.page_size, info.shared_bytes, info.allocs.size());
  int64_t grand_records = 0;
  int64_t grand_write_bytes = 0;
  for (int node = 0; node < info.nodes; ++node) {
    auto stream = reader->OpenStream(node, &err);
    if (stream == nullptr) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    int64_t counts[9] = {0};
    int64_t access_bytes = 0;
    int64_t write_bytes = 0;
    Record rec;
    while (stream->Next(&rec, &err)) {
      ++counts[static_cast<int>(rec.kind)];
      ++grand_records;
      for (const AccessRange& r : rec.ranges) {
        access_bytes += r.bytes;
      }
      for (const wkld::WriteRun& run : rec.runs) {
        write_bytes += static_cast<int64_t>(run.bytes.size());
      }
    }
    if (!err.empty()) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    grand_write_bytes += write_bytes;
    std::printf("  node %d: compute=%" PRId64 " access=%" PRId64 " writes=%" PRId64
                " lock=%" PRId64 "/%" PRId64 " barrier=%" PRId64 " phase=%" PRId64
                " (access %" PRId64 " B, stored %" PRId64 " B)\n",
                node, counts[1], counts[2], counts[3], counts[4], counts[5], counts[6],
                counts[7], access_bytes, write_bytes);
  }
  std::printf("  total: %" PRId64 " records, %" PRId64 " stored bytes\n", grand_records,
              grand_write_bytes);
  return 0;
}

int CmdCat(const Options& f, const FlagTable& flags) {
  if (f.in_path.empty()) {
    flags.UsageError("cat needs --in");
  }
  std::string err;
  auto reader = wkld::TraceReader::Open(f.in_path, &err);
  if (reader == nullptr) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  const wkld::TraceInfo& info = reader->info();
  for (const wkld::AllocEntry& a : info.allocs) {
    std::printf("ALLOC addr=0x%" PRIx64 " bytes=%" PRId64 "%s\n", a.addr, a.bytes,
                a.page_aligned ? " page-aligned" : "");
  }
  int64_t printed = 0;
  for (int node = 0; node < info.nodes; ++node) {
    if (f.node >= 0 && node != f.node) {
      continue;
    }
    auto stream = reader->OpenStream(node, &err);
    if (stream == nullptr) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    Record rec;
    while (stream->Next(&rec, &err)) {
      if (f.limit >= 0 && printed >= f.limit) {
        std::printf("... (limit reached)\n");
        return 0;
      }
      ++printed;
      std::printf("[%d] %s", node, wkld::RecordKindName(rec.kind));
      switch (rec.kind) {
        case Record::Kind::kCompute:
          std::printf(" %" PRId64 " ns", rec.duration_ns);
          break;
        case Record::Kind::kAccess:
          for (const AccessRange& r : rec.ranges) {
            std::printf(" %s[0x%" PRIx64 "+%" PRId64 "]", r.write ? "W" : "R", r.addr,
                        r.bytes);
          }
          break;
        case Record::Kind::kWrites:
          for (const wkld::WriteRun& run : rec.runs) {
            std::printf(" [0x%" PRIx64 "+%zu]", run.addr, run.bytes.size());
          }
          break;
        case Record::Kind::kLock:
        case Record::Kind::kUnlock:
        case Record::Kind::kBarrier:
        case Record::Kind::kPhase:
          std::printf(" %" PRId64, rec.sync_id);
          break;
        case Record::Kind::kEnd:
          break;
      }
      std::printf("\n");
    }
    if (!err.empty()) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  Options f;
  FlagTable flags(kTool);
  AddFlags(&flags, &f);
  std::vector<std::string> cmd;
  flags.ParseOrExit(argc, argv, 1, &cmd);
  if (cmd.size() != 1) {
    flags.UsageError("expected one command: record | replay | gen | stats | cat");
  }
  if (cmd[0] == "record") return CmdRecord(f, flags);
  if (cmd[0] == "replay") return CmdReplay(f, flags);
  if (cmd[0] == "gen") return CmdGen(f, flags);
  if (cmd[0] == "stats") return CmdStats(f, flags);
  if (cmd[0] == "cat") return CmdCat(f, flags);
  flags.UsageError("unknown command '" + cmd[0] + "'");
}

}  // namespace
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::Main(argc, argv); }
