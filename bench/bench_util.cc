#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/check.h"
#include "src/common/cli.h"
#include "src/sim/sweep.h"
#include "src/metrics/json_writer.h"

namespace hlrc {
namespace bench {
namespace {

FlagTable MakeFlags(const char* argv0, BenchOptions* o) {
  const char* slash = std::strrchr(argv0, '/');
  FlagTable flags(ToolInfo{
      slash != nullptr ? slash + 1 : argv0,
      "Regenerates one table or figure of the paper (EXPERIMENTS.md); every\n"
      "data point is a verified run.",
  });
  flags.List("--nodes", "LIST", &o->node_counts, "node counts (default 8,32,64)",
             Range<int>{1, kMaxNodes})
      .Value("--scale", "S", &o->scale, "problem scale (default default)",
             OneOf<AppScale>{kAppScaleNames})
      .List("--apps", "LIST", &o->apps, "applications (default: the paper's five)",
            Word{RegisteredAppNames()})
      .List("--protocols", "LIST", &o->protocols, "protocols (default lrc,olrc,hlrc,ohlrc)",
            OneOf<ProtocolKind>{kProtocolNames})
      .Marks(&o->protocols_given)
      .Value("--page-size", "N", &o->page_size, "SVM page size, a power of two (default 4096)",
             Range<int64_t>{1})
      .Value("--home", "POLICY", &o->home_policy, "home placement (default block)",
             OneOf<HomePolicy>{kHomePolicyNames})
      .Bool("--no-verify", &o->verify, "skip result verification", false)
      .Value("--fault-drop", "P", &o->fault_drop, "drop probability (implies --reliable)",
             kProbability)
      .Value("--fault-seed", "N", &o->fault_seed, "fault injector seed (default 42)",
             Range<uint64_t>{})
      .String("--json", "FILE", &o->json_out, "also write the results as hlrc-bench JSON")
      .Value("--jobs", "N", &o->jobs, "worker threads (default 0 = hardware concurrency)",
             Range<int>{0, kMaxJobs})
      .Bool("--causal", &o->causal, "add the causal-span critical-path table (fig3)")
      .Bool("--reliable", &o->reliable, "ack/retransmit delivery on a clean fabric")
      .Bool("--coalesce", &o->coalesce, "coalesced wire plane")
      .Value("--barrier-arity", "N", &o->barrier_arity,
             "combining barrier tree of arity N (0 = flat)", Range<int>{0});
  return flags;
}

// Defaults the app list and checks every machine the bench will build.
std::string Finish(BenchOptions* o) {
  if (o->apps.empty()) {
    o->apps = AppNames();
  }
  for (ProtocolKind kind : o->protocols) {
    for (int nodes : o->node_counts) {
      if (std::string why = ValidateConfig(BaseConfig(*o, kind, nodes)); !why.empty()) {
        return why;
      }
    }
  }
  return "";
}

}  // namespace

std::string ParseArgs(int argc, char** argv, BenchOptions* opts) {
  const std::string err = MakeFlags(argv[0], opts).Parse(argc, argv);
  return err.empty() ? Finish(opts) : err;
}

BenchOptions ParseArgs(int argc, char** argv) {
  BenchOptions opts;
  const FlagTable flags = MakeFlags(argv[0], &opts);
  flags.ParseOrExit(argc, argv);
  if (const std::string why = Finish(&opts); !why.empty()) {
    flags.UsageError(why);
  }
  return opts;
}

std::string SelectProtocols(const BenchOptions& opts, const std::vector<ProtocolKind>& supported,
                            std::vector<ProtocolKind>* selected) {
  selected->clear();
  for (ProtocolKind kind : supported) {
    if (!opts.protocols_given ||
        std::find(opts.protocols.begin(), opts.protocols.end(), kind) != opts.protocols.end()) {
      selected->push_back(kind);
    }
  }
  for (ProtocolKind kind : opts.protocols) {
    if (opts.protocols_given &&
        std::find(supported.begin(), supported.end(), kind) == supported.end()) {
      std::string names;
      for (ProtocolKind s : supported) {
        names += (names.empty() ? "" : " and ") + std::string(NameOf(kProtocolNames, s));
      }
      return "--protocols: this benchmark compares " + names + " only, got " +
             NameOf(kProtocolNames, kind);
    }
  }
  return "";
}

void UsageError(const char* argv0, const std::string& why) {
  BenchOptions unused;
  MakeFlags(argv0, &unused).UsageError(why);
  std::abort();  // UsageError exits.
}

SimConfig BaseConfig(const BenchOptions& opts, ProtocolKind kind, int nodes) {
  SimConfig cfg;
  cfg.nodes = nodes;
  cfg.page_size = opts.page_size;
  cfg.shared_bytes = 256ll << 20;  // Mirrors are lazily backed; size generously.
  cfg.protocol.kind = kind;
  cfg.protocol.home_policy = opts.home_policy;
  if (opts.fault_drop > 0) {
    cfg.fault.drop_prob = opts.fault_drop;
    cfg.fault.seed = opts.fault_seed;
  }
  ApplyDeliveryOptions(&cfg, opts.reliable || cfg.fault.Active(), opts.coalesce);
  cfg.protocol.barrier_arity = opts.barrier_arity;
  return cfg;
}

AppRunResult RunVerified(const std::string& app_name, const BenchOptions& opts,
                         const SimConfig& cfg) {
  auto app = MakeApp(app_name, opts.scale);
  ExitIfInvalid(*app, cfg);  // May run on a sweep worker thread.
  AppRunResult result = RunApp(*app, cfg);
  if (opts.verify) {
    HLRC_CHECK_MSG(result.verified, "%s failed verification under %s at %d nodes: %s",
                   app_name.c_str(), ProtocolName(cfg.protocol.kind), cfg.nodes,
                   result.why.c_str());
  }
  return result;
}

SimTime SequentialTime(const std::string& app_name, const BenchOptions& opts) {
  const SimConfig cfg = BaseConfig(opts, ProtocolKind::kHlrc, 1);
  const AppRunResult result = RunVerified(app_name, opts, cfg);
  // Pure computation: what a uniprocessor (no SVM) would take.
  return result.report.nodes[0].cpu_busy.Get(BusyCat::kCompute);
}

std::string FmtSeconds(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ToSeconds(t));
  return buf;
}

void BenchJson::BeginRow() {
  HLRC_CHECK_MSG(!in_row_, "BeginRow without EndRow");
  rows_.emplace_back();
  in_row_ = true;
}

void BenchJson::Add(const std::string& key, const std::string& v) {
  HLRC_CHECK_MSG(in_row_, "Add outside BeginRow/EndRow");
  rows_.back().push_back({Field::Kind::kString, key, v, 0, 0.0});
}

void BenchJson::Add(const std::string& key, const char* v) { Add(key, std::string(v)); }

void BenchJson::Add(const std::string& key, int64_t v) {
  HLRC_CHECK_MSG(in_row_, "Add outside BeginRow/EndRow");
  rows_.back().push_back({Field::Kind::kInt, key, "", v, 0.0});
}

void BenchJson::Add(const std::string& key, double v) {
  HLRC_CHECK_MSG(in_row_, "Add outside BeginRow/EndRow");
  rows_.back().push_back({Field::Kind::kDouble, key, "", 0, v});
}

void BenchJson::EndRow() {
  HLRC_CHECK_MSG(in_row_, "EndRow without BeginRow");
  in_row_ = false;
}

std::string BenchJson::ToJson() const {
  HLRC_CHECK_MSG(!in_row_, "ToJson with an open row");
  JsonWriter w;
  w.BeginObject();
  w.KV("schema", "hlrc-bench");
  w.KV("version", static_cast<int64_t>(1));
  w.KV("bench", bench_name_);
  w.Key("rows");
  w.BeginArray();
  for (const std::vector<Field>& row : rows_) {
    w.BeginObject();
    for (const Field& f : row) {
      switch (f.kind) {
        case Field::Kind::kString:
          w.KV(f.key, f.s);
          break;
        case Field::Kind::kInt:
          w.KV(f.key, f.i);
          break;
        case Field::Kind::kDouble:
          w.KV(f.key, f.d);
          break;
      }
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

void BenchJson::WriteFile(const std::string& path) const {
  const std::string json = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  HLRC_CHECK_MSG(f != nullptr, "cannot open %s for writing", path.c_str());
  const size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  HLRC_CHECK_MSG(std::fclose(f) == 0 && n == json.size(), "short write to %s", path.c_str());
  std::printf("results written to %s\n", path.c_str());
}

}  // namespace bench
}  // namespace hlrc
