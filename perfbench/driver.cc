// perfbench_driver — one benchmark configuration per process.
//
// The parent (perfbench/run.py) starts one child per configuration so that
// each configuration's peak RSS is its own. The child times calls into the
// public functions of src/svm, src/apps, src/check, src/tracing and the
// run-summary exporter with std::chrono::steady_clock, reads the counters
// those layers already expose, and prints one JSON object on stdout.
//
//   perfbench_driver app --app=sor --protocol=lrc --nodes=64 --seed=7 \
//       --set=rows=2048,cols=2048,iterations=8 [--drop=0.01] [--coalesce]
//       [--barrier-arity=4] [--metrics] [--spans] [--export] [--critpath]
//   perfbench_driver check --litmus=lock-handoff --protocol=erc --seeds=1000
//       --first-seed=7
//
// `app` runs one application: System construction, App::Setup, System::Run,
// App::Verify, then (optionally) the run-summary export and critical-path
// attribution, then teardown. `check` runs `seeds` consecutive
// hlrc::RunOne explorations one at a time on this thread and reports each
// one's latency. It then times System construction, litmus Setup and
// teardown of an identically configured machine for every seed, because
// RunOne does those inside one call.
//
// Exit status: 0 when the JSON was printed (the verdict is inside it), 2 on
// bad arguments.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/apps/litmus.h"
#include "src/apps/lu.h"
#include "src/apps/raytrace.h"
#include "src/apps/sor.h"
#include "src/apps/water_nsquared.h"
#include "src/apps/water_spatial.h"
#include "src/check/explorer.h"
#include "src/common/rng.h"
#include "src/svm/run_summary.h"
#include "src/svm/system.h"
#include "src/tracing/critpath.h"
#include "src/tracing/span.h"
#include "src/tracing/span_check.h"

namespace hlrc {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_driver: %s\n", why.c_str());
  std::exit(2);
}

std::optional<ProtocolKind> ParseProtocol(const std::string& s) {
  if (s == "lrc") return ProtocolKind::kLrc;
  if (s == "olrc") return ProtocolKind::kOlrc;
  if (s == "hlrc") return ProtocolKind::kHlrc;
  if (s == "ohlrc") return ProtocolKind::kOhlrc;
  if (s == "erc") return ProtocolKind::kErc;
  if (s == "aurc") return ProtocolKind::kAurc;
  return std::nullopt;
}

// Flag parsing: --key=value or --key (value "1").
// Unknown flags are rejected so a typo cannot silently change a workload.
std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              const std::vector<std::string>& known) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      Usage("unexpected argument '" + arg + "'");
    }
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      Usage("unknown flag '" + arg + "'");
    }
    flags[key] = eq == std::string::npos ? "1" : arg.substr(eq + 1);
  }
  return flags;
}

int64_t ToInt(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0') {
    Usage("--" + key + " wants an integer, got '" + v + "'");
  }
  return x;
}

double ToDouble(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0') {
    Usage("--" + key + " wants a number, got '" + v + "'");
  }
  return x;
}

// "--set=k=v,k=v" → map; every key must be consumed by the app builder.
std::map<std::string, std::string> ParseSet(const std::string& s) {
  std::map<std::string, std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const size_t eq = item.find('=');
    if (item.empty() || eq == std::string::npos) {
      Usage("bad --set item '" + item + "'");
    }
    out[item.substr(0, eq)] = item.substr(eq + 1);
  }
  return out;
}

// Builds an application with explicit problem-size fields. The fields are the
// public config structs of src/apps; `set` overrides their defaults.
std::unique_ptr<App> MakeBenchApp(const std::string& name,
                                  std::map<std::string, std::string> set, uint64_t seed) {
  auto take = [&set](const char* key, auto* field) {
    const auto it = set.find(key);
    if (it == set.end()) {
      return;
    }
    if constexpr (std::is_same_v<std::remove_pointer_t<decltype(field)>, double>) {
      *field = ToDouble(key, it->second);
    } else {
      *field = static_cast<std::remove_pointer_t<decltype(field)>>(ToInt(key, it->second));
    }
    set.erase(it);
  };
  std::unique_ptr<App> app;
  if (name == "sor") {
    SorConfig c;
    take("rows", &c.rows);
    take("cols", &c.cols);
    take("iterations", &c.iterations);
    c.seed = seed;
    app = std::make_unique<SorApp>(c);
  } else if (name == "lu") {
    LuConfig c;
    take("n", &c.n);
    take("block", &c.block);
    c.seed = seed;
    app = std::make_unique<LuApp>(c);
  } else if (name == "water-nsq") {
    WaterNsqConfig c;
    take("molecules", &c.molecules);
    take("steps", &c.steps);
    c.seed = seed;
    app = std::make_unique<WaterNsqApp>(c);
  } else if (name == "water-sp") {
    WaterSpConfig c;
    take("molecules", &c.molecules);
    take("cells", &c.cells);
    take("steps", &c.steps);
    take("box", &c.box);
    c.seed = seed;
    app = std::make_unique<WaterSpApp>(c);
  } else if (name == "raytrace") {
    RaytraceConfig c;
    take("width", &c.width);
    take("height", &c.height);
    take("spheres", &c.spheres);
    c.seed = seed;
    app = std::make_unique<RaytraceApp>(c);
  } else {
    Usage("unknown app '" + name + "'");
  }
  if (!set.empty()) {
    Usage("unknown --set key '" + set.begin()->first + "' for " + name);
  }
  return app;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// Minimal ordered JSON object writer for the flat records printed here.
class Record {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    Raw(key, buf);
  }
  void Int(const std::string& key, int64_t v) { Raw(key, std::to_string(v)); }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + JsonEscape(v) + "\"");
  }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += "\"" + key + "\": " + json;
  }
  std::string Done() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

// The simulated digest: everything the modelled design determines, and
// nothing host-dependent. Engine events are reported beside it because the
// metrics sampler schedules events of its own.
std::string Digest(const System& sys) {
  const RunReport& r = sys.report();
  const NodeReport t = r.Totals();
  int64_t mem_max = 0;
  for (const NodeReport& n : r.nodes) {
    mem_max = std::max(mem_max, n.proto_mem_highwater);
  }
  std::string d = "vt=" + std::to_string(r.total_time) + " msgs=";
  for (size_t i = 0; i < t.traffic.msgs_by_type.size(); ++i) {
    d += (i ? "," : "") + std::to_string(t.traffic.msgs_by_type[i]);
  }
  const ProtoStats& p = t.proto;
  const int64_t proto[] = {p.read_misses,     p.write_faults,         p.page_fetches,
                           p.diffs_created,   p.diffs_applied,        p.diff_requests_sent,
                           p.lock_acquires,   p.remote_acquires,      p.barriers,
                           p.intervals_closed, p.write_notices_received, p.pages_invalidated,
                           p.gc_runs,         p.page_replies_combined, mem_max};
  d += " proto=";
  for (size_t i = 0; i < std::size(proto); ++i) {
    d += (i ? "," : "") + std::to_string(proto[i]);
  }
  return d;
}

int AppMain(const std::map<std::string, std::string>& flags) {
  auto get = [&flags](const char* k, const char* def) {
    const auto it = flags.find(k);
    return it == flags.end() ? std::string(def) : it->second;
  };
  const std::string app_name = get("app", "");
  const std::optional<ProtocolKind> protocol = ParseProtocol(get("protocol", "hlrc"));
  if (!protocol) {
    Usage("unknown protocol '" + get("protocol", "") + "'");
  }
  const uint64_t seed = static_cast<uint64_t>(ToInt("seed", get("seed", "1")));
  const double drop = ToDouble("drop", get("drop", "0"));
  const bool coalesce = flags.count("coalesce") > 0;
  const bool metrics_on = flags.count("metrics") > 0;
  const bool spans_on = flags.count("spans") > 0;
  const bool do_export = flags.count("export") > 0;
  const bool do_critpath = flags.count("critpath") > 0;

  SimConfig cfg;
  cfg.nodes = static_cast<int>(ToInt("nodes", get("nodes", "64")));
  cfg.shared_bytes = 256ll << 20;
  cfg.seed = seed;
  cfg.protocol.kind = *protocol;
  // One root seed feeds the application inputs and the fault injector, the
  // same derivation svmsim uses.
  Rng root(seed);
  const uint64_t app_seed = root.NextU64();
  cfg.fault.seed = root.NextU64();
  cfg.fault.drop_prob = drop;
  if (cfg.fault.Active()) {
    cfg.reliability.enabled = true;
  }
  if (coalesce) {
    cfg.network.coalesce = true;
    cfg.protocol.coalesce = true;
    cfg.reliability.piggyback_acks = cfg.reliability.enabled;
  }
  cfg.protocol.barrier_arity = static_cast<int>(ToInt("barrier-arity", get("barrier-arity", "0")));

  std::unique_ptr<App> app = MakeBenchApp(app_name, ParseSet(get("set", "")), app_seed);

  Record rec;
  rec.Str("kind", "app");
  const auto t_construct = Clock::now();
  auto sys = std::make_unique<System>(cfg);
  const double construct_s = Since(t_construct);
  if (metrics_on) {
    sys->EnableMetrics();
  }
  // The same span capacity svmsim uses; past it the tracer drops roots.
  SpanTracer* spans = spans_on ? sys->EnableSpans(1 << 18) : nullptr;
  const auto t_setup = Clock::now();
  app->Setup(*sys);
  const double setup_s = Since(t_setup);
  const auto t_run = Clock::now();
  sys->Run(app->Program());
  const double run_s = Since(t_run);
  std::string why;
  const auto t_verify = Clock::now();
  const bool verified = app->Verify(*sys, &why);
  const double verify_s = Since(t_verify);

  double export_s = 0;
  if (do_export) {
    RunSummaryMeta meta;
    meta.app = app_name;
    meta.scale = "perfbench";
    meta.verified = verified;
    const auto t0 = Clock::now();
    RunSummaryJson(*sys, meta);
    export_s = Since(t0);
  }
  double critpath_s = 0;
  bool dag_ok = true;
  if (do_critpath && spans != nullptr) {
    const auto t0 = Clock::now();
    std::string err;
    dag_ok = CheckSpanDag(spans->spans(), &err);
    if (dag_ok) {
      AttributeCriticalPaths(spans->spans());
    } else {
      why += (why.empty() ? "" : "; ") + std::string("span DAG: ") + err;
    }
    critpath_s = Since(t0);
  }

  const RunReport& report = sys->report();
  const NodeReport t = report.Totals();
  int64_t mem_max = 0;
  for (const NodeReport& n : report.nodes) {
    mem_max = std::max(mem_max, n.proto_mem_highwater);
  }
  const int64_t frames = t.traffic.msgs_sent;
  const int64_t logical = frames - t.traffic.frames_coalesced + t.traffic.msgs_coalesced;
  int64_t injected = 0;
  if (const FaultInjector* f = sys->fault_injector()) {
    const FaultInjector::Counters& c = f->counters();
    injected = c.dropped + c.corrupted + c.duplicated + c.delayed + c.partition_dropped +
               c.slowdown_delayed;
  }
  rec.Bool("ok", verified && dag_ok);
  rec.Str("why", why);
  rec.Str("digest", Digest(*sys));
  rec.Int("events", sys->engine().events_processed());
  rec.Int("virtual_ns", report.total_time);
  rec.Num("construct_s", construct_s);
  rec.Num("setup_s", setup_s);
  rec.Num("run_s", run_s);
  rec.Num("verify_s", verify_s);
  rec.Num("export_s", export_s);
  rec.Num("critpath_s", critpath_s);
  rec.Int("page_fetches", t.proto.page_fetches);
  rec.Int("diffs_created", t.proto.diffs_created);
  rec.Int("diffs_applied", t.proto.diffs_applied);
  rec.Int("write_notices_received", t.proto.write_notices_received);
  rec.Int("gc_runs", t.proto.gc_runs);
  rec.Int("replies_combined", t.proto.page_replies_combined);
  rec.Int("mem_highwater_bytes", mem_max);
  rec.Int("update_bytes", t.traffic.update_bytes_sent);
  rec.Int("logical_msgs", logical);
  rec.Int("frames", frames);
  rec.Int("bytes", t.traffic.TotalBytesSent());
  rec.Int("retransmits", t.traffic.msgs_retransmitted);
  rec.Int("acks_piggybacked", t.traffic.acks_piggybacked);
  rec.Int("fault_injected", injected);
  rec.Int("spans", spans != nullptr ? static_cast<int64_t>(spans->spans().size()) : 0);
  rec.Int("spans_dropped", spans != nullptr ? spans->dropped() : 0);

  const auto t_teardown = Clock::now();
  sys.reset();
  rec.Num("teardown_s", Since(t_teardown));
  std::printf("%s\n", rec.Done().c_str());
  return 0;
}

// RunOne's machine, rebuilt from the same CheckConfig fields so the probe
// constructs exactly what each explored seed constructs.
SimConfig CheckSimConfig(const CheckConfig& c) {
  SimConfig sim;
  sim.nodes = c.nodes;
  sim.page_size = c.page_size;
  sim.shared_bytes = c.shared_bytes;
  sim.seed = c.seed;
  sim.protocol.kind = c.protocol;
  return sim;
}

int CheckMain(const std::map<std::string, std::string>& flags) {
  auto get = [&flags](const char* k, const char* def) {
    const auto it = flags.find(k);
    return it == flags.end() ? std::string(def) : it->second;
  };
  CheckConfig base;  // svmcheck defaults: 4 nodes, 512-B pages, 3 rounds.
  base.litmus = get("litmus", "message-passing");
  bool known = false;
  for (const std::string& l : LitmusNames()) {
    known = known || l == base.litmus;
  }
  if (!known) {
    Usage("unknown litmus '" + base.litmus + "'");
  }
  const std::optional<ProtocolKind> protocol = ParseProtocol(get("protocol", "hlrc"));
  if (!protocol) {
    Usage("unknown protocol '" + get("protocol", "") + "'");
  }
  base.protocol = *protocol;
  const int64_t seeds = ToInt("seeds", get("seeds", "1000"));
  const uint64_t first = static_cast<uint64_t>(ToInt("first-seed", get("first-seed", "1")));
  if (seeds < 1) {
    Usage("--seeds must be >= 1");
  }

  std::vector<double> lat_us;
  lat_us.reserve(static_cast<size_t>(seeds));
  int64_t failures = 0, violations = 0, reads = 0, writes = 0, events = 0, virtual_ns = 0;
  uint64_t digest = 1469598103934665603ull;  // FNV-1a over the simulated outcome.
  auto mix = [&digest](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest = (digest ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  };
  std::string why;
  for (int64_t i = 0; i < seeds; ++i) {
    CheckConfig cfg = base;
    cfg.seed = first + static_cast<uint64_t>(i);
    const auto t0 = Clock::now();
    const CheckResult r = RunOne(cfg);
    lat_us.push_back(Since(t0) * 1e6);
    if (!r.ok) {
      ++failures;
      if (why.empty()) {
        why = "seed " + std::to_string(cfg.seed) + ": " +
              (r.violations.empty() ? std::string("failed") : r.violations[0].description);
      }
    }
    violations += static_cast<int64_t>(r.violations.size());
    reads += r.reads_checked;
    writes += r.writes_recorded;
    events += r.events;
    virtual_ns += r.sim_time;
    mix(static_cast<uint64_t>(r.sim_time));
    mix(static_cast<uint64_t>(r.reads_checked));
    mix(static_cast<uint64_t>(r.writes_recorded));
    mix(r.decisions_used);
  }

  // The probe: set-up is timed on identical machines outside RunOne. The
  // parent subtracts probe_s from the child's wall time.
  const auto t_probe = Clock::now();
  double construct_s = 0, setup_s = 0, teardown_s = 0;
  LitmusConfig lcfg;
  lcfg.nodes = base.nodes;
  lcfg.rounds = base.rounds;
  for (int64_t i = 0; i < seeds; ++i) {
    CheckConfig cfg = base;
    cfg.seed = first + static_cast<uint64_t>(i);
    lcfg.seed = cfg.seed;
    std::unique_ptr<LitmusTest> litmus = MakeLitmus(cfg.litmus, lcfg);
    const auto t0 = Clock::now();
    auto sys = std::make_unique<System>(CheckSimConfig(cfg));
    const auto t1 = Clock::now();
    litmus->Setup(*sys);
    const auto t2 = Clock::now();
    sys.reset();
    const auto t3 = Clock::now();
    construct_s += std::chrono::duration<double>(t1 - t0).count();
    setup_s += std::chrono::duration<double>(t2 - t1).count();
    teardown_s += std::chrono::duration<double>(t3 - t2).count();
  }
  const double probe_s = Since(t_probe);

  Record rec;
  rec.Str("kind", "check");
  rec.Bool("ok", failures == 0);
  rec.Str("why", why);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest));
  rec.Str("digest", std::string("seeds=") + std::to_string(seeds) + " fnv=" + hex);
  rec.Int("events", events);
  rec.Int("virtual_ns", virtual_ns);
  rec.Int("failures", failures);
  rec.Int("violations", violations);
  rec.Int("reads_checked", reads);
  rec.Int("writes_recorded", writes);
  rec.Num("construct_s", construct_s);
  rec.Num("setup_s", setup_s);
  rec.Num("teardown_s", teardown_s);
  rec.Num("probe_s", probe_s);
  std::string lat = "[";
  for (size_t i = 0; i < lat_us.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", i ? "," : "", lat_us[i]);
    lat += buf;
  }
  rec.Raw("latency_us", lat + "]");
  std::printf("%s\n", rec.Done().c_str());
  return 0;
}

}  // namespace
}  // namespace hlrc

int main(int argc, char** argv) {
  if (argc < 2) {
    hlrc::Usage("usage: perfbench_driver app|check [--flag=value ...]");
  }
  const std::string mode = argv[1];
  if (mode == "app") {
    return hlrc::AppMain(hlrc::ParseFlags(
        argc, argv,
        {"app", "protocol", "nodes", "seed", "set", "drop", "coalesce",
         "barrier-arity", "metrics", "spans", "export", "critpath"}));
  }
  if (mode == "check") {
    return hlrc::CheckMain(
        hlrc::ParseFlags(argc, argv, {"litmus", "protocol", "seeds", "first-seed"}));
  }
  hlrc::Usage("unknown mode '" + mode + "'");
}
