#include "tools/tool_flags.h"

#include <cstdio>
#include <cstdlib>

#include "src/apps/litmus.h"
#include "src/common/rng.h"
#include "src/sim/sweep.h"
#include "src/wkld/replay.h"

namespace hlrc {

const ToolInfo kSimTool = {
    "svmsim",
    "Runs one benchmark application under one SVM protocol and prints the\n"
    "paper-style report (time breakdown, operation counts, traffic), e.g.\n"
    "  svmsim --app=lu --protocol=lrc --nodes=64 --scale=paper --trace=lu.json",
};

void AddSimFlags(FlagTable* flags, SimOptions* o) {
  SimConfig& c = o->cfg;
  flags->Value("--app", "NAME", &o->app, "application", Word{RegisteredAppNames()})
      .Marks(&o->app_given)
      .Value("--protocol", "NAME", &c.protocol.kind, "protocol",
             OneOf<ProtocolKind>{kProtocolNames})
      .Value("--nodes", "N", &c.nodes, "node count (default 8)", Range<int>{1, kMaxNodes})
      .Marks(&o->nodes_given)
      .Value("--scale", "S", &o->scale, "problem scale", OneOf<AppScale>{kAppScaleNames})
      .Value("--page-size", "BYTES", &c.page_size, "SVM page size, a power of two (default 4096)",
             Range<int64_t>{1})
      .Marks(&o->page_size_given)
      .Value("--home", "POLICY", &c.protocol.home_policy, "home placement",
             OneOf<HomePolicy>{kHomePolicyNames})
      .Value("--diff-policy", "P", &c.protocol.diff_policy, "diffing of the homeless protocols",
             OneOf<DiffPolicy>{kDiffPolicyNames})
      .Value("--gc-threshold", "BYTES", &c.protocol.gc_threshold_bytes,
             "homeless GC trigger (default 4 MiB)", Range<int64_t>{1})
      .Bool("--migrate-homes", &c.protocol.migrate_homes,
            "enable dynamic home migration (home-based)")
      .String("--trace", "FILE.json", &o->trace_path,
              "write a chrome://tracing execution trace (event timeline; distinct from a "
              "workload trace)")
      .Bool("--per-node", &o->per_node, "print the per-node breakdown table")
      .Bool("--no-verify", &o->verify, "skip result verification", false)
      .Bool("--verbose", &o->verbose, "print a host wall-clock summary")
      .Value("--seed", "N", &c.seed, "root seed (app inputs + fault injector)",
             Range<uint64_t>{})
      .Marks(&o->seed_given)
      .String("--record-trace", "FILE", &o->record_trace_path,
              "record the run's workload trace (shared accesses and sync; replayable input, "
              "not a timeline)")
      .String("--replay-trace", "FILE", &o->replay_trace_path,
              "replay a recorded workload trace instead of an app (--nodes/--page-size "
              "default to the trace header)")
      .String("--metrics-out", "FILE", &o->metrics_path,
              "write a versioned JSON run summary (includes the causal-span section read by "
              "svmtrace)")
      .Value("--sample-interval", "US", &o->sample_interval_us,
             "metrics sampler period (default 1000)", Range<int64_t>{1, kMaxMicros})
      .Bool("--coverage", &o->coverage,
            "collect protocol-state coverage; printed after the report and exported in "
            "--metrics-out")
      .Value("--fault-drop", "P", &c.fault.drop_prob, "drop each message with probability P",
             kProbability)
      .Value("--fault-dup", "P", &c.fault.dup_prob, "duplicate each message with probability P",
             kProbability)
      .Value("--fault-delay", "P", &c.fault.delay_prob, "delay each message with probability P",
             kProbability)
      .Value("--fault-corrupt", "P", &c.fault.corrupt_prob,
             "corrupt-and-drop each message with probability P", kProbability)
      .Value("--fault-seed", "N", &c.fault.seed, "injector seed (default: derived from --seed)",
             Range<uint64_t>{})
      .Marks(&o->fault_seed_given)
      .Callback("--partition", "a-b@t0..t1",
                "partition node lists a and b during [t0,t1) ms (repeatable; empty b = rest "
                "of the machine)",
                [&c](std::string_view v) {
                  PartitionWindow w;
                  std::string err;
                  if (!ParsePartitionSpec(std::string(v), &w, &err)) {
                    return "bad spec: " + err;
                  }
                  c.fault.partitions.push_back(std::move(w));
                  return std::string();
                })
      .Bool("--reliable", &o->reliable, "enable ack/retransmit delivery (implied by faults)")
      .Value("--retry-timeout", "US", &o->retry_timeout_us, "retransmit timeout (default 10000)",
             Range<int64_t>{1, kMaxMicros})
      .Marks(&o->reliable)
      .Value("--retry-max", "N", &c.reliability.max_retries,
             "retransmissions per message before aborting (default 12)", Range<int>{0})
      .Marks(&o->reliable)
      .Bool("--coalesce", &o->coalesce,
            "coalesced wire plane: same-tick sends to one peer packed into multi-part "
            "frames, acks piggybacked on data (with --reliable), page requests combined at "
            "the home")
      .Value("--barrier-arity", "N", &c.protocol.barrier_arity,
             "combining barrier tree of arity N (default 0 = flat all-to-manager barrier)",
             Range<int>{0})
      .Callback("--list", nullptr, "print application and protocol names", [](std::string_view) {
        std::printf("applications:");
        for (const std::string& a : RegisteredAppNames()) {
          std::printf(" %s", a.c_str());
        }
        std::printf("\nprotocols: %s\n", JoinNames<ProtocolKind>(kProtocolNames, " ").c_str());
        std::exit(0);
        return std::string();
      });
}

std::string PrepareSimRun(const SimOptions& o, SimRun* run) {
  // Replay substitutes the trace for an application and inherits the
  // recorded topology unless flags override it explicitly.
  std::unique_ptr<wkld::TraceReplayApp> replay_app;
  if (!o.replay_trace_path.empty()) {
    if (o.app_given) {
      return "--replay-trace and --app are mutually exclusive";
    }
    std::string err;
    replay_app = wkld::TraceReplayApp::Open(o.replay_trace_path, &err);
    if (replay_app == nullptr) {
      return "cannot replay: " + err;
    }
  }
  SimConfig& cfg = run->cfg;
  cfg = o.cfg;
  cfg.shared_bytes = 256ll << 20;
  if (replay_app != nullptr) {
    const wkld::TraceInfo& info = replay_app->info();
    cfg.nodes = o.nodes_given ? cfg.nodes : info.nodes;
    cfg.page_size = o.page_size_given ? cfg.page_size : info.page_size;
    if (info.shared_bytes > 0) {
      cfg.shared_bytes = info.shared_bytes;
    }
  }
  // One root seed feeds every Rng consumer: application inputs and the fault
  // injector draw distinct derived seeds, unless overridden explicitly.
  Rng root(cfg.seed);
  run->app_seed = root.NextU64();
  const uint64_t derived_fault_seed = root.NextU64();
  if (!o.fault_seed_given) {
    cfg.fault.seed = derived_fault_seed;
  }
  ApplyDeliveryOptions(&cfg, o.reliable || cfg.fault.Active(), o.coalesce);
  cfg.reliability.retry_timeout = Micros(o.retry_timeout_us);

  if (replay_app != nullptr) {
    run->app = std::move(replay_app);
  } else {
    run->app = o.seed_given ? MakeApp(o.app, o.scale, run->app_seed) : MakeApp(o.app, o.scale);
  }
  return ValidateRun(*run->app, cfg);
}

const ToolInfo kCheckTool = {
    "svmcheck",
    "Sweeps seeded schedule perturbations of the litmus programs under the\n"
    "selected protocols, validating every shared read against the LRC\n"
    "oracle; failing schedules are minimized to a replayable\n"
    "(seed, decision-limit) pair. Exit status: 0 if every run satisfied the\n"
    "oracle, 1 otherwise, 2 on bad input.",
};

void AddCheckFlags(FlagTable* flags, CheckOptions* o) {
  CheckConfig& c = o->base;
  flags
      ->Callback("--litmus", "LIST", "comma-separated litmus names, or \"all\" (default)",
                 [o](std::string_view v) {
                   if (v != "all") {
                     return ParseList(v, Word{LitmusNames()}, &o->litmus);
                   }
                   o->litmus = LitmusNames();
                   return std::string();
                 })
      .Callback("--protocols", "LIST",
                "comma-separated protocols, or \"all\" (default lrc,erc,hlrc,aurc): " +
                    JoinNames<ProtocolKind>(kProtocolNames, " | "),
                [o](std::string_view v) {
                  return ParseList(v == "all" ? JoinNames<ProtocolKind>(kProtocolNames, ",")
                                              : std::string(v),
                                   OneOf<ProtocolKind>{kProtocolNames}, &o->protocols);
                })
      .Value("--seeds", "N", &o->seeds, "seeds per (litmus, protocol) pair (default 100)",
             Range<int>{1})
      .Value("--seed", "N", &o->first_seed, "first seed of the sweep (default 1)",
             Range<uint64_t>{})
      .Value("--jobs", "N", &o->jobs,
             "worker threads per sweep (default 0 = hardware concurrency; report is --jobs "
             "independent)",
             Range<int>{0, kMaxJobs})
      .Value("--nodes", "N", &c.nodes, "node count (default 4)", Range<int>{2, kMaxNodes})
      .Value("--rounds", "N", &c.rounds, "litmus rounds (default 3)", Range<int>{1})
      .Value("--page-size", "BYTES", &c.page_size, "SVM page size, a power of two (default 512)",
             Range<int64_t>{1})
      .Value("--max-jitter-us", "N", &o->max_jitter_us,
             "max per-message delivery jitter (default 150)", Range<int64_t>{0, kMaxMicros})
      .Bool("--no-permute", &c.permute_tasks, "disable the same-time event permutation", false)
      .Value("--mutation", "NAME", &c.mutation, "seeded protocol bug",
             OneOf<TestMutation>{kTestMutationNames})
      .Value("--fault-drop", "P", &c.fault.drop_prob,
             "compose with fault injection: drop probability", kProbability)
      .Bool("--coalesce", &c.coalesce,
            "coalesced wire plane (frame packing, request combining; piggybacked acks with "
            "--fault-drop)")
      .Value("--barrier-arity", "N", &c.barrier_arity,
             "combining barrier tree of arity N (0 = flat)", Range<int>{0})
      .Bool("--stop-on-failure", &o->stop_on_failure, "stop a sweep at its first failing seed")
      .Value("--replay-seed", "N", &o->replay_seed, "run exactly one seed (requires --limit)",
             Range<uint64_t>{})
      .Marks(&o->replay)
      .Value("--limit", "N", &o->limit, "decision limit for --replay-seed", Range<uint64_t>{})
      .Marks(&o->limit_given)
      .Callback("--list", nullptr, "print litmus, protocol and mutation names",
                [](std::string_view) {
                  std::printf("litmus tests:");
                  for (const std::string& l : LitmusNames()) {
                    std::printf(" %s", l.c_str());
                  }
                  std::printf("\nprotocols: %s\nmutations: %s\n",
                              JoinNames<ProtocolKind>(kProtocolNames, " ").c_str(),
                              JoinNames<TestMutation>(kTestMutationNames, " ").c_str());
                  std::exit(0);
                  return std::string();
                });
}

std::string FinishCheckOptions(CheckOptions* o) {
  // --replay-seed and --limit only make sense as a pair: a replay without a
  // decision limit is not the minimized schedule svmcheck printed, and a
  // limit without a replay seed would silently run a full sweep.
  if (o->replay != o->limit_given) {
    return o->replay ? "--replay-seed requires --limit" : "--limit requires --replay-seed";
  }
  if (o->litmus.empty()) {
    o->litmus = LitmusNames();
  }
  if (o->protocols.empty()) {
    o->protocols = {ProtocolKind::kLrc, ProtocolKind::kErc, ProtocolKind::kHlrc,
                    ProtocolKind::kAurc};
  }
  const SimConfig sim = ToSimConfig(MakeCheckConfig(*o, o->litmus[0], o->protocols[0]));
  if (std::string why = ValidateConfig(sim); !why.empty()) {
    return why;
  }
  // Once per litmus, not per seed: RunOne is the sweep's hot loop.
  LitmusConfig lcfg;
  lcfg.nodes = o->base.nodes;
  lcfg.rounds = o->base.rounds;
  for (const std::string& name : o->litmus) {
    if (std::string why = ValidateWorkload(*MakeLitmus(name, lcfg), sim); !why.empty()) {
      return why;
    }
  }
  return "";
}

CheckConfig MakeCheckConfig(const CheckOptions& o, const std::string& litmus,
                            ProtocolKind protocol) {
  CheckConfig cfg = o.base;
  cfg.litmus = litmus;
  cfg.protocol = protocol;
  cfg.max_jitter = Micros(o.max_jitter_us);
  cfg.reliability.enabled = cfg.fault.drop_prob > 0;  // Drops need retransmission.
  return cfg;
}

}  // namespace hlrc
