// svmcheck — schedule-exploration driver for the consistency checker
// (src/check, docs/CHECKING.md).
//
// Sweeps seeded schedule perturbations of the litmus programs under the
// selected protocols, validating every shared read against the LRC oracle.
// On a violation it shrinks the failing schedule to the shortest chaos
// prefix that still fails and prints the (seed, decision-limit) pair that
// replays it.
//
//   svmcheck                                  # all litmus x all protocols
//   svmcheck --litmus=message-passing --protocols=hlrc --seeds=1000
//   svmcheck --mutation=hlrc-skip-diff-apply  # prove the oracle has teeth
//   svmcheck --replay-seed=17 --limit=42 --litmus=lock-handoff --protocols=lrc
//
// `svmcheck --help` lists the flags (declared in tools/tool_flags.cc).
//
// Exit status: 0 if every run satisfied the oracle, 1 otherwise, 2 on bad
// input.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/sim/sweep.h"
#include "tools/tool_flags.h"

namespace hlrc {
namespace {

void PrintViolations(const CheckResult& r) {
  for (const OracleViolation& v : r.violations) {
    std::printf("    violation: %s\n", v.description.c_str());
  }
}

void PrintTrace(const CheckResult& r, uint64_t limit) {
  std::printf("    decision trace (%llu chaos decisions%s):",
              static_cast<unsigned long long>(std::min(limit, r.decisions_used)),
              r.trace.size() < std::min<uint64_t>(limit, r.decisions_used) ? ", first shown"
                                                                           : "");
  uint64_t shown = 0;
  for (const ChaosDecision& d : r.trace) {
    if (d.index >= limit) {
      break;
    }
    std::printf(" %c:%llu", d.kind, static_cast<unsigned long long>(d.value));
    if (++shown >= 16) {
      std::printf(" ...");
      break;
    }
  }
  std::printf("\n");
}

int Replay(const CheckOptions& o) {
  int rc = 0;
  for (const std::string& litmus : o.litmus) {
    for (ProtocolKind protocol : o.protocols) {
      CheckConfig cfg = MakeCheckConfig(o, litmus, protocol);
      cfg.seed = o.replay_seed;
      cfg.decision_limit = o.limit;
      const CheckResult r = RunOne(cfg);
      std::printf("%-20s %-6s seed=%llu limit=%llu: %s (%lld reads, %lld writes, %llu decisions)\n",
                  litmus.c_str(), ProtocolName(protocol),
                  static_cast<unsigned long long>(o.replay_seed),
                  static_cast<unsigned long long>(o.limit), r.ok ? "ok" : "VIOLATION",
                  static_cast<long long>(r.reads_checked),
                  static_cast<long long>(r.writes_recorded),
                  static_cast<unsigned long long>(r.decisions_used));
      PrintTrace(r, o.limit);
      if (!r.ok) {
        PrintViolations(r);
        rc = 1;
      }
    }
  }
  return rc;
}

int Main(int argc, char** argv) {
  CheckOptions o;
  FlagTable flags(kCheckTool);
  AddCheckFlags(&flags, &o);
  flags.ParseOrExit(argc, argv);
  if (const std::string why = FinishCheckOptions(&o); !why.empty()) {
    flags.UsageError(why);
  }
  if (o.replay) {
    return Replay(o);
  }

  const int jobs = EffectiveJobs(o.jobs, o.seeds);
  const bool mutated = o.base.mutation != TestMutation::kNone;
  std::printf("svmcheck: %d seeds per pair, %d nodes, %d rounds, mutation=%s\n", o.seeds,
              o.base.nodes, o.base.rounds, TestMutationName(o.base.mutation));
  int total_failures = 0;
  int64_t total_reads = 0;
  for (const std::string& litmus : o.litmus) {
    for (ProtocolKind protocol : o.protocols) {
      const CheckConfig base = MakeCheckConfig(o, litmus, protocol);
      // Materialize the per-seed results, then aggregate and print with a
      // sequential scan in seed order — the report is byte-identical at any
      // job count. With --stop-on-failure on one job, the historical
      // streaming path avoids running seeds past the first failure; in
      // parallel every seed runs and the scan truncates instead.
      std::vector<CheckResult> results;
      if (jobs <= 1 && o.stop_on_failure) {
        for (int i = 0; i < o.seeds; ++i) {
          CheckConfig cfg = base;
          cfg.seed = o.first_seed + static_cast<uint64_t>(i);
          results.push_back(RunOne(cfg));
          if (!results.back().ok) {
            break;
          }
        }
      } else {
        results = ParallelMap<CheckResult>(o.seeds, jobs, [&base, &o](int i) {
          CheckConfig cfg = base;
          cfg.seed = o.first_seed + static_cast<uint64_t>(i);
          return RunOne(cfg);
        });
      }
      bool printed_failure = false;
      SweepResult sweep;
      for (size_t i = 0; i < results.size(); ++i) {
        const CheckResult& r = results[i];
        const uint64_t s = o.first_seed + static_cast<uint64_t>(i);
        ++sweep.runs;
        sweep.reads_checked += r.reads_checked;
        sweep.writes_recorded += r.writes_recorded;
        if (!r.ok) {
          ++sweep.failures;
          if (!sweep.found_failure) {
            sweep.found_failure = true;
            sweep.first_failing_seed = s;
          }
          if (!printed_failure) {
            printed_failure = true;
            std::printf("%-20s %-6s seed=%llu: VIOLATION — minimizing...\n", litmus.c_str(),
                        ProtocolName(protocol), static_cast<unsigned long long>(s));
            CheckConfig failing = base;
            failing.seed = s;
            const MinimizedSchedule min = Minimize(failing);
            std::printf("  reproduce: svmcheck --replay-seed=%llu --limit=%llu "
                        "--litmus=%s --protocols=%s --nodes=%d --rounds=%d%s%s\n",
                        static_cast<unsigned long long>(s),
                        static_cast<unsigned long long>(min.config.decision_limit),
                        litmus.c_str(), NameOf(kProtocolNames, protocol), o.base.nodes,
                        o.base.rounds, mutated ? " --mutation=" : "",
                        mutated ? TestMutationName(o.base.mutation) : "");
            PrintTrace(min.result, min.config.decision_limit);
            PrintViolations(min.result);
          }
          if (o.stop_on_failure) {
            break;
          }
        }
      }
      std::printf("%-20s %-6s: %d seeds, %d violation%s, %lld reads checked\n",
                  litmus.c_str(), ProtocolName(protocol), sweep.runs, sweep.failures,
                  sweep.failures == 1 ? "" : "s", static_cast<long long>(sweep.reads_checked));
      total_failures += sweep.failures;
      total_reads += sweep.reads_checked;
    }
  }
  std::printf("total: %lld reads checked, %d violating run%s\n",
              static_cast<long long>(total_reads), total_failures,
              total_failures == 1 ? "" : "s");
  return total_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::Main(argc, argv); }
