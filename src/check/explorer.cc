#include "src/check/explorer.h"

#include <algorithm>
#include <utility>

#include "src/apps/litmus.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/sim/sweep.h"
#include "src/svm/system.h"

namespace hlrc {
namespace {

constexpr size_t kTraceCap = 64;

// The seeded chaos decision stream feeding both engine hooks. Decisions past
// `limit` return the deterministic defaults without consuming the Rng, so a
// (seed, limit) pair identifies a schedule exactly.
class Chaos {
 public:
  Chaos(uint64_t seed, SimTime max_jitter, uint64_t limit)
      : rng_(seed ^ 0xc2b2ae3d27d4eb4fULL), max_jitter_(max_jitter), limit_(limit) {}

  uint64_t Tiebreak() {
    if (count_ >= limit_) {
      ++count_;
      return 0;
    }
    const uint64_t v = rng_.NextU64();
    Record('T', v);
    return v;
  }

  SimTime Jitter() {
    if (count_ >= limit_) {
      ++count_;
      return 0;
    }
    const uint64_t v = rng_.NextBounded(static_cast<uint64_t>(max_jitter_) + 1);
    Record('J', v);
    return static_cast<SimTime>(v);
  }

  uint64_t count() const { return count_; }
  std::vector<ChaosDecision> trace() && { return std::move(trace_); }

 private:
  void Record(char kind, uint64_t value) {
    if (trace_.size() < kTraceCap) {
      trace_.push_back(ChaosDecision{count_, kind, value});
    }
    ++count_;
  }

  Rng rng_;
  SimTime max_jitter_;
  uint64_t limit_;
  uint64_t count_ = 0;
  std::vector<ChaosDecision> trace_;
};

}  // namespace

SimConfig ToSimConfig(const CheckConfig& config) {
  SimConfig sim;
  sim.nodes = config.nodes;
  sim.page_size = config.page_size;
  sim.shared_bytes = config.shared_bytes;
  sim.seed = config.seed;
  sim.protocol.kind = config.protocol;
  sim.protocol.mutation = config.mutation;
  sim.fault = config.fault;
  if (sim.fault.Active() && sim.fault.seed == 0) {
    // Derive the injector's seed from the run seed so every explored seed
    // also explores a different loss pattern.
    sim.fault.seed = Rng(config.seed).NextU64();
  }
  sim.reliability = config.reliability;
  ApplyDeliveryOptions(&sim, config.reliability.enabled, config.coalesce);
  sim.protocol.barrier_arity = config.barrier_arity;
  return sim;
}

CheckResult RunOne(const CheckConfig& config) {
  const SimConfig sim = ToSimConfig(config);

  LitmusConfig lcfg;
  lcfg.nodes = config.nodes;
  lcfg.rounds = config.rounds;
  lcfg.seed = config.seed;
  std::unique_ptr<LitmusTest> litmus = MakeLitmus(config.litmus, lcfg);

  System sys(sim);
  litmus->Setup(sys);

  LrcOracle oracle(config.nodes);
  sys.SetAccessObserver(&oracle);

  Chaos chaos(config.seed, config.max_jitter, config.decision_limit);
  if (config.permute_tasks) {
    sys.engine().SetTieBreaker([&chaos] { return chaos.Tiebreak(); });
  }
  if (config.max_jitter > 0) {
    sys.network().SetDeliveryJitterHook(
        [&chaos](NodeId, NodeId, MsgType) { return chaos.Jitter(); });
  }

  sys.Run(litmus->Program());

  CheckResult result;
  result.ok = oracle.ok();
  result.violations = oracle.violations();
  result.decisions_used = chaos.count();
  result.trace = std::move(chaos).trace();
  result.reads_checked = oracle.reads_checked();
  result.writes_recorded = oracle.writes_recorded();
  result.sim_time = sys.report().total_time;
  result.events = sys.engine().events_processed();
  return result;
}

SweepResult Sweep(const CheckConfig& base, uint64_t first_seed, int seeds,
                  const std::function<void(uint64_t, const CheckResult&)>& on_failure,
                  int jobs) {
  SweepResult sweep;
  if (seeds <= 0) {
    return sweep;
  }
  const std::vector<CheckResult> results = ParallelMap<CheckResult>(
      seeds, jobs, [&base, first_seed](int i) {
        CheckConfig cfg = base;
        cfg.seed = first_seed + static_cast<uint64_t>(i);
        return RunOne(cfg);
      });
  // Aggregation (and failure reporting) walks results in seed order, so the
  // outcome is byte-identical to the historical serial loop.
  for (int i = 0; i < seeds; ++i) {
    const CheckResult& r = results[static_cast<size_t>(i)];
    const uint64_t seed = first_seed + static_cast<uint64_t>(i);
    ++sweep.runs;
    sweep.reads_checked += r.reads_checked;
    sweep.writes_recorded += r.writes_recorded;
    if (!r.ok) {
      ++sweep.failures;
      if (!sweep.found_failure) {
        sweep.found_failure = true;
        sweep.first_failing_seed = seed;
      }
      if (on_failure) {
        on_failure(seed, r);
      }
    }
  }
  return sweep;
}

MinimizedSchedule Minimize(const CheckConfig& failing) {
  CheckConfig cfg = failing;
  CheckResult full = RunOne(cfg);
  if (full.ok) {
    // Not reproducible under this config — return the (passing) run and let
    // the caller report it.
    return MinimizedSchedule{cfg, std::move(full)};
  }

  cfg.decision_limit = 0;
  CheckResult at_zero = RunOne(cfg);
  if (!at_zero.ok) {
    // Fails with no chaos at all (typically a seeded mutation).
    return MinimizedSchedule{cfg, std::move(at_zero)};
  }

  // Invariant: fails at `hi`, passes at `lo`. Failure is not monotone in the
  // prefix length, but the search still lands on a boundary where limit L
  // fails and L-1 passes — a minimal reproducible prefix.
  uint64_t lo = 0;
  uint64_t hi = std::min(failing.decision_limit, full.decisions_used);
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    cfg.decision_limit = mid;
    if (RunOne(cfg).ok) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  cfg.decision_limit = hi;
  CheckResult minimized = RunOne(cfg);
  HLRC_CHECK(!minimized.ok);
  return MinimizedSchedule{cfg, std::move(minimized)};
}

}  // namespace hlrc
