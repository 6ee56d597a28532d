// Deterministic parallel sweep driver.
//
// A seed sweep (svmcheck), a bench table, or a parameter scan runs many
// independent simulations — each task builds its own System with its own
// Engine, so tasks share no mutable state and any interleaving of workers
// produces the same per-task results. This runner exploits that: tasks are
// handed out dynamically to a small thread pool, each task writes its result
// into index-addressed storage, and callers consume results in index order —
// so reports are byte-identical to a serial run at any job count
// (tests/test_golden_determinism.cc pins this for svmcheck).
//
// This is multi-process-of-engines parallelism, not a parallel engine: one
// simulation is still single-threaded and bit-for-bit deterministic.
#ifndef SRC_SIM_SWEEP_H_
#define SRC_SIM_SWEEP_H_

#include <functional>
#include <vector>

namespace hlrc {

// Largest --jobs the front ends accept (0 = hardware concurrency).
inline constexpr int kMaxJobs = 1024;

// Worker threads actually used for `tasks` tasks when the user asked for
// `requested` jobs: 0 (or negative) means hardware concurrency; the result is
// clamped to [1, tasks].
int EffectiveJobs(int requested, int tasks);

// Runs fn(i) for every i in [0, count), distributing indices dynamically over
// up to `jobs` worker threads. With jobs <= 1 (or count <= 1) the tasks run
// inline on the calling thread in index order — no threads are spawned, so a
// --jobs=1 run is exactly the historical serial execution. fn must be safe to
// call concurrently for distinct indices and must not throw; a failed
// HLRC_CHECK aborts the whole process as usual.
void ParallelFor(int count, int jobs, const std::function<void(int)>& fn);

// Convenience: materializes fn(i) for every index, in index order. R must be
// default-constructible and movable.
template <typename R>
std::vector<R> ParallelMap(int count, int jobs, const std::function<R(int)>& fn) {
  std::vector<R> out(static_cast<size_t>(count > 0 ? count : 0));
  ParallelFor(count, jobs, [&](int i) { out[static_cast<size_t>(i)] = fn(i); });
  return out;
}

}  // namespace hlrc

#endif  // SRC_SIM_SWEEP_H_
