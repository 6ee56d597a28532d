// Domain scenario: a dynamic work-stealing task farm over shared memory —
// the irregular, lock-heavy access pattern of the paper's Raytrace.
//
// A shared queue of "jobs" (integration subintervals of a function) is
// consumed by all nodes with lock-protected pops; partial results are
// accumulated into a shared array slot per node and reduced at the end.
// Shows: locks with real contention, fine-grained false sharing (all result
// slots live on one page), and how to read the per-node breakdown report.
//
// Build & run:  ./build/examples/task_queue [--nodes=N] [--jobs=N]
#include <cmath>
#include <cstdio>
#include <string>

#include "src/common/cli.h"
#include "src/svm/system.h"

using namespace hlrc;

namespace {

// The function whose integral the farm computes.
double F(double x) { return 4.0 / (1.0 + x * x); }  // Integral over [0,1] = pi.

}  // namespace

int main(int argc, char** argv) {
  int nodes = 8;
  int jobs = 256;
  FlagTable flags(ToolInfo{"task_queue", "A lock-protected task farm integrating pi."});
  flags.Value("--nodes", "N", &nodes, "node count (default 8)", Range<int>{1, kMaxNodes})
      .Value("--jobs", "N", &jobs, "jobs in the shared queue (default 256)", Range<int>{1});
  flags.ParseOrExit(argc, argv);
  constexpr int kSamplesPerJob = 2000;

  SimConfig config;
  config.nodes = nodes;
  config.protocol.kind = ProtocolKind::kOhlrc;
  if (const std::string why = ValidateConfig(config); !why.empty()) {
    flags.UsageError(why);
  }
  System system(config);

  // Shared state: queue head index + per-node partial sums (false sharing:
  // all slots on one page, like Raytrace's image plane).
  const GlobalAddr head = system.space().AllocPageAligned(sizeof(int64_t));
  const GlobalAddr partial = system.space().AllocPageAligned(nodes * sizeof(double));

  system.Run([&](NodeContext& ctx) -> Task<void> {
    const int me = ctx.id();
    if (me == 0) {
      const std::vector<NodeContext::Range> init = {
          {head, sizeof(int64_t), true},
          {partial, nodes * static_cast<int64_t>(sizeof(double)), true}};
      co_await ctx.Access(init);
      *ctx.Ptr<int64_t>(head) = 0;
      for (int n = 0; n < ctx.nodes(); ++n) {
        ctx.Ptr<double>(partial)[n] = 0.0;
      }
    }
    co_await ctx.Barrier(0);

    double local = 0.0;
    int64_t taken = 0;
    while (true) {
      // Pop the next job index under the queue lock.
      co_await ctx.Lock(1);
      co_await ctx.Write(head, sizeof(int64_t));
      int64_t* h = ctx.Ptr<int64_t>(head);
      const int64_t job = *h < jobs ? (*h)++ : -1;
      co_await ctx.Unlock(1);
      if (job < 0) {
        break;
      }
      ++taken;

      // Integrate F over this job's subinterval (real math, charged time).
      const double lo = static_cast<double>(job) / jobs;
      const double hi = static_cast<double>(job + 1) / jobs;
      double sum = 0.0;
      for (int s = 0; s < kSamplesPerJob; ++s) {
        const double x = lo + (hi - lo) * (s + 0.5) / kSamplesPerJob;
        sum += F(x);
      }
      local += sum * (hi - lo) / kSamplesPerJob;
      co_await ctx.ComputeFlops(kSamplesPerJob * 6);
    }

    // Publish the partial result (own slot; the page is falsely shared).
    co_await ctx.Write(partial + static_cast<GlobalAddr>(me) * sizeof(double),
                       sizeof(double));
    ctx.Ptr<double>(partial)[me] = local;
    co_await ctx.Barrier(1);

    if (me == 0) {
      co_await ctx.Read(partial, ctx.nodes() * sizeof(double));
      double pi = 0.0;
      for (int n = 0; n < ctx.nodes(); ++n) {
        pi += ctx.Ptr<double>(partial)[n];
      }
      std::printf("pi ~= %.9f (error %.2e), %d jobs across %d nodes\n", pi,
                  std::fabs(pi - M_PI), jobs, ctx.nodes());
    }
    std::printf("  node %2d took %lld jobs\n", me, static_cast<long long>(taken));
  });

  std::printf("\nPer-node time breakdown (paper Figure 3 categories):\n");
  for (const NodeReport& n : system.report().nodes) {
    std::printf(
        "  node %2zu: compute %6.2fms  data %6.2fms  lock %6.2fms  barrier %6.2fms  "
        "proto %5.2fms\n",
        static_cast<size_t>(&n - system.report().nodes.data()), ToMillis(n.Computation()),
        ToMillis(n.DataTransfer()), ToMillis(n.LockTime()), ToMillis(n.BarrierTime()),
        ToMillis(n.ProtocolOverhead()));
  }
  return 0;
}
