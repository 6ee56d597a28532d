// Protocol comparison on a heat-diffusion stencil (the workload class the
// paper's introduction motivates: iterative scientific kernels on a network
// of computers).
//
// Runs the same 2-D Jacobi stencil under LRC, OLRC, HLRC and OHLRC and prints
// execution time, message counts, traffic and protocol memory side by side —
// a miniature of the paper's whole evaluation.
//
// Build & run:  ./build/examples/protocol_comparison [--nodes=N]
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/cli.h"
#include "src/common/table.h"
#include "src/svm/system.h"

using namespace hlrc;

namespace {

constexpr int kRows = 256;
constexpr int kCols = 256;
constexpr int kIters = 8;

Task<void> Stencil(NodeContext& ctx, GlobalAddr grid_a, GlobalAddr grid_b) {
  const int nodes = ctx.nodes();
  const int me = ctx.id();
  const int per = kRows / nodes;
  const int first = me * per;
  const int64_t row_bytes = kCols * 8;

  if (me == 0) {
    co_await ctx.Write(grid_a, kRows * row_bytes);
    double* a = ctx.Ptr<double>(grid_a);
    uint64_t state = 42;
    for (int i = 0; i < kRows * kCols; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      a[i] = static_cast<double>(state >> 40) / 16777216.0 * 100.0;
    }
  }
  co_await ctx.Barrier(0);

  GlobalAddr src = grid_a;
  GlobalAddr dst = grid_b;
  for (int it = 0; it < kIters; ++it) {
    const int rfirst = std::max(first - 1, 0);
    const int rlast = std::min(first + per, kRows - 1);
    const std::vector<NodeContext::Range> ranges = {
        {src + static_cast<GlobalAddr>(rfirst) * row_bytes,
         (rlast - rfirst + 1) * row_bytes, false},
        {dst + static_cast<GlobalAddr>(first) * row_bytes, per * row_bytes, true}};
    co_await ctx.Access(ranges);
    const double* s = ctx.Ptr<double>(src);
    double* d = ctx.Ptr<double>(dst);
    for (int i = first; i < first + per; ++i) {
      for (int j = 0; j < kCols; ++j) {
        const double up = i > 0 ? s[(i - 1) * kCols + j] : s[i * kCols + j];
        const double down = i < kRows - 1 ? s[(i + 1) * kCols + j] : s[i * kCols + j];
        const double left = j > 0 ? s[i * kCols + j - 1] : s[i * kCols + j];
        const double right = j < kCols - 1 ? s[i * kCols + j + 1] : s[i * kCols + j];
        d[i * kCols + j] = 0.25 * (up + down + left + right);
      }
    }
    co_await ctx.ComputeFlops(4ll * per * kCols);
    co_await ctx.Barrier(1);
    std::swap(src, dst);
  }
}

}  // namespace

int main(int argc, char** argv) {
  int nodes = 16;
  FlagTable flags(ToolInfo{"protocol_comparison", "Heat-diffusion stencil, six protocols."});
  // Each node owns at least one grid row.
  flags.Value("--nodes", "N", &nodes, "node count (default 16)", Range<int>{1, kRows});
  flags.ParseOrExit(argc, argv);
  SimConfig base;
  base.nodes = nodes;
  if (const std::string why = ValidateConfig(base); !why.empty()) {
    flags.UsageError(why);
  }

  Table table("Heat-diffusion stencil, " + std::to_string(nodes) + " nodes, " +
              std::to_string(kRows) + "x" + std::to_string(kCols));
  table.SetHeader({"Protocol", "Time (ms)", "Messages", "Update bytes", "Protocol bytes",
                   "Proto mem (max/node)"});

  for (ProtocolKind kind : {ProtocolKind::kErc, ProtocolKind::kLrc, ProtocolKind::kOlrc,
                            ProtocolKind::kHlrc, ProtocolKind::kOhlrc, ProtocolKind::kAurc}) {
    SimConfig config = base;
    config.protocol.kind = kind;
    System system(config);
    const GlobalAddr grid_a = system.space().AllocPageAligned(kRows * kCols * 8);
    const GlobalAddr grid_b = system.space().AllocPageAligned(kRows * kCols * 8);
    system.Run(
        [&](NodeContext& ctx) -> Task<void> { return Stencil(ctx, grid_a, grid_b); });

    const NodeReport totals = system.report().Totals();
    int64_t max_mem = 0;
    for (const NodeReport& n : system.report().nodes) {
      max_mem = std::max(max_mem, n.proto_mem_highwater);
    }
    table.AddRow({ProtocolName(kind), Table::Fmt(ToMillis(system.report().total_time), 2),
                  Table::Fmt(totals.traffic.msgs_sent),
                  Table::FmtBytes(totals.traffic.update_bytes_sent),
                  Table::FmtBytes(totals.traffic.protocol_bytes_sent),
                  Table::FmtBytes(max_mem)});
  }
  table.Print();
  std::printf("\nExpected: the home-based protocols need fewer messages and far less\n"
              "protocol memory; overlapping removes the receive-interrupt cost.\n");
  return 0;
}
