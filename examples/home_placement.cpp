// Domain scenario: producer/consumer pipelines and the home effect.
//
// A ring of nodes: each node repeatedly writes a block that its right
// neighbor reads in the next phase. Under HLRC the placement of the block's
// home decides whether updates travel zero, one or two network hops — the
// "home effect" of paper §4.4. This example measures all three placements.
//
// Build & run:  ./build/examples/home_placement [--nodes=N]
#include <cstdio>
#include <string>

#include "src/common/cli.h"
#include "src/common/table.h"
#include "src/svm/system.h"

using namespace hlrc;

namespace {

constexpr int kBlockBytes = 16 << 10;
constexpr int kPhases = 12;

}  // namespace

int main(int argc, char** argv) {
  int nodes = 8;
  FlagTable flags(ToolInfo{"home_placement", "Producer/consumer ring under three home policies."});
  flags.Value("--nodes", "N", &nodes, "node count (default 8)", Range<int>{1, kMaxNodes});
  flags.ParseOrExit(argc, argv);
  SimConfig base;
  base.nodes = nodes;
  base.protocol.kind = ProtocolKind::kHlrc;
  if (const std::string why = ValidateConfig(base); !why.empty()) {
    flags.UsageError(why);
  }

  Table table("Producer/consumer ring, " + std::to_string(nodes) + " nodes");
  table.SetHeader({"Home policy", "Time (ms)", "Page fetches", "Diff flushes (msgs)",
                   "Update bytes"});

  for (HomePolicy policy :
       {HomePolicy::kBlock, HomePolicy::kRoundRobin, HomePolicy::kSingleNode}) {
    SimConfig config = base;
    config.protocol.home_policy = policy;
    System system(config);
    const GlobalAddr blocks =
        system.space().AllocPageAligned(static_cast<int64_t>(nodes) * kBlockBytes);

    system.Run([&](NodeContext& ctx) -> Task<void> {
      const int me = ctx.id();
      const GlobalAddr mine = blocks + static_cast<GlobalAddr>(me) * kBlockBytes;
      const GlobalAddr left =
          blocks + static_cast<GlobalAddr>((me + ctx.nodes() - 1) % ctx.nodes()) * kBlockBytes;
      for (int phase = 0; phase < kPhases; ++phase) {
        // Produce into the own block (consumed by the right neighbor).
        co_await ctx.Write(mine, kBlockBytes);
        int64_t* data = ctx.Ptr<int64_t>(mine);
        for (int i = 0; i < kBlockBytes / 8; i += 8) {
          data[i] = phase * 1000 + me;
        }
        co_await ctx.ComputeFlops(kBlockBytes / 8);
        co_await ctx.Barrier(0);
        // Consume the left neighbor's block.
        co_await ctx.Read(left, kBlockBytes);
        const int64_t* in = ctx.Ptr<int64_t>(left);
        int64_t sum = 0;
        for (int i = 0; i < kBlockBytes / 8; i += 8) {
          sum += in[i];
        }
        co_await ctx.ComputeFlops(kBlockBytes / 8);
        co_await ctx.Barrier(1);
      }
    });

    const NodeReport totals = system.report().Totals();
    table.AddRow({HomePolicyName(policy), Table::Fmt(ToMillis(system.report().total_time), 2),
                  Table::Fmt(totals.proto.page_fetches),
                  Table::Fmt(totals.proto.diffs_created),
                  Table::FmtBytes(totals.traffic.update_bytes_sent)});
  }
  table.Print();
  std::printf(
      "\nblock: each producer IS its block's home — no diffs, consumers fetch one hop.\n"
      "round-robin/single-node: updates are flushed to a third-party home first, then\n"
      "fetched — twice the update traffic, and single-node homes are also a hot spot.\n");
  return 0;
}
