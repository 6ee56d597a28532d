// Wall-clock throughput of the schedule-exploration checker (src/check):
// seeds/second per (litmus, protocol) pair. Not a paper table — this bounds
// how many schedules a CI budget can explore (docs/CHECKING.md).
//
//   check_throughput [--seeds=N] [--nodes=N] [--rounds=N]
#include <chrono>
#include <cstdio>
#include <string>

#include "src/apps/litmus.h"
#include "src/check/explorer.h"
#include "src/common/check.h"
#include "src/common/cli.h"

namespace hlrc {
namespace {

int Main(int argc, char** argv) {
  int seeds = 50;
  CheckConfig base;  // --nodes and --rounds bind here (defaults 4 and 3).
  FlagTable flags(ToolInfo{"check_throughput",
                           "Wall-clock throughput of the schedule-exploration checker:\n"
                           "seeds/second per (litmus, protocol) pair."});
  flags.Value("--seeds", "N", &seeds, "seeds per pair (default 50)", Range<int>{1})
      .Value("--nodes", "N", &base.nodes, "node count (default 4)", Range<int>{2, kMaxNodes})
      .Value("--rounds", "N", &base.rounds, "litmus rounds (default 3)", Range<int>{1});
  flags.ParseOrExit(argc, argv);
  if (const std::string why = ValidateConfig(ToSimConfig(base)); !why.empty()) {
    flags.UsageError(why);
  }

  const ProtocolKind kProtocols[] = {ProtocolKind::kLrc, ProtocolKind::kErc,
                                     ProtocolKind::kHlrc, ProtocolKind::kAurc};
  std::printf("%-22s %-6s %10s %12s %14s\n", "litmus", "proto", "seeds/s", "reads/seed",
              "sim-events/seed");
  double total_seeds = 0, total_secs = 0;
  for (const std::string& litmus : LitmusNames()) {
    for (ProtocolKind protocol : kProtocols) {
      CheckConfig cfg = base;
      cfg.litmus = litmus;
      cfg.protocol = protocol;
      int64_t reads = 0, events = 0;
      const auto start = std::chrono::steady_clock::now();
      for (int s = 0; s < seeds; ++s) {
        cfg.seed = static_cast<uint64_t>(s) + 1;
        const CheckResult r = RunOne(cfg);
        HLRC_CHECK_MSG(r.ok, "oracle violation during throughput bench");
        reads += r.reads_checked;
        events += r.events;
      }
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      std::printf("%-22s %-6s %10.0f %12lld %14lld\n", litmus.c_str(), ProtocolName(protocol),
                  seeds / secs, static_cast<long long>(reads / seeds),
                  static_cast<long long>(events / seeds));
      total_seeds += seeds;
      total_secs += secs;
    }
  }
  std::printf("overall: %.0f seeds/s\n", total_seeds / total_secs);
  return 0;
}

}  // namespace
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::Main(argc, argv); }
