// Reproduces paper Table 3: costs of basic operations on the (simulated)
// Paragon, plus the derived minimum page-miss and lock-acquire costs from
// §4.3. Additionally uses google-benchmark to measure the *real* twin and
// diff create/apply kernels on this host, for comparison with the modelled
// costs.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/mem/diff.h"
#include "src/net/network.h"
#include "src/proto/cost_model.h"

namespace hlrc {
namespace {

constexpr int64_t kPage = 8192;  // The Paragon's OS page size.

void PrintModelTables() {
  const CostModel costs;
  const NetworkConfig net;

  Table t3("=== Table 3: Timings for basic operations (model, 8 KB page) ===");
  t3.SetHeader({"Operation", "Time (us)"});
  t3.AddRow({"Message latency (one way)", Table::Fmt(ToMicros(net.base_latency), 0)});
  t3.AddRow({"Page transfer (8 KB)", Table::Fmt(ToMicros(kPage * net.per_byte), 0)});
  t3.AddRow({"Receive interrupt", Table::Fmt(ToMicros(costs.receive_interrupt), 0)});
  t3.AddRow({"Twin copy", Table::Fmt(ToMicros(costs.TwinCost(kPage)), 0)});
  t3.AddRow({"Diff creation", Table::Fmt(ToMicros(costs.DiffCreateCost(kPage, 0)), 0) + "-" +
                                  Table::Fmt(ToMicros(costs.DiffCreateCost(kPage, kPage)), 0)});
  t3.AddRow({"Diff application", "0-" + Table::Fmt(ToMicros(costs.DiffApplyCost(kPage)), 0)});
  t3.AddRow({"Page fault", Table::Fmt(ToMicros(costs.page_fault), 0)});
  t3.AddRow({"Page invalidation", Table::Fmt(ToMicros(costs.page_invalidate), 0)});
  t3.AddRow({"Page protection", Table::Fmt(ToMicros(costs.page_protect), 0)});
  t3.Print();

  // Derived quantities from §4.3.
  const double lat = ToMicros(net.base_latency);
  const double interrupt = ToMicros(costs.receive_interrupt);
  const double xfer = ToMicros(kPage * net.per_byte);
  const double fault = ToMicros(costs.page_fault);
  const double diff1 = ToMicros(costs.DiffCreateCost(kPage, 8));

  Table t3b("\n=== Derived minimum costs (paper §4.3) ===");
  t3b.SetHeader({"Operation", "Model (us)", "Paper (us)"});
  t3b.AddRow({"HLRC page miss (non-overlapped)",
              Table::Fmt(fault + lat + interrupt + xfer + lat, 0), "1172"});
  t3b.AddRow({"HLRC page miss (overlapped)", Table::Fmt(fault + lat + xfer + lat, 0), "482"});
  t3b.AddRow({"LRC single-word-diff miss (non-overlapped)",
              Table::Fmt(fault + lat + interrupt + diff1 + lat, 0), "~1130"});
  t3b.AddRow({"LRC single-word-diff miss (overlapped)",
              Table::Fmt(fault + lat + diff1 + lat, 0), "440"});
  t3b.AddRow({"Remote lock acquire (via manager)", Table::Fmt(3 * lat + 2 * interrupt, 0),
              "~1550"});
  t3b.AddRow({"Remote lock acquire (co-processor, hypothetical)", Table::Fmt(3 * lat, 0),
              "150"});
  t3b.Print();
  std::printf("\n--- Real host kernel timings (google-benchmark) ---\n");
}

// ---------------------------------------------------------------------------
// Real kernel micro-benchmarks on the host.

void BM_TwinCopy(benchmark::State& state) {
  std::vector<std::byte> src(kPage, std::byte{1});
  std::vector<std::byte> dst(kPage);
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), kPage);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPage);
}
BENCHMARK(BM_TwinCopy);

// The first argument picks the kernel: 0 times the optimized CreateDiff, 1
// the word-at-a-time CreateDiffReference it replaced (the differential oracle
// of test_diff_fast), so each dirty-word count reports both side by side.
void BM_DiffCreate(benchmark::State& state) {
  const bool reference = state.range(0) != 0;
  const int64_t dirty_words = state.range(1);
  std::vector<std::byte> twin(kPage, std::byte{0});
  std::vector<std::byte> cur = twin;
  Rng rng(7);
  for (int64_t i = 0; i < dirty_words; ++i) {
    cur[rng.NextBounded(kPage / 8) * 8] = std::byte{0xff};
  }
  const auto kernel = reference ? CreateDiffReference : CreateDiff;
  for (auto _ : state) {
    Diff d = kernel(0, twin.data(), cur.data(), kPage, 8);
    benchmark::DoNotOptimize(d);
  }
  state.SetLabel(reference ? "CreateDiffReference" : "CreateDiff");
}
BENCHMARK(BM_DiffCreate)
    ->ArgsProduct({{0, 1}, {0, 16, 256, 1024}})
    ->ArgNames({"reference", "dirty_words"});

void BM_DiffApply(benchmark::State& state) {
  const int64_t dirty_words = state.range(0);
  std::vector<std::byte> twin(kPage, std::byte{0});
  std::vector<std::byte> cur = twin;
  Rng rng(7);
  for (int64_t i = 0; i < dirty_words; ++i) {
    cur[rng.NextBounded(kPage / 8) * 8] = std::byte{0xff};
  }
  const Diff d = CreateDiff(0, twin.data(), cur.data(), kPage, 8);
  std::vector<std::byte> target = twin;
  for (auto _ : state) {
    ApplyDiff(d, target.data(), kPage);
    benchmark::DoNotOptimize(target.data());
  }
}
BENCHMARK(BM_DiffApply)->Arg(16)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace hlrc

int main(int argc, char** argv) {
  hlrc::PrintModelTables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
