// svmfuzz — coverage-guided protocol fuzzer (src/fuzz, docs/FUZZING.md).
//
// Mutates synthetic-workload genomes and chaos-schedule decision strings,
// guided by a protocol-state coverage map (message edges, page-protection
// transitions, sync epochs, fault decisions, interval sizes). Every shared
// read is validated online by the LRC oracle; coverage-novel inputs are
// additionally replayed under several protocol families and their final
// shared-memory images diffed. The first violation or divergence is
// minimized and written as a self-contained repro file.
//
//   svmfuzz --budget=10000 --seed=7
//   svmfuzz --mutation=hlrc-skip-diff-apply --repro-out=bug.repro
//   svmfuzz --repro=bug.repro                # replay a finding
//   svmfuzz --budget=2000 --cover-report     # coverage as a metric
//
// Exit status: 0 clean session (or reproducer confirmed), 1 violation or
// divergence found (or reproducer did not reproduce), 2 bad invocation.
#include <cstdio>
#include <filesystem>
#include <string>

#include "src/common/cli.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/repro.h"
#include "src/sim/sweep.h"

namespace hlrc {
namespace {

const ToolInfo kTool = {
    "svmfuzz",
    "Coverage-guided fuzzer for the SVM protocol families, with an LRC\n"
    "oracle on every shared read and differential cross-protocol replay\n"
    "of coverage-novel inputs.",
};

int ReplayFile(const std::string& path) {
  fuzz::ReproFile repro;
  std::string error;
  if (!fuzz::LoadReproFile(path, &repro, &error)) {
    std::fprintf(stderr, "svmfuzz: %s\n", error.c_str());
    return 2;
  }
  std::printf("svmfuzz: replaying %s (%s, %d nodes, origin %s)\n", path.c_str(),
              ProtocolName(repro.config.protocol), repro.input.workload.nodes,
              repro.input.workload.origin.c_str());
  const std::string violation = fuzz::ReplayRepro(repro);
  if (violation.empty()) {
    std::printf("svmfuzz: repro did NOT reproduce (run was clean)\n");
    if (!repro.violation.empty()) {
      std::printf("  recorded violation was: %s\n", repro.violation.c_str());
    }
    return 1;
  }
  std::printf("svmfuzz: reproduced: %s\n", violation.c_str());
  return 0;
}

bool WriteCorpus(const std::string& dir, const fuzz::Fuzzer& fuzzer,
                 const fuzz::FuzzConfig& cfg) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "svmfuzz: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return false;
  }
  int idx = 0;
  for (const fuzz::FuzzInput& input : fuzzer.corpus()) {
    fuzz::ReproFile entry;
    entry.input = input;
    entry.config.protocol = cfg.primary;
    entry.config.mutation = cfg.mutation;
    char name[64];
    std::snprintf(name, sizeof(name), "corpus-%04d.repro", idx++);
    std::string error;
    if (!fuzz::WriteReproFile(dir + "/" + name, entry, &error)) {
      std::fprintf(stderr, "svmfuzz: %s\n", error.c_str());
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  fuzz::FuzzConfig cfg;
  cfg.jobs = 0;  // EffectiveJobs resolves 0 to hardware concurrency.
  int64_t max_jitter_us = cfg.max_jitter / Micros(1);
  std::string corpus_out;
  std::string repro_out = "svmfuzz-failure.repro";
  std::string replay_path;
  bool cover_report = false;
  const OneOf<ProtocolKind> protocol{kProtocolNames};

  FlagTable flags(kTool);
  flags.Value("--budget", "N", &cfg.budget, "total harness executions (default 1000)",
              Range<int>{1})
      .Value("--seed", "N", &cfg.seed, "session seed (default 1)", Range<uint64_t>{})
      .Value("--jobs", "N", &cfg.jobs,
             "worker threads per batch (default 0 = hardware concurrency; results are "
             "--jobs independent)",
             Range<int>{0, kMaxJobs})
      .Value("--batch", "N", &cfg.batch, "mutants per batch (default 16)", Range<int>{1})
      .Value("--nodes", "N", &cfg.nodes, "simulated node count (default 4)",
             Range<int>{2, kMaxNodes})
      .Value("--page-size", "BYTES", &cfg.page_size, "SVM page size (default 512)",
             Range<int64_t>{1})
      .Value("--max-jitter-us", "N", &max_jitter_us,
             "max per-message delivery jitter (default 150)",
             Range<int64_t>{0, kMaxMicros})
      .Value("--primary", "NAME", &cfg.primary, "protocol fuzzed directly (default hlrc)",
             protocol)
      .List("--cross", "LIST", &cfg.cross,
            "differential protocol set (default lrc,erc,hlrc,aurc;\n"
            "first entry is the reference)",
            protocol)
      .Value("--mutation", "NAME", &cfg.mutation, "seeded protocol bug for canary sessions",
             OneOf<TestMutation>{kTestMutationNames})
      .Value("--fault-drop", "P", &cfg.fault_drop,
             "drop probability under every run (reliable\n"
             "delivery is enabled automatically)",
             kProbability)
      .Value("--fault-delay", "P", &cfg.fault_delay, "delay probability under every run",
             kProbability)
      .Bool("--no-feedback", &cfg.feedback, "disable corpus growth (uniform random control)",
            false)
      .Bool("--no-differential", &cfg.differential,
            "skip cross-protocol replay of novel inputs", false)
      .Value("--max-seconds", "S", &cfg.max_seconds,
             "wall-clock bound, checked between batches", Range<double>{0.0})
      .String("--corpus-out", "DIR", &corpus_out, "write the final corpus as repro files")
      .String("--repro-out", "FILE", &repro_out,
              "write the minimized failure repro here\n"
              "(default: svmfuzz-failure.repro)")
      .Bool("--cover-report", &cover_report, "print the per-domain coverage breakdown")
      .String("--repro", "FILE", &replay_path, "replay one repro file instead of fuzzing");
  flags.ParseOrExit(argc, argv);
  cfg.max_jitter = Micros(max_jitter_us);
  if (!replay_path.empty()) {
    return ReplayFile(replay_path);
  }
  // The machine every run simulates, checked once before the first run.
  SimConfig base;
  base.nodes = cfg.nodes;
  base.page_size = cfg.page_size;
  base.shared_bytes = cfg.shared_bytes;
  base.fault.drop_prob = cfg.fault_drop;
  base.fault.delay_prob = cfg.fault_delay;
  ApplyDeliveryOptions(&base, base.fault.Active(), /*coalesce=*/false);
  std::string why = ValidateConfig(base);
  if (why.empty()) {
    why = fuzz::ValidateSeedMachine(cfg.nodes, cfg.page_size, cfg.shared_bytes);
  }
  if (!why.empty()) {
    flags.UsageError(why);
  }
  cfg.jobs = EffectiveJobs(cfg.jobs, cfg.batch);

  std::printf("svmfuzz: seed=%llu budget=%d batch=%d jobs=%d primary=%s mutation=%s%s%s\n",
              static_cast<unsigned long long>(cfg.seed), cfg.budget, cfg.batch, cfg.jobs,
              ProtocolName(cfg.primary), TestMutationName(cfg.mutation),
              cfg.feedback ? "" : " (no feedback)",
              cfg.differential ? "" : " (no differential)");
  fuzz::Fuzzer fuzzer(cfg);
  const fuzz::FuzzResult result = fuzzer.Run();

  std::printf("svmfuzz: %d executions in %d batches, %d differential, corpus %d "
              "(%d coverage-novel), %zu coverage points / %lld hits\n",
              result.stats.executions, result.stats.batches,
              result.stats.differential_runs, result.stats.corpus_size,
              result.stats.novel_inputs, result.coverage_points,
              static_cast<long long>(result.coverage_hits));
  if (cover_report) {
    std::printf("%s", result.coverage_report.c_str());
  }
  if (!corpus_out.empty() && !WriteCorpus(corpus_out, fuzzer, cfg)) {
    return 2;
  }
  if (!result.found_failure) {
    std::printf("svmfuzz: no violation found\n");
    return 0;
  }
  std::printf("svmfuzz: VIOLATION: %s\n", result.violation.c_str());
  std::string error;
  if (!fuzz::WriteReproFile(repro_out, result.repro, &error)) {
    std::fprintf(stderr, "svmfuzz: %s\n", error.c_str());
  } else {
    std::printf("svmfuzz: minimized repro written to %s (replay: svmfuzz --repro=%s)\n",
                repro_out.c_str(), repro_out.c_str());
  }
  return 1;
}

}  // namespace
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::Main(argc, argv); }
