// Seeded synthetic workload generator.
//
// Produces parameterized sharing patterns in the same record-stream form as
// recorded traces, so every consumer (trace files, replay, stats) treats
// recorded and synthetic workloads identically. Generation is a pure
// function of SynthConfig: the same config (seed included) yields a
// byte-identical workload, which makes synthetic traces reproducible
// protocol benchmarks (docs/WORKLOADS.md).
//
// The patterns cover the sharing regimes the SVM literature exercises:
//   single-writer — each node writes only its own page block; readers pull
//                   neighbor blocks (coarse-grain, no write sharing)
//   migratory     — a lock-protected object read+written by every node in
//                   turn (data migrates with the lock)
//   prodcons      — producer/consumer hand-off through per-node buffers
//                   with a barrier between produce and consume halves
//   false-sharing — nodes store to disjoint byte slices of the same pages
//   hotspot       — all nodes hammer a region homed on node 0
//   read-mostly   — node 0 updates a table; everyone else only reads it
#ifndef SRC_WKLD_SYNTH_H_
#define SRC_WKLD_SYNTH_H_

#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/wkld/trace_file.h"
#include "src/wkld/workload.h"

namespace hlrc {
namespace wkld {

enum class SynthPattern {
  kSingleWriter,
  kMigratory,
  kProducerConsumer,
  kFalseSharing,
  kHotspot,
  kReadMostly,
};

// Short names as used in CLI flags and app names: "single-writer",
// "migratory", "prodcons", "false-sharing", "hotspot", "read-mostly".
const std::vector<std::string>& SynthPatternNames();
const char* SynthPatternName(SynthPattern pattern);
bool ParseSynthPattern(const std::string& name, SynthPattern* pattern);

struct SynthConfig {
  SynthPattern pattern = SynthPattern::kSingleWriter;
  int nodes = 8;
  int64_t page_size = 4096;
  int64_t shared_bytes = 64ll << 20;  // Echoed into trace headers.
  int pages_per_node = 4;             // Arena block per node.
  int iterations = 8;                 // Outer (barrier-delimited) rounds.
  int ops_per_iter = 16;              // Accesses per node per round.
  double write_frac = 0.5;            // P(an access is a write).
  double locality = 0.8;              // P(an access stays in the node's block).
  int64_t compute_ns = 2000;          // Mean compute charged between accesses.
  uint64_t seed = 42;
};

// Why the generator cannot produce a replayable trace for `cfg` (counts out
// of range, pages under 256 B or not a multiple of 16, a false-sharing slice
// under 16 B, an arena larger than shared_bytes), or empty when it can.
std::string ValidateSynthConfig(const SynthConfig& cfg);

// Emits the workload for `cfg` into `sink`: one arena allocation followed
// by one record stream per node (terminated by kEnd).
void GenerateSynthetic(const SynthConfig& cfg, WorkloadSink* sink);

// Generates and writes a complete trace file for `cfg`.
void WriteSyntheticTrace(const std::string& path, const SynthConfig& cfg);

// Synthetic workloads as Apps ("synth-<pattern>", registered with
// AppRegistrar): generation happens at Setup time against the actual
// system config, so node count / page size sweeps work — unlike file-trace
// replay, which is pinned to its recorded topology.
std::unique_ptr<App> MakeSyntheticApp(const SynthConfig& cfg);

}  // namespace wkld
}  // namespace hlrc

#endif  // SRC_WKLD_SYNTH_H_
