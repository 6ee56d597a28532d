// Fuzzer input genomes and mutation operators (docs/FUZZING.md).
//
// A fuzz input is a pair of genomes:
//
//   * WorkloadGenome — a synthetic-workload record stream (src/wkld) carved
//     down to the protocol-relevant skeleton: compute charges, access
//     grants, and the synchronization sequence. The harness performs its own
//     stores with globally unique values, so kWrites records are stripped at
//     seed time and never mutated.
//   * ScheduleGenome — the chaos-decision string feeding the engine
//     tie-breaker and the network delivery-jitter hook (src/check/explorer
//     semantics): decision i < prefix.size() is pinned to prefix[i], later
//     decisions continue from the seeded Rng. Prefix-preserving mutations
//     perturb a single decision while replaying everything before it.
//
// Mutations preserve run liveness by construction: only non-sync records
// (compute/access/phase) are spliced, truncated or retargeted, and lock ids
// are remapped globally, so the per-node barrier sequences and lock pairing
// that System::Run's deadlock detector enforces stay intact.
#ifndef SRC_FUZZ_GENOME_H_
#define SRC_FUZZ_GENOME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/wkld/synth.h"
#include "src/wkld/workload.h"

namespace hlrc {
namespace fuzz {

struct WorkloadGenome {
  int nodes = 0;
  int64_t page_size = 0;
  int64_t shared_bytes = 0;
  std::vector<wkld::AllocEntry> allocs;
  // One record stream per node, each terminated by kEnd; kWrites never
  // appears (see header comment).
  std::vector<std::vector<wkld::Record>> streams;
  std::string origin;  // Provenance for reports ("synth-migratory", ...).
};

struct ScheduleGenome {
  uint64_t seed = 1;
  SimTime max_jitter = 0;
  std::vector<uint64_t> prefix;  // Pinned decisions; raw 64-bit draws.
};

struct FuzzInput {
  WorkloadGenome workload;
  ScheduleGenome schedule;
};

// Builds a seed genome from one synthetic sharing pattern at fuzzing scale
// (tiny record streams; the schedule explores, the workload only has to
// reach the interesting protocol states).
WorkloadGenome SeedWorkload(wkld::SynthPattern pattern, int nodes, int64_t page_size,
                            int64_t shared_bytes, uint64_t seed);

// Why SeedWorkload cannot seed every synthetic pattern on this machine
// (wkld::ValidateSynthConfig), or "". Front ends check it before a session.
std::string ValidateSeedMachine(int nodes, int64_t page_size, int64_t shared_bytes);

// Applies 1-3 randomly chosen workload mutation operators:
// splice / truncate (non-sync record runs), retarget-page (shift an access
// range by whole pages), permute-locks (global lock-id remap), flip-intent
// (read<->write), compute-jitter, access-resize.
WorkloadGenome MutateWorkload(const WorkloadGenome& parent, Rng* rng);

// Applies one schedule mutation operator: reseed, extend-prefix,
// perturb-prefix or truncate-prefix.
ScheduleGenome MutateSchedule(const ScheduleGenome& parent, Rng* rng);

// Structural hash of an input (streams + allocs + schedule), for corpus
// dedup of byte-identical inputs.
uint64_t HashInput(const FuzzInput& input);

}  // namespace fuzz
}  // namespace hlrc

#endif  // SRC_FUZZ_GENOME_H_
