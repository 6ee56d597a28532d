// Top-level simulation configuration.
#ifndef SRC_SVM_CONFIG_H_
#define SRC_SVM_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/common/types.h"
#include "src/fault/fault_plan.h"
#include "src/net/network.h"
#include "src/net/reliable_channel.h"
#include "src/proto/cost_model.h"
#include "src/proto/options.h"

namespace hlrc {

// Largest machine the front ends and ValidateConfig accept.
inline constexpr int kMaxNodes = 1024;

struct SimConfig {
  int nodes = 8;
  // SVM page size. The Paragon's OSF/1 used 8 KB pages; smaller pages keep
  // scaled-down problems in a comparable sharing regime.
  int64_t page_size = 4096;
  // Size of the global shared address space (per-node mirror allocation).
  int64_t shared_bytes = 64ll << 20;
  // Root seed of the run, echoed in reports for reproducibility. Consumers
  // (application inputs, the fault injector) derive their own seeds from it
  // unless configured explicitly.
  uint64_t seed = 42;

  ProtocolOptions protocol;
  NetworkConfig network;
  CostModel costs;
  // Fault injection (docs/FAULTS.md). An Active() plan makes the fabric
  // lossy; pair it with `reliability.enabled` unless the point of the run is
  // to watch a protocol deadlock.
  FaultPlan fault;
  ReliabilityConfig reliability;
};

// Why `config` cannot be simulated, naming the field; empty when it can. It
// states each check System and its layers make on user-reachable values, so
// front ends reject bad input before any System is built (ExitIfInvalid).
std::string ValidateConfig(const SimConfig& config);

// The delivery switches every front end derives the same way: `reliable`
// turns on ack/retransmit delivery (pass it for an active fault plan: a lost
// frame deadlocks the protocols otherwise); `coalesce` turns on frame packing,
// request combining and, once acks exist, ack piggybacking.
void ApplyDeliveryOptions(SimConfig* config, bool reliable, bool coalesce);

}  // namespace hlrc

#endif  // SRC_SVM_CONFIG_H_
