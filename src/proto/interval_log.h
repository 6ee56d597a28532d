// Per-writer append-only log of shared, immutable interval records.
//
// The metadata fast path (docs/PERFORMANCE.md): instead of one global
// std::map keyed by (writer, id) per node that deep-copies records
// into every lock-grant and barrier-release payload, each node keeps one
// contiguous, id-sorted log per writer holding shared_ptr<const
// IntervalRecord> handles.
//
//   * Packing for a receiver's vector timestamp is a binary search for the
//     first unseen id in each writer's log followed by a tail copy of
//     handles — no tree walk, no record copies.
//   * An N-node barrier-release fan-out shares one record N ways. This is
//     sound because published records are immutable: CloseIntervalPrepared
//     seals a record and wraps it in a shared_ptr<const ...> before anything
//     aliases it, mirroring how src/net/reliable_channel.cc already aliases
//     whole Messages across retransmissions.
//   * Barrier-release garbage collection truncates the log wholesale
//     (Clear); the records themselves die when the last payload in flight
//     drops its handle.
//
// Append order per writer is strictly increasing in id. The protocols
// guarantee this: a node's own closes bump its VT component one at a time,
// and ApplyIntervals drops any record with id <= vt[writer] before raising
// vt[writer], so surviving appends are monotonic.
#ifndef SRC_PROTO_INTERVAL_LOG_H_
#define SRC_PROTO_INTERVAL_LOG_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/proto/interval.h"
#include "src/proto/vector_clock.h"

namespace hlrc {

// Handle to a published (immutable) interval record.
using IntervalPtr = std::shared_ptr<const IntervalRecord>;
// What grant/release payloads carry: handles, not records.
using IntervalBatch = std::vector<IntervalPtr>;

class IntervalLog {
 public:
  IntervalLog() = default;
  explicit IntervalLog(int writers) { Reset(writers); }

  void Reset(int writers);
  int writers() const { return static_cast<int>(by_writer_.size()); }

  // Appends a sealed record to its writer's log. The id must be strictly
  // greater than the writer's current tail (checked).
  void Append(IntervalPtr rec);

  // Appends every record `vt` has not seen to `out`: writers ascending, ids
  // ascending within a writer — exactly the iteration order of the previous
  // map keyed by (writer, id), which the golden summaries pin.
  void PackInto(const VectorClock& vt, IntervalBatch* out) const;
  IntervalBatch PackFor(const VectorClock& vt) const {
    IntervalBatch out;
    PackInto(vt, &out);
    return out;
  }

  // Binary search by (writer, id); nullptr if absent.
  const IntervalRecord* Find(NodeId writer, uint32_t id) const;

  // Barrier-release truncation: every record here is now known everywhere.
  void Clear();

  int64_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  const std::vector<IntervalPtr>& writer_log(NodeId writer) const {
    return by_writer_[static_cast<size_t>(writer)];
  }

 private:
  std::vector<std::vector<IntervalPtr>> by_writer_;
  int64_t count_ = 0;
};

}  // namespace hlrc

#endif  // SRC_PROTO_INTERVAL_LOG_H_
