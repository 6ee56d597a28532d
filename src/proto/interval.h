// Interval records and write notices.
//
// An interval groups all writes one node performed between two of its
// synchronization events. Its record carries one write notice per dirty page.
// Homeless protocols ship the writer's full vector timestamp with each
// interval (needed to order diff application), which is why their protocol
// traffic and memory grow with the node count; home-based protocols only need
// (writer, interval id, pages).
#ifndef SRC_PROTO_INTERVAL_H_
#define SRC_PROTO_INTERVAL_H_

#include <cstdint>

#include "src/common/types.h"
#include "src/mem/small_vec.h"
#include "src/proto/vector_clock.h"

namespace hlrc {

// Write-notice page list. Most intervals touch a handful of pages (one lock-
// protected update, one band row), so eight inline slots cover the common
// case without a heap allocation per record.
using PageList = SmallVec<PageId, 8>;

struct IntervalRecord {
  NodeId writer = kInvalidNode;
  uint32_t id = 0;  // The writer's interval index (its own VT component).
  // Writer's vector timestamp when the interval was closed (vt.Get(writer)
  // == id). Homeless protocols need it to order diffs; home-based protocols
  // carry and store it too for bookkeeping but do not ship it on the wire
  // (see EncodedSize).
  VectorClock vt;
  PageList pages;

  // Wire/storage footprint of the interval's write notices. Records under
  // construction compute it on the fly; sealed (published) records answer
  // from the cache.
  int64_t EncodedSize(bool with_vt) const {
    const int64_t cached = with_vt ? cached_size_with_vt : cached_size_without_vt;
    return cached >= 0 ? cached : ComputeEncodedSize(with_vt);
  }

  int64_t ComputeEncodedSize(bool with_vt) const {
    int64_t size = 8 + static_cast<int64_t>(pages.size()) * 4;
    if (with_vt) {
      size += vt.EncodedSize();
    }
    return size;
  }

  // Caches both encoded sizes. Called once when the record is published into
  // an IntervalLog; published records are immutable (every handle aliases the
  // same object), so the cache can never go stale.
  void Seal() {
    cached_size_without_vt = ComputeEncodedSize(false);
    cached_size_with_vt = ComputeEncodedSize(true);
  }
  bool sealed() const { return cached_size_without_vt >= 0; }

  // -1 until Seal().
  int64_t cached_size_with_vt = -1;
  int64_t cached_size_without_vt = -1;
};

}  // namespace hlrc

#endif  // SRC_PROTO_INTERVAL_H_
