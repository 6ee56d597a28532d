// Protocol-state coverage observation (docs/FUZZING.md).
//
// A CoverageObserver receives abstract "coverage points" from the protocol
// and network layers: hashed tuples describing which protocol-state
// transitions a run actually exercised (message-type delivery edges,
// page-protection transitions, sync-epoch write-notice batches, injected
// network faults, interval closes). The interface lives in src/common so the
// low layers (src/net, src/proto) can emit points without depending on the
// concrete map in src/fuzz; emitting is a single-branch no-op when no
// observer is installed, so a coverage-off run is unchanged.
//
// Points are (domain, a, b) triples; the observer decides how to hash and
// deduplicate them. Producers keep `a`/`b` free of node ids and raw
// addresses where possible so the point space measures protocol behavior,
// not topology.
#ifndef SRC_COMMON_COVERAGE_H_
#define SRC_COMMON_COVERAGE_H_

#include <cstdint>

namespace hlrc {

class CoverageObserver {
 public:
  // Point domains, used for reporting breakdowns. Keep kDomainNames in sync.
  enum class Domain : uint32_t {
    kMsgEdge = 0,         // (prev MsgType, MsgType) delivery edges per node.
    kPageTransition = 1,  // (prot before, prot after, cause) per page event.
    kSyncEpoch = 2,       // (sync kind, write-notice batch-size bucket).
    kFault = 3,           // (MsgType, injected fault kind).
    kInterval = 4,        // (dirty-page-count bucket) at interval close.
  };
  static constexpr int kDomains = 5;

  virtual ~CoverageObserver() = default;

  // Records one coverage point emitted `n` times (n >= 1), exactly as `n`
  // single calls would: one distinct point, `n` hits. Producers that handle a
  // batch of identical events (write notices for pages not mapped here) emit
  // them with one call. Must not charge simulated time or schedule events:
  // coverage is pure observation, like metrics and tracing.
  virtual void Cover(Domain domain, uint64_t a, uint64_t b, int64_t n) = 0;
  void Cover(Domain domain, uint64_t a, uint64_t b) { Cover(domain, a, b, 1); }
};

inline const char* CoverageDomainName(CoverageObserver::Domain d) {
  switch (d) {
    case CoverageObserver::Domain::kMsgEdge: return "msg-edge";
    case CoverageObserver::Domain::kPageTransition: return "page-transition";
    case CoverageObserver::Domain::kSyncEpoch: return "sync-epoch";
    case CoverageObserver::Domain::kFault: return "fault";
    case CoverageObserver::Domain::kInterval: return "interval";
  }
  return "?";
}

// Logarithmic bucketing for unbounded counts (write-notice batch sizes,
// dirty-page counts): exact below 5, then one bucket per power of two. Keeps
// the point space finite without erasing the small-count structure.
inline uint64_t CoverageBucket(uint64_t n) {
  if (n <= 4) {
    return n;
  }
  uint64_t bucket = 4;
  while (n > 1) {
    n >>= 1;
    ++bucket;
  }
  return bucket;
}

}  // namespace hlrc

#endif  // SRC_COMMON_COVERAGE_H_
