// Concrete protocol-state coverage map (docs/FUZZING.md).
//
// CoverageMap is the CoverageObserver the fuzzer installs on a System: it
// hashes every (salt, domain, a, b) point into a 64-bit key and keeps the
// distinct set per domain. The salt carries the protocol kind, so the same
// page-transition exercised under HLRC and LRC counts as two points — the
// map measures "protocol behaviors exercised", and a differential run over
// four protocols is worth four clean runs of one.
//
// The map is deterministic: the same run produces the same point set, and
// Fingerprint() is order-independent, so merging per-run maps in any order
// yields the same aggregate (the fuzzer merges parallel batch results in
// slot order anyway, for bit-identical stats at any job count).
#ifndef SRC_FUZZ_COVERAGE_H_
#define SRC_FUZZ_COVERAGE_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_set>

#include "src/common/coverage.h"

namespace hlrc {
namespace fuzz {

class CoverageMap : public CoverageObserver {
 public:
  // `salt` distinguishes otherwise-identical point spaces (the fuzzer passes
  // the ProtocolKind under which the run executed).
  explicit CoverageMap(uint64_t salt = 0) : salt_(salt) {}

  using CoverageObserver::Cover;
  void Cover(Domain domain, uint64_t a, uint64_t b, int64_t n) override;

  // Distinct coverage points seen, over all domains.
  size_t points() const;
  // Total emissions (distinct or not).
  int64_t hits() const { return hits_; }
  // Distinct points in one domain.
  size_t DomainPoints(Domain domain) const {
    return sets_[static_cast<size_t>(domain)].size();
  }

  // Adds every point of `other` to this map; returns how many were new.
  // Zero means `other` explored nothing this map had not already seen.
  int64_t MergeNovel(const CoverageMap& other);

  // Order-independent digest of the point set: equal maps have equal
  // fingerprints regardless of emission or merge order.
  uint64_t Fingerprint() const;

  // Deterministic human-readable breakdown (one line per domain + total).
  std::string Report() const;

 private:
  static uint64_t Mix(uint64_t salt, Domain domain, uint64_t a, uint64_t b);

  uint64_t salt_;
  std::array<std::unordered_set<uint64_t>, kDomains> sets_;
  int64_t hits_ = 0;
};

}  // namespace fuzz
}  // namespace hlrc

#endif  // SRC_FUZZ_COVERAGE_H_
