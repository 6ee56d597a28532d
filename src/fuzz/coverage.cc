#include "src/fuzz/coverage.h"

#include <cstdio>

namespace hlrc {
namespace fuzz {

uint64_t CoverageMap::Mix(uint64_t salt, Domain domain, uint64_t a, uint64_t b) {
  // SplitMix64-style finalization over the four fields. The domain tag is
  // folded in first so (a, b) collisions across domains are as unlikely as
  // any other 64-bit collision.
  uint64_t h = salt + 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(domain) + 1);
  for (uint64_t v : {a, b}) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
  }
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

void CoverageMap::Cover(Domain domain, uint64_t a, uint64_t b, int64_t n) {
  hits_ += n;
  sets_[static_cast<size_t>(domain)].insert(Mix(salt_, domain, a, b));
}

size_t CoverageMap::points() const {
  size_t total = 0;
  for (const auto& s : sets_) {
    total += s.size();
  }
  return total;
}

int64_t CoverageMap::MergeNovel(const CoverageMap& other) {
  int64_t novel = 0;
  for (int d = 0; d < kDomains; ++d) {
    for (uint64_t key : other.sets_[d]) {
      if (sets_[d].insert(key).second) {
        ++novel;
      }
    }
  }
  hits_ += other.hits_;
  return novel;
}

uint64_t CoverageMap::Fingerprint() const {
  // Sum + xor of the (already well-mixed) keys: commutative, so emission and
  // merge order cannot matter.
  uint64_t sum = 0;
  uint64_t x = 0;
  for (const auto& s : sets_) {
    for (uint64_t key : s) {
      sum += key;
      x ^= key;
    }
  }
  return sum ^ (x * 0x9e3779b97f4a7c15ULL) ^ static_cast<uint64_t>(points());
}

std::string CoverageMap::Report() const {
  char line[128];
  std::string out;
  for (int d = 0; d < kDomains; ++d) {
    std::snprintf(line, sizeof(line), "  %-16s %zu\n",
                  CoverageDomainName(static_cast<Domain>(d)), sets_[d].size());
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-16s %zu (%lld hits)\n", "total", points(),
                static_cast<long long>(hits_));
  out += line;
  return out;
}

}  // namespace fuzz
}  // namespace hlrc
