// Randomized property tests for the ordering primitives the protocols and
// the checker oracle are built on: VectorClock (src/proto/vector_clock.h)
// and interval records/keys (src/proto/interval.h). Each property is checked
// over a few thousand Rng-driven cases; failures print the violating clocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/proto/interval.h"
#include "src/proto/vector_clock.h"

namespace hlrc {
namespace {

constexpr int kCases = 2000;

VectorClock RandomClock(Rng& rng, int nodes, uint32_t max_component) {
  VectorClock vt(nodes);
  for (int n = 0; n < nodes; ++n) {
    vt.Set(n, static_cast<uint32_t>(rng.NextBounded(max_component + 1)));
  }
  return vt;
}

std::string Show(const VectorClock& vt) {
  std::ostringstream os;
  os << "[";
  for (int n = 0; n < vt.size(); ++n) {
    os << (n ? "," : "") << vt.Get(n);
  }
  os << "]";
  return os.str();
}

VectorClock Merged(const VectorClock& a, const VectorClock& b) {
  VectorClock m = a;
  m.MergeWith(b);
  return m;
}

TEST(VectorClockProperty, MergeIsCommutativeAssociativeIdempotent) {
  Rng rng(1);
  for (int i = 0; i < kCases; ++i) {
    const int nodes = 1 + static_cast<int>(rng.NextBounded(8));
    const VectorClock a = RandomClock(rng, nodes, 5);
    const VectorClock b = RandomClock(rng, nodes, 5);
    const VectorClock c = RandomClock(rng, nodes, 5);
    EXPECT_TRUE(Merged(a, b) == Merged(b, a)) << Show(a) << " " << Show(b);
    EXPECT_TRUE(Merged(Merged(a, b), c) == Merged(a, Merged(b, c)))
        << Show(a) << " " << Show(b) << " " << Show(c);
    EXPECT_TRUE(Merged(a, a) == a) << Show(a);
  }
}

TEST(VectorClockProperty, MergeIsLeastUpperBound) {
  Rng rng(2);
  for (int i = 0; i < kCases; ++i) {
    const int nodes = 1 + static_cast<int>(rng.NextBounded(8));
    const VectorClock a = RandomClock(rng, nodes, 5);
    const VectorClock b = RandomClock(rng, nodes, 5);
    const VectorClock m = Merged(a, b);
    EXPECT_TRUE(a.DominatedBy(m) && b.DominatedBy(m)) << Show(a) << " " << Show(b);
    // Least: any upper bound of both dominates the merge.
    VectorClock ub = RandomClock(rng, nodes, 5);
    ub.MergeWith(a);
    ub.MergeWith(b);
    EXPECT_TRUE(m.DominatedBy(ub)) << Show(m) << " " << Show(ub);
  }
}

TEST(VectorClockProperty, DominanceIsAntisymmetricPartialOrder) {
  Rng rng(3);
  for (int i = 0; i < kCases; ++i) {
    const int nodes = 1 + static_cast<int>(rng.NextBounded(6));
    const VectorClock a = RandomClock(rng, nodes, 3);
    const VectorClock b = RandomClock(rng, nodes, 3);
    const VectorClock c = RandomClock(rng, nodes, 3);
    EXPECT_TRUE(a.DominatedBy(a)) << Show(a);
    if (a.DominatedBy(b) && b.DominatedBy(a)) {
      EXPECT_TRUE(a == b) << Show(a) << " " << Show(b);
    }
    if (a.DominatedBy(b) && b.DominatedBy(c)) {
      EXPECT_TRUE(a.DominatedBy(c)) << Show(a) << " " << Show(b) << " " << Show(c);
    }
  }
}

TEST(VectorClockProperty, HappensBeforeAndConcurrencyPartitionPairs) {
  Rng rng(4);
  for (int i = 0; i < kCases; ++i) {
    const int nodes = 1 + static_cast<int>(rng.NextBounded(6));
    const VectorClock a = RandomClock(rng, nodes, 3);
    const VectorClock b = RandomClock(rng, nodes, 3);
    // Exactly one of: a hb b, b hb a, a == b, a || b.
    const int kinds = (a.HappensBefore(b) ? 1 : 0) + (b.HappensBefore(a) ? 1 : 0) +
                      (a == b ? 1 : 0) + (a.ConcurrentWith(b) ? 1 : 0);
    EXPECT_EQ(kinds, 1) << Show(a) << " " << Show(b);
    EXPECT_FALSE(a.HappensBefore(a)) << Show(a);
  }
}

TEST(VectorClockProperty, TotalOrderRefinesHappensBefore) {
  Rng rng(5);
  for (int i = 0; i < kCases; ++i) {
    const int nodes = 1 + static_cast<int>(rng.NextBounded(6));
    const VectorClock a = RandomClock(rng, nodes, 3);
    const VectorClock b = RandomClock(rng, nodes, 3);
    if (a.HappensBefore(b)) {
      EXPECT_TRUE(a.TotalOrderLess(b)) << Show(a) << " " << Show(b);
    }
    if (!(a == b)) {
      // Strict total order: exactly one direction.
      EXPECT_NE(a.TotalOrderLess(b), b.TotalOrderLess(a)) << Show(a) << " " << Show(b);
    } else {
      EXPECT_FALSE(a.TotalOrderLess(b)) << Show(a);
    }
  }
}

TEST(VectorClockProperty, BumpCreatesHappensBeforeSuccessor) {
  Rng rng(6);
  for (int i = 0; i < kCases; ++i) {
    const int nodes = 1 + static_cast<int>(rng.NextBounded(6));
    VectorClock a = RandomClock(rng, nodes, 3);
    const VectorClock before = a;
    const NodeId n = static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(nodes)));
    a.Bump(n);
    EXPECT_TRUE(before.HappensBefore(a)) << Show(before) << " " << Show(a);
    EXPECT_EQ(a.Get(n), before.Get(n) + 1);
  }
}

TEST(IntervalProperty, EncodedSizeCountsNoticesAndOptionalTimestamp) {
  Rng rng(8);
  for (int i = 0; i < kCases; ++i) {
    const int nodes = 1 + static_cast<int>(rng.NextBounded(16));
    IntervalRecord rec;
    rec.writer = static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(nodes)));
    rec.vt = RandomClock(rng, nodes, 9);
    const int pages = static_cast<int>(rng.NextBounded(32));
    for (int p = 0; p < pages; ++p) {
      rec.pages.push_back(static_cast<PageId>(rng.NextBounded(1024)));
    }
    // Home-based wire format: header + 4 bytes per notice.
    EXPECT_EQ(rec.EncodedSize(/*with_vt=*/false), 8 + 4 * pages);
    // Homeless adds the full vector timestamp (4 bytes per node), so the
    // delta grows linearly with the machine size.
    EXPECT_EQ(rec.EncodedSize(/*with_vt=*/true) - rec.EncodedSize(/*with_vt=*/false),
              4 * nodes);
    EXPECT_EQ(rec.vt.EncodedSize(), 4 * nodes);
  }
}

}  // namespace
}  // namespace hlrc
