#include "src/proto/vector_clock.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/proto/interval.h"

namespace hlrc {
namespace {

VectorClock VC(std::initializer_list<uint32_t> vals) {
  VectorClock vc(static_cast<int>(vals.size()));
  int i = 0;
  for (uint32_t v : vals) {
    vc.Set(i++, v);
  }
  return vc;
}

TEST(VectorClock, StartsAtZero) {
  VectorClock vc(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(vc.Get(i), 0u);
  }
}

TEST(VectorClock, BumpAndSet) {
  VectorClock vc(3);
  vc.Bump(1);
  vc.Bump(1);
  vc.Set(2, 7);
  EXPECT_EQ(vc.Get(0), 0u);
  EXPECT_EQ(vc.Get(1), 2u);
  EXPECT_EQ(vc.Get(2), 7u);
}

TEST(VectorClock, MergeTakesComponentwiseMax) {
  VectorClock a = VC({1, 5, 0});
  const VectorClock b = VC({3, 2, 0});
  a.MergeWith(b);
  EXPECT_EQ(a, VC({3, 5, 0}));
}

TEST(VectorClock, HappensBeforeIsStrictDomination) {
  EXPECT_TRUE(VC({1, 0}).HappensBefore(VC({1, 1})));
  EXPECT_FALSE(VC({1, 1}).HappensBefore(VC({1, 1})));
  EXPECT_FALSE(VC({2, 0}).HappensBefore(VC({1, 1})));
}

TEST(VectorClock, ConcurrentDetection) {
  EXPECT_TRUE(VC({2, 0}).ConcurrentWith(VC({0, 2})));
  EXPECT_FALSE(VC({1, 1}).ConcurrentWith(VC({2, 2})));
  EXPECT_FALSE(VC({1, 1}).ConcurrentWith(VC({1, 1})));
}

TEST(VectorClock, TotalOrderRespectsHappensBefore) {
  // Property: a HappensBefore b implies TotalOrderLess(a, b).
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    VectorClock a(4);
    for (int i = 0; i < 4; ++i) {
      a.Set(i, static_cast<uint32_t>(rng.NextBounded(5)));
    }
    VectorClock b = a;
    bool bumped = false;
    for (int i = 0; i < 4; ++i) {
      if (rng.NextBool()) {
        b.Set(i, b.Get(i) + static_cast<uint32_t>(rng.NextBounded(3)) + 1);
        bumped = true;
      }
    }
    if (bumped) {
      EXPECT_TRUE(a.HappensBefore(b));
      EXPECT_TRUE(a.TotalOrderLess(b));
      EXPECT_FALSE(b.TotalOrderLess(a));
    }
  }
}

TEST(VectorClock, TotalOrderIsAntisymmetricOnDistinct) {
  const VectorClock a = VC({2, 0, 1});
  const VectorClock b = VC({0, 2, 1});
  EXPECT_NE(a.TotalOrderLess(b), b.TotalOrderLess(a));
  EXPECT_FALSE(a.TotalOrderLess(a));
}

TEST(VectorClock, EncodedSizeIsFourBytesPerComponent) {
  EXPECT_EQ(VectorClock(16).EncodedSize(), 64);
  EXPECT_EQ(VectorClock(64).EncodedSize(), 256);
}

TEST(IntervalRecord, EncodedSizeGrowsWithVtOnlyWhenShipped) {
  IntervalRecord rec;
  rec.writer = 1;
  rec.id = 3;
  rec.vt = VectorClock(64);
  rec.pages = {1, 2, 3};
  // Homeless: 8 + 4 per page + full vt (the paper's §4.7 memory observation).
  EXPECT_EQ(rec.EncodedSize(true), 8 + 12 + 256);
  // Home-based: no vt on the wire.
  EXPECT_EQ(rec.EncodedSize(false), 8 + 12);
}

}  // namespace
}  // namespace hlrc
