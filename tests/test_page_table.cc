#include "src/mem/page_table.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstring>
#include <optional>
#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/mem/shared_space.h"
#include "src/proto/page_meta.h"

namespace hlrc {
namespace {

// The dense per-page records every node keeps: PageState for every page of
// the space it touches, the protocols' hot PageMeta for every page it hears a
// write notice of (docs/PERFORMANCE.md, "Host memory per node").
static_assert(sizeof(PageState) <= 16);
static_assert(sizeof(HlrcPageMeta) == 64, "required (40) + epoch + fault + cold");
static_assert(sizeof(LrcPageMeta) == 40, "pending notices (24) + hint + cold");

TEST(PageTable, GeometryAndAddressing) {
  PageTable pt(64 * 1024, 4096);
  EXPECT_EQ(pt.num_pages(), 16);
  EXPECT_EQ(pt.PageOf(0), 0);
  EXPECT_EQ(pt.PageOf(4095), 0);
  EXPECT_EQ(pt.PageOf(4096), 1);
  EXPECT_EQ(pt.AddrData(4096), pt.PageData(1));
  EXPECT_EQ(pt.AddrData(4100), pt.PageData(1) + 4);
}

TEST(PageTable, StartsZeroFilledAndReadable) {
  PageTable pt(16 * 1024, 4096);
  for (PageId p = 0; p < pt.num_pages(); ++p) {
    EXPECT_EQ(pt.State(p).prot(), PageProt::kRead);
    EXPECT_TRUE(pt.State(p).has_copy());
    EXPECT_FALSE(pt.HasTwin(p));
    const std::byte* data = pt.PageData(p);
    for (int i = 0; i < 4096; ++i) {
      EXPECT_EQ(data[i], std::byte{0});
    }
  }
}

TEST(PageTable, TwinSnapshotsAndTracksMemory) {
  PageTable pt(16 * 1024, 4096);
  std::memset(pt.PageData(2), 0xAB, 4096);
  pt.MakeTwin(2);
  EXPECT_TRUE(pt.HasTwin(2));
  EXPECT_EQ(pt.TwinBytes(), 4096);
  // Twin holds the snapshot even after the page changes.
  std::memset(pt.PageData(2), 0xCD, 4096);
  EXPECT_EQ(pt.Twin(2)[0], std::byte{0xAB});
  pt.DropTwin(2);
  EXPECT_FALSE(pt.HasTwin(2));
  EXPECT_EQ(pt.TwinBytes(), 0);
}

TEST(PageTable, DropTwinIsIdempotent) {
  PageTable pt(8 * 1024, 4096);
  pt.MakeTwin(0);
  pt.DropTwin(0);
  pt.DropTwin(0);
  EXPECT_EQ(pt.TwinBytes(), 0);
}

// Zero bytes are the default state, which is what lets the table live in
// lazily zero-filled memory; every protection round-trips through the
// encoding with its coverage-key value intact.
TEST(PageTable, ZeroBytesAreTheDefaultState) {
  PageState st;
  std::memset(static_cast<void*>(&st), 0, sizeof(st));
  EXPECT_EQ(st.prot(), PageProt::kRead);
  EXPECT_TRUE(st.has_copy());
  const PageState fresh;
  EXPECT_EQ(fresh.prot(), st.prot());
  EXPECT_EQ(fresh.has_copy(), st.has_copy());
  for (PageProt prot : {PageProt::kNone, PageProt::kRead, PageProt::kReadWrite}) {
    st.set_prot(prot);
    EXPECT_EQ(st.prot(), prot);
  }
  EXPECT_EQ(static_cast<int>(PageProt::kNone), 0);
  EXPECT_EQ(static_cast<int>(PageProt::kRead), 1);
  EXPECT_EQ(static_cast<int>(PageProt::kReadWrite), 2);
  st.set_has_copy(false);
  EXPECT_FALSE(st.has_copy());
  st.set_has_copy(true);
  EXPECT_TRUE(st.has_copy());
}

// The replaced representation, as the reference: a value-initialized
// PageState per page with an owned twin copy.
struct RefPageState {
  PageProt prot = PageProt::kRead;
  bool has_copy = true;
  std::optional<std::vector<std::byte>> twin;
};

void ExpectSamePage(const PageTable& pt, const std::vector<RefPageState>& ref, PageId p) {
  const RefPageState& r = ref[static_cast<size_t>(p)];
  ASSERT_EQ(pt.State(p).prot(), r.prot) << "page " << p;
  ASSERT_EQ(pt.State(p).has_copy(), r.has_copy) << "page " << p;
  ASSERT_EQ(pt.HasTwin(p), r.twin.has_value()) << "page " << p;
  if (r.twin.has_value()) {
    ASSERT_EQ(std::memcmp(pt.Twin(p), r.twin->data(), r.twin->size()), 0) << "page " << p;
  } else {
    ASSERT_EQ(pt.Twin(p), nullptr);
  }
}

// Differential: ~1000 random episodes of protection, copy-flag, page-write,
// MakeTwin and DropTwin steps agree with the reference on every page --
// untouched ones included -- and on the twin accounting. Page choice is
// biased to the first and last pages, where the state array meets the
// mirror and the end of the mapping.
TEST(PageTable, MatchesVectorOfPageStatesAcross1000Episodes) {
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    const int64_t page_size = int64_t{8} << rng.NextInt(0, 9);
    const int pages = static_cast<int>(rng.NextInt(1, 40));
    PageTable pt(pages * page_size, page_size);
    std::vector<RefPageState> ref(static_cast<size_t>(pages));
    int64_t twins = 0;
    const int steps = static_cast<int>(rng.NextInt(1, 60));
    for (int step = 0; step < steps; ++step) {
      const int pick = static_cast<int>(rng.NextInt(0, 3));
      const PageId p = pick == 0   ? 0
                       : pick == 1 ? pages - 1
                                   : static_cast<PageId>(rng.NextInt(0, pages - 1));
      RefPageState& r = ref[static_cast<size_t>(p)];
      switch (rng.NextInt(0, 4)) {
        case 0: {
          const auto prot = static_cast<PageProt>(rng.NextInt(0, 2));
          pt.State(p).set_prot(prot);
          r.prot = prot;
          break;
        }
        case 1: {
          const bool has_copy = rng.NextInt(0, 1) == 1;
          pt.State(p).set_has_copy(has_copy);
          r.has_copy = has_copy;
          break;
        }
        case 2:
          // A store into the frame: a twin must keep the old contents.
          pt.PageData(p)[rng.NextInt(0, page_size - 1)] =
              static_cast<std::byte>(rng.NextInt(0, 255));
          break;
        case 3:
          if (!r.twin.has_value()) {
            pt.MakeTwin(p);
            r.twin.emplace(pt.PageData(p), pt.PageData(p) + page_size);
            ++twins;
          }
          break;
        default:
          pt.DropTwin(p);
          twins -= r.twin.has_value() ? 1 : 0;
          r.twin.reset();
          break;
      }
      ExpectSamePage(pt, ref, p);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    std::set<const std::byte*> held;
    for (PageId p = 0; p < pages; ++p) {
      ExpectSamePage(pt, ref, p);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
      if (pt.HasTwin(p)) {
        EXPECT_TRUE(held.insert(pt.Twin(p)).second) << "two pages share a twin buffer";
      }
    }
    EXPECT_EQ(pt.twin_count(), twins);
    EXPECT_EQ(pt.TwinBytes(), twins * page_size);
  }
}

TEST(PageTable, DroppedTwinBuffersAreReused) {
  PageTable pt(4 * 4096, 4096);
  pt.MakeTwin(0);
  pt.MakeTwin(3);
  std::byte* const first = pt.Twin(3);
  pt.DropTwin(3);
  EXPECT_EQ(pt.twin_pool_size(), 1);
  pt.MakeTwin(1);
  EXPECT_EQ(pt.Twin(1), first);
  EXPECT_EQ(pt.twin_pool_hits(), 1);
  EXPECT_EQ(pt.twin_pool_size(), 0);
  // Tearing down with twins still held frees them through the pool.
}

long MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

// Construction and teardown write nothing per page: a 256 MiB / 4 KiB table
// (65,536 pages, the paper-scale space) costs a handful of minor faults, not
// the 1 MiB its PageState array spans.
TEST(PageTable, ConstructionAndTeardownFaultInNoPerPageState) {
  { PageTable warm(1 << 20, 4096); }  // Let the allocator settle first.
  const long before = MinorFaults();
  {
    PageTable pt(int64_t{256} << 20, 4096);
    ASSERT_EQ(pt.num_pages(), 65536);
  }
  EXPECT_LT(MinorFaults() - before, 16);
}

TEST(SharedSpace, BumpAllocationAligns) {
  SharedSpace space(1 << 20, 4096);
  const GlobalAddr a = space.Alloc(10);
  const GlobalAddr b = space.Alloc(10);
  EXPECT_EQ(a % 16, 0u);
  EXPECT_EQ(b % 16, 0u);
  EXPECT_GE(b, a + 10);
}

TEST(SharedSpace, PageAlignedAllocation) {
  SharedSpace space(1 << 20, 4096);
  space.Alloc(100);
  const GlobalAddr b = space.AllocPageAligned(8192);
  EXPECT_EQ(b % 4096, 0u);
  EXPECT_EQ(space.AllocatedBytes(), static_cast<int64_t>(b) + 8192);
}

TEST(SharedSpace, TracksAllocationsPerObject) {
  SharedSpace space(1 << 20, 4096);
  const GlobalAddr a = space.AllocPageAligned(3 * 4096);
  const GlobalAddr b = space.AllocPageAligned(2 * 4096);
  const SharedSpace::Allocation* aa = space.AllocationOf(static_cast<PageId>(a / 4096));
  const SharedSpace::Allocation* bb = space.AllocationOf(static_cast<PageId>(b / 4096));
  ASSERT_NE(aa, nullptr);
  ASSERT_NE(bb, nullptr);
  EXPECT_NE(aa, bb);
  EXPECT_EQ(aa->last_page - aa->first_page, 2);
  EXPECT_EQ(bb->last_page - bb->first_page, 1);
  EXPECT_EQ(space.AllocationOf(100), nullptr);
}

TEST(SharedSpace, AdjacentSmallAllocationsMergeOnSharedPage) {
  SharedSpace space(1 << 20, 4096);
  const GlobalAddr a = space.Alloc(64);
  const GlobalAddr b = space.Alloc(64);
  EXPECT_EQ(space.AllocationOf(static_cast<PageId>(a / 4096)),
            space.AllocationOf(static_cast<PageId>(b / 4096)));
}

}  // namespace
}  // namespace hlrc
