// Per-node software MMU.
//
// Each node mirrors the whole shared address space in one contiguous
// anonymous mmap region, so application code can use ordinary pointers and
// multi-page arrays stay contiguous. The same mapping carries, past the
// mirror, one PageState per page. Both parts are lazily zero-filled by the
// kernel: a page's frame and its PageState cost host memory (one 4 KiB host
// page each, the latter shared by 256 neighbouring pages' states) only once
// the node touches them, and construction and teardown write nothing per
// page (docs/PERFORMANCE.md, "Host memory per node"). Protection is checked
// in software by the SVM access layer; there is no hardware mprotect
// involved.
#ifndef SRC_MEM_PAGE_TABLE_H_
#define SRC_MEM_PAGE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace hlrc {

// The numeric values are part of the coverage keys (kPageTransition).
enum class PageProt : uint8_t {
  kNone = 0,       // Any access faults.
  kRead = 1,       // Writes fault.
  kReadWrite = 2,  // No faults.
};

// One page's MMU state. The all-zero bit pattern is the default state
// {kRead, has copy, no twin}: the protection is stored XOR kRead and the
// copy flag inverted, so zero-filled memory reads as untouched pages.
class PageState {
 public:
  PageProt prot() const { return static_cast<PageProt>(prot_bits_ ^ kZeroProt); }
  void set_prot(PageProt prot) { prot_bits_ = static_cast<uint8_t>(prot) ^ kZeroProt; }
  // Whether the local frame holds a (possibly stale) copy of the page. LRC
  // keeps stale copies across invalidation so diffs can be applied in place;
  // a page with no copy requires a full-page fetch.
  bool has_copy() const { return !no_copy_; }
  void set_has_copy(bool has_copy) { no_copy_ = !has_copy; }

 private:
  friend class PageTable;
  static constexpr uint8_t kZeroProt = static_cast<uint8_t>(PageProt::kRead);

  // Twin: clean snapshot taken at the first write of the current interval,
  // or nullptr. The buffer belongs to the PageTable's twin pool.
  std::byte* twin_ = nullptr;
  uint8_t prot_bits_ = 0;
  bool no_copy_ = false;
};
static_assert(std::is_trivially_copyable_v<PageState> &&
                  std::is_trivially_destructible_v<PageState>,
              "PageState lives in zero-filled mmap memory that is never constructed");

class PageTable {
 public:
  PageTable(int64_t space_bytes, int64_t page_size);
  ~PageTable();
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  int64_t page_size() const { return page_size_; }
  int num_pages() const { return num_pages_; }
  int64_t space_bytes() const { return space_bytes_; }

  PageId PageOf(GlobalAddr addr) const {
    HLRC_CHECK(addr < static_cast<GlobalAddr>(space_bytes_));
    return static_cast<PageId>(addr / static_cast<GlobalAddr>(page_size_));
  }

  std::byte* PageData(PageId p) {
    HLRC_CHECK(p >= 0 && p < num_pages_);
    return base_ + static_cast<int64_t>(p) * page_size_;
  }
  const std::byte* PageData(PageId p) const {
    HLRC_CHECK(p >= 0 && p < num_pages_);
    return base_ + static_cast<int64_t>(p) * page_size_;
  }

  std::byte* AddrData(GlobalAddr addr) {
    HLRC_CHECK(addr < static_cast<GlobalAddr>(space_bytes_));
    return base_ + addr;
  }

  PageState& State(PageId p) {
    HLRC_CHECK(p >= 0 && p < num_pages_);
    return states_[p];
  }
  const PageState& State(PageId p) const {
    HLRC_CHECK(p >= 0 && p < num_pages_);
    return states_[p];
  }

  // Snapshots the current page contents as the twin. The caller accounts the
  // cost; this just does the copy and the memory bookkeeping. Twin buffers
  // are recycled through a per-node free list (docs/PERFORMANCE.md): twin
  // churn at interval boundaries is the hottest allocation site in the
  // simulator, and the pool's steady state is the run's peak concurrent twin
  // count, so after warm-up MakeTwin/DropTwin never touch the allocator.
  void MakeTwin(PageId p);
  void DropTwin(PageId p);
  bool HasTwin(PageId p) const { return State(p).twin_ != nullptr; }
  // The twin buffer, or nullptr.
  std::byte* Twin(PageId p) const { return State(p).twin_; }

  // Bytes currently held in twins (protocol memory accounting).
  int64_t TwinBytes() const { return twin_count_ * page_size_; }
  int64_t twin_count() const { return twin_count_; }

  // Arena observability: buffers parked for reuse, and how many MakeTwin
  // calls were served from the pool vs the allocator.
  int64_t twin_pool_size() const { return static_cast<int64_t>(twin_free_.size()); }
  int64_t twin_pool_hits() const { return twin_pool_hits_; }

 private:
  int64_t space_bytes_;
  int64_t page_size_;
  int num_pages_;
  size_t map_bytes_;   // The mirror plus the state array.
  std::byte* base_;    // mmap'ed; owned.
  PageState* states_;  // Inside the mapping, past the mirror.
  int64_t twin_count_ = 0;
  // Every twin buffer ever allocated (the pool owns them all), and the ones
  // not currently held by a page.
  std::vector<std::unique_ptr<std::byte[]>> twin_bufs_;
  std::vector<std::byte*> twin_free_;
  int64_t twin_pool_hits_ = 0;
};

}  // namespace hlrc

#endif  // SRC_MEM_PAGE_TABLE_H_
