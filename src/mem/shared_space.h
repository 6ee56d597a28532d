// Global shared address space layout and the G_MALLOC-style bump allocator.
//
// Mirrors the Splash-2 programming model the paper implements (§3.2): the
// whole space is shareable and global data is carved out with G_MALLOC before
// the parallel phase.
#ifndef SRC_MEM_SHARED_SPACE_H_
#define SRC_MEM_SHARED_SPACE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace hlrc {

class SharedSpace {
 public:
  // One G_MALLOC'ed object, in pages. The block home policy distributes each
  // allocation's pages over the nodes independently, which is how the paper's
  // systems place homes "intelligently": an array's k-th band is homed on the
  // node that owns the k-th partition.
  struct Allocation {
    PageId first_page;
    PageId last_page;
  };

  SharedSpace(int64_t space_bytes, int64_t page_size)
      : space_bytes_(space_bytes), page_size_(page_size) {
    HLRC_CHECK(space_bytes % page_size == 0);
  }

  // Allocates `bytes`, 16-byte aligned. An allocation past the end of the
  // space still succeeds, so an allocation plan can be sized against a bare
  // space (ValidateWorkload); OverflowReason reports it, and System::Run refuses
  // to start on it.
  GlobalAddr Alloc(int64_t bytes) { return AllocInternal(bytes, /*page_aligned=*/false); }

  // Allocates `bytes` starting on a fresh page boundary: used to give arrays
  // page-aligned partitions, as Splash-2 programs do with padded allocators.
  GlobalAddr AllocPageAligned(int64_t bytes) {
    const GlobalAddr ps = static_cast<GlobalAddr>(page_size_);
    next_ = (next_ + ps - 1) / ps * ps;
    return AllocInternal(bytes, /*page_aligned=*/true);
  }

  // Observation hook for the workload recorder (src/wkld): called once per
  // allocation with the granted address. `page_aligned` distinguishes the
  // two allocators so a replay can reproduce the exact layout.
  using AllocHook = std::function<void(GlobalAddr addr, int64_t bytes, bool page_aligned)>;
  void SetAllocHook(AllocHook hook) { alloc_hook_ = std::move(hook); }

  // Bytes of application data allocated so far (Table 6's "application
  // memory" denominator).
  int64_t AllocatedBytes() const { return static_cast<int64_t>(next_); }

  // The allocation containing `page`, or nullptr.
  const Allocation* AllocationOf(PageId page) const {
    for (const Allocation& a : allocations_) {
      if (page >= a.first_page && page <= a.last_page) {
        return &a;
      }
    }
    return nullptr;
  }

  int64_t space_bytes() const { return space_bytes_; }
  int64_t page_size() const { return page_size_; }

  // Empty while every allocation fits the space; otherwise a one-line reason
  // naming the bytes `who` needs and the bytes the space has.
  std::string OverflowReason(const std::string& who) const {
    if (AllocatedBytes() <= space_bytes_) {
      return "";
    }
    return who + " needs " + std::to_string(AllocatedBytes()) + " bytes of shared space with " +
           std::to_string(page_size_) + "-byte pages, but the space has " +
           std::to_string(space_bytes_);
  }

 private:
  GlobalAddr AllocInternal(int64_t bytes, bool page_aligned) {
    next_ = (next_ + 15) & ~static_cast<GlobalAddr>(15);
    const GlobalAddr addr = next_;
    next_ += static_cast<GlobalAddr>(bytes);
    RecordAllocation(addr, bytes);
    if (alloc_hook_) {
      alloc_hook_(addr, bytes, page_aligned);
    }
    return addr;
  }

  void RecordAllocation(GlobalAddr addr, int64_t bytes) {
    const PageId first = static_cast<PageId>(addr / static_cast<GlobalAddr>(page_size_));
    const PageId last = static_cast<PageId>((addr + static_cast<GlobalAddr>(bytes) - 1) /
                                            static_cast<GlobalAddr>(page_size_));
    // Merge with the previous allocation when they share a page.
    if (!allocations_.empty() && allocations_.back().last_page >= first) {
      allocations_.back().last_page = std::max(allocations_.back().last_page, last);
      return;
    }
    allocations_.push_back(Allocation{first, last});
  }

  int64_t space_bytes_;
  int64_t page_size_;
  GlobalAddr next_ = 0;
  std::vector<Allocation> allocations_;
  AllocHook alloc_hook_;
};

// Why `workload` (an App or a LitmusTest) cannot run under `config`, or
// empty when it can: its own Validate, then whether its allocation plan fits,
// replayed on a bare space (its Allocate only reserves addresses). Called
// before any System exists; the machine itself is ValidateConfig's to check.
template <typename Workload, typename Config>
std::string ValidateWorkload(Workload& workload, const Config& config) {
  if (std::string why = workload.Validate(config); !why.empty()) {
    return why;
  }
  SharedSpace plan(config.shared_bytes, config.page_size);
  workload.Allocate(plan, config);
  return plan.OverflowReason(workload.name());
}

}  // namespace hlrc

#endif  // SRC_MEM_SHARED_SPACE_H_
