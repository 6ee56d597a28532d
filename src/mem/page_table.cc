#include "src/mem/page_table.h"

#include <sys/mman.h>

#include <cstring>

namespace hlrc {

PageTable::PageTable(int64_t space_bytes, int64_t page_size)
    : space_bytes_(space_bytes), page_size_(page_size) {
  HLRC_CHECK(page_size > 0 && (page_size & (page_size - 1)) == 0);
  HLRC_CHECK(space_bytes > 0 && space_bytes % page_size == 0);
  num_pages_ = static_cast<int>(space_bytes / page_size);
  // One mapping: the mirror, then (aligned) the state array. Anonymous
  // memory reads as zeros, which is every page's default state.
  constexpr int64_t kAlign = alignof(PageState);
  const int64_t states_at = (space_bytes_ + kAlign - 1) / kAlign * kAlign;
  map_bytes_ = static_cast<size_t>(states_at) +
               static_cast<size_t>(num_pages_) * sizeof(PageState);
  void* mem = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
  HLRC_CHECK_MSG(mem != MAP_FAILED, "mmap of %lld bytes failed",
                 static_cast<long long>(map_bytes_));
  base_ = static_cast<std::byte*>(mem);
  states_ = reinterpret_cast<PageState*>(base_ + states_at);
}

// Twin buffers are freed by twin_bufs_; no per-page walk.
PageTable::~PageTable() { ::munmap(base_, map_bytes_); }

void PageTable::MakeTwin(PageId p) {
  PageState& st = State(p);
  HLRC_CHECK(st.twin_ == nullptr);
  if (!twin_free_.empty()) {
    st.twin_ = twin_free_.back();
    twin_free_.pop_back();
    ++twin_pool_hits_;
  } else {
    twin_bufs_.push_back(
        std::make_unique_for_overwrite<std::byte[]>(static_cast<size_t>(page_size_)));
    st.twin_ = twin_bufs_.back().get();
  }
  std::memcpy(st.twin_, PageData(p), static_cast<size_t>(page_size_));
  ++twin_count_;
}

void PageTable::DropTwin(PageId p) {
  PageState& st = State(p);
  if (st.twin_ != nullptr) {
    twin_free_.push_back(st.twin_);
    st.twin_ = nullptr;
    --twin_count_;
  }
}

}  // namespace hlrc
