// Word-granularity page diffs.
//
// A diff records the words of a dirty page that differ from its twin (the
// clean copy snapshotted at the first write of an interval), as a list of
// contiguous runs. Diffs are created by writers at interval end (or on
// demand), shipped to readers (LRC) or to the page's home (HLRC), and applied
// onto a target copy. Contents are computed from real page bytes, so diff
// sizes — and therefore traffic and apply costs — are exact, not modelled.
//
// Hot-path layout (docs/PERFORMANCE.md): run payloads are concatenated into
// one contiguous buffer instead of one vector per run, so a diff costs at
// most two allocations regardless of run count, and DataBytes/EncodedSize —
// called on every traffic-accounting path — are O(1). CreateDiff
// short-circuits clean pages with a single whole-page memcmp and scans 8
// bytes at a time; CreateDiffReference keeps the original word-by-word
// implementation for differential testing (tests/test_diff_fast.cc).
#ifndef SRC_MEM_DIFF_H_
#define SRC_MEM_DIFF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace hlrc {

struct DiffRun {
  uint32_t offset = 0;       // Byte offset within the page.
  uint32_t length = 0;       // Payload bytes (multiple of the word size).
  uint32_t data_offset = 0;  // Payload position within Diff::data.
};

struct Diff {
  PageId page = kInvalidPage;
  std::vector<DiffRun> runs;
  std::vector<std::byte> data;  // All run payloads, concatenated in run order.

  bool Empty() const { return runs.empty(); }

  // New contents of run `r`, `r.length` bytes.
  const std::byte* RunData(const DiffRun& r) const { return data.data() + r.data_offset; }

  // Total payload bytes carried.
  int64_t DataBytes() const { return static_cast<int64_t>(data.size()); }

  // Wire/storage footprint: per-diff header + per-run (offset, length) +
  // payload. Cached at creation; debug builds assert the cache against a
  // recomputation so a mutated diff cannot ship a stale size.
  int64_t EncodedSize() const;

  static constexpr int64_t kHeaderBytes = 16;
  static constexpr int64_t kRunHeaderBytes = 8;

  // Set by CreateDiff; negative means "compute on demand" (hand-built diffs).
  int64_t cached_encoded_size = -1;
};

// Compares `current` against `twin` with `word_bytes` granularity (4 or 8)
// and returns the diff. `page_bytes` must be a multiple of `word_bytes`.
Diff CreateDiff(PageId page, const std::byte* twin, const std::byte* current,
                int64_t page_bytes, int word_bytes);

// The pre-optimization implementation (per-word memcmp, no clean-page
// short-circuit). Kept as the differential-testing oracle for CreateDiff and
// as the baseline kernel of table3_basic_costs' BM_DiffCreate; must produce
// byte-identical runs.
Diff CreateDiffReference(PageId page, const std::byte* twin, const std::byte* current,
                         int64_t page_bytes, int word_bytes);

// Applies `diff` onto `target` (a page-sized buffer).
void ApplyDiff(const Diff& diff, std::byte* target, int64_t page_bytes);

}  // namespace hlrc

#endif  // SRC_MEM_DIFF_H_
