// Run-length map over page ids (docs/PERFORMANCE.md, "Write-notice work").
//
// A node hears of far more pages than it maps: an interval's write notices
// name every page the writer dirtied, and most of them are pages the
// receiver neither maps nor homes. The protocols therefore summarize
// notices per writer as runs of consecutive pages instead of per page, and
// answer "what did writer w announce for page p" with one binary search.
// PageRuns<T> is that summary: sorted, disjoint runs [first, last], each
// carrying one T. Adjacent runs with equal values merge, so a writer that
// keeps rewriting the same band stays a single run.
#ifndef SRC_PROTO_PAGE_RUNS_H_
#define SRC_PROTO_PAGE_RUNS_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace hlrc {

template <typename T>
class PageRuns {
 public:
  struct Run {
    PageId first;
    PageId last;
    T value;
  };

  // Calls `fn(first, last, T&)` for each sub-run covering [first, last]:
  // runs crossing a bound split there, and pages no run covered start from
  // T{} (`fn` can tell them by that value).
  template <typename Fn>
  void Update(PageId first, PageId last, Fn fn) {
    HLRC_CHECK(first <= last);
    auto begin = std::partition_point(runs_.begin(), runs_.end(),
                                      [first](const Run& r) { return r.last < first; });
    const size_t at = static_cast<size_t>(begin - runs_.begin());
    if (begin != runs_.end() && begin->first == first && begin->last == last) {
      fn(first, last, begin->value);  // The common case: a writer rewriting the same run.
      Coalesce(at == 0 ? 0 : at - 1, at + 1);
      return;
    }
    if (begin == runs_.end() || begin->first > last) {
      // No overlap: one new run (a writer's first notice of these pages).
      fn(first, last, runs_.insert(begin, Run{first, last, T{}})->value);
      Coalesce(at == 0 ? 0 : at - 1, at + 1);
      return;
    }
    auto end = begin;
    std::vector<Run>& mid = scratch_;
    mid.clear();
    auto add = [&](PageId a, PageId b, const T& value) {
      mid.push_back(Run{a, b, value});
      fn(a, b, mid.back().value);
    };
    PageId cursor = first;
    for (; end != runs_.end() && end->first <= last; ++end) {
      if (end->first < cursor) {
        mid.push_back(Run{end->first, cursor - 1, end->value});  // Left of the bound.
      } else if (end->first > cursor) {
        add(cursor, end->first - 1, T{});
      }
      add(std::max(end->first, cursor), std::min(end->last, last), end->value);
      if (end->last > last) {
        mid.push_back(Run{last + 1, end->last, end->value});  // Right of the bound.
      }
      cursor = end->last + 1;
    }
    if (cursor <= last) {
      add(cursor, last, T{});
    }
    const size_t n = mid.size();
    auto pos = runs_.erase(begin, end);
    runs_.insert(pos, std::make_move_iterator(mid.begin()), std::make_move_iterator(mid.end()));
    Coalesce(at == 0 ? 0 : at - 1, at + n);
  }

  // The value covering `page`, or nullptr.
  const T* Find(PageId page) const {
    auto it = std::partition_point(runs_.begin(), runs_.end(),
                                   [page](const Run& r) { return r.last < page; });
    return it != runs_.end() && it->first <= page ? &it->value : nullptr;
  }

  const std::vector<Run>& runs() const { return runs_; }
  void clear() { runs_.clear(); }

 private:
  // Merges equal-valued neighbours among runs_[lo, hi].
  void Coalesce(size_t lo, size_t hi) {
    hi = std::min(hi, runs_.size() - 1);
    size_t out = lo;
    for (size_t i = lo + 1; i <= hi; ++i) {
      Run& prev = runs_[out];
      if (prev.last + 1 == runs_[i].first && prev.value == runs_[i].value) {
        prev.last = runs_[i].last;
      } else if (++out != i) {
        runs_[out] = std::move(runs_[i]);
      }
    }
    runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(out + 1),
                runs_.begin() + static_cast<std::ptrdiff_t>(hi + 1));
  }

  std::vector<Run> runs_;
  std::vector<Run> scratch_;  // Update's replacement runs, kept for reuse.
};

// Calls `fn(first, last)` for each run of consecutive pages in a sorted page
// list (an interval record's write notices).
template <typename Pages, typename Fn>
void ForEachPageRun(const Pages& pages, Fn fn) {
  for (size_t i = 0; i < pages.size();) {
    size_t j = i + 1;
    while (j < pages.size() && pages[j] == pages[j - 1] + 1) {
      ++j;
    }
    fn(pages[i], pages[j - 1]);
    i = j;
  }
}

}  // namespace hlrc

#endif  // SRC_PROTO_PAGE_RUNS_H_
