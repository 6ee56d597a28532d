// Dense per-page protocol state (docs/PERFORMANCE.md, "Per-page protocol
// state"). Each protocol family keeps what a node knows about a page in one
// PageMeta, in a PageId-indexed array that grows on demand to the highest
// page touched -- never sized to the shared space up front. A PageMeta is
// split in two (docs/PERFORMANCE.md, "Host memory per node"): a small dense
// hot part with what every node keeps for every page it hears a write notice
// of, and one cold block, allocated on first write, with what only a page's
// home, writers or holders keep. Reads of a page without a cold block see an
// empty one and allocate nothing. Every mutation adjusts the modelled memory
// (paper Table 6) at the point of change, so MemoryBytes() never walks.
// Notices, stored diffs and GC inventories hold the interval log's sealed
// IntervalPtr, never a vector-timestamp copy; the handle outlives log
// truncation at barriers that run no GC.
#ifndef SRC_PROTO_PAGE_META_H_
#define SRC_PROTO_PAGE_META_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/mem/diff.h"
#include "src/mem/small_vec.h"
#include "src/proto/interval_log.h"
#include "src/sim/completion.h"
#include "src/tracing/span.h"

namespace hlrc {

// PageId-indexed array that grows to the highest page touched. `Meta` owns
// its cold block as `std::unique_ptr<typename Meta::Cold> cold`.
template <typename Meta>
class PageMetaArray {
 public:
  using Cold = typename Meta::Cold;

  // Grows the array to cover `page`. Growth moves every entry: never hold
  // the reference across a call that may touch a higher page.
  Meta& at(PageId page) {
    const size_t i = static_cast<size_t>(page);
    if (i >= metas_.size()) {
      metas_.resize(i + 1);
    }
    return metas_[i];
  }
  // Never grows: past the highest page touched, an empty Meta.
  const Meta& get(PageId page) const {
    static const Meta kEmpty{};
    const size_t i = static_cast<size_t>(page);
    return i < metas_.size() ? metas_[i] : kEmpty;
  }
  // The page's cold block, allocated on first use. Never moves.
  Cold& cold_at(PageId page) {
    std::unique_ptr<Cold>& cold = at(page).cold;
    if (cold == nullptr) {
      cold = std::make_unique<Cold>();
    }
    return *cold;
  }
  // Never allocates: an empty block for pages without one.
  const Cold& cold(PageId page) const {
    static const Cold kEmpty{};
    const Cold* cold = get(page).cold.get();
    return cold != nullptr ? *cold : kEmpty;
  }
  size_t size() const { return metas_.size(); }

 private:
  std::vector<Meta> metas_;
};

// Per-writer interval stamps of one page; empty until the first is set.
using Stamps = std::vector<uint32_t>;
inline uint32_t StampOf(const Stamps& stamps, NodeId writer) {
  return stamps.empty() ? 0 : stamps[static_cast<size_t>(writer)];
}
// Raises `writer`'s stamp to at least `id`; returns 1 if `stamps` was created.
inline int RaiseStamp(Stamps* stamps, int nodes, NodeId writer, uint32_t id) {
  const int created = stamps->empty() ? 1 : 0;
  if (created != 0) {
    stamps->assign(static_cast<size_t>(nodes), 0);
  }
  uint32_t& slot = (*stamps)[static_cast<size_t>(writer)];
  slot = std::max(slot, id);
  return created;
}

// ---- Homeless LRC / OLRC ---------------------------------------------------

// One of this node's own diffs, kept until the next GC (paper §3.5).
struct StoredDiff {
  IntervalPtr rec;  // The interval that produced it (id, vector timestamp).
  Diff diff;
  bool ready = true;
  // Lazy diff policy: the creation cost is deferred to the first request.
  bool cost_charged = true;
  SimTime create_cost = 0;
  int64_t bytes = 0;
  // Requests queued while the co-processor still computes the diff (OLRC).
  std::vector<std::function<void()>> waiters;
};

// In-flight fault resolution for one page.
struct LrcFaultCtx {
  int replies_needed = 0;
  std::vector<std::pair<IntervalPtr, Diff>> collected;  // From diff replies.
  std::vector<std::byte> page_data;
  std::vector<std::pair<NodeId, uint32_t>> page_covered;
  std::unique_ptr<Completion> done;
};

// What a node keeps of a page it holds a copy of or wrote.
struct LrcColdMeta {
  Stamps covered;                 // Highest interval of each writer in the copy.
  std::vector<StoredDiff> diffs;  // Own diffs, ascending interval id.
  std::unique_ptr<LrcFaultCtx> fault;
};

// Hot part: every node keeps one for every page it hears a notice of.
struct LrcPageMeta {
  using Cold = LrcColdMeta;
  std::vector<IntervalPtr> pending;  // Write notices the copy lacks.
  NodeId owner_hint = kInvalidNode;  // Where to fetch the page after GC.
  std::unique_ptr<LrcColdMeta> cold;
};

class LrcPageTable : public PageMetaArray<LrcPageMeta> {
 public:
  explicit LrcPageTable(int nodes) : nodes_(nodes) {}

  void AddNotice(PageId page, const IntervalPtr& rec) {
    at(page).pending.push_back(rec);
    ++pending_count_;
  }
  bool HasPending(PageId page) const { return !get(page).pending.empty(); }
  // The pending notice of (writer, id); aborts if there is none.
  const IntervalPtr& PendingNotice(PageId page, NodeId writer, uint32_t id) const {
    const std::vector<IntervalPtr>& pending = get(page).pending;
    auto it = std::find_if(pending.begin(), pending.end(), [&](const IntervalPtr& rec) {
      return rec->writer == writer && rec->id == id;
    });
    HLRC_CHECK(it != pending.end());
    return *it;
  }
  // Drops the notices the local copy already covers.
  void PrunePendingCovered(PageId page) {
    const Stamps& covered = cold(page).covered;
    std::vector<IntervalPtr>& pending = at(page).pending;
    const size_t before = pending.size();
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&](const IntervalPtr& rec) {
                                   return rec->id <= StampOf(covered, rec->writer);
                                 }),
                  pending.end());
    pending_count_ -= static_cast<int64_t>(before - pending.size());
  }

  uint32_t Covered(PageId page, NodeId writer) const { return StampOf(cold(page).covered, writer); }
  void SetCovered(PageId page, NodeId writer, uint32_t id) {
    covered_pages_ += RaiseStamp(&cold_at(page).covered, nodes_, writer, id);
  }

  void AddDiff(PageId page, StoredDiff sd) {
    std::vector<StoredDiff>& diffs = cold_at(page).diffs;
    HLRC_CHECK(diffs.empty() || diffs.back().rec->id < sd.rec->id);
    if (diffs.empty()) {
      diff_pages_.push_back(page);
    }
    ++diff_count_;
    diff_bytes_ += sd.bytes;
    diffs.push_back(std::move(sd));
  }
  StoredDiff* FindDiff(PageId page, uint32_t id) {
    if (cold(page).diffs.empty()) {
      return nullptr;
    }
    std::vector<StoredDiff>& diffs = cold_at(page).diffs;
    auto it = std::partition_point(diffs.begin(), diffs.end(),
                                   [id](const StoredDiff& sd) { return sd.rec->id < id; });
    return it != diffs.end() && it->rec->id == id ? &*it : nullptr;
  }
  // Per page holding diffs, ascending: the latest interval that wrote it.
  std::vector<std::pair<PageId, IntervalPtr>> Inventory() {
    std::sort(diff_pages_.begin(), diff_pages_.end());
    std::vector<std::pair<PageId, IntervalPtr>> entries;
    entries.reserve(diff_pages_.size());
    for (PageId page : diff_pages_) {
      entries.emplace_back(page, cold(page).diffs.back().rec);
    }
    return entries;
  }
  void ClearDiffs() {
    for (PageId page : diff_pages_) {
      cold_at(page).diffs.clear();
    }
    diff_pages_.clear();
    diff_count_ = 0;
    diff_bytes_ = 0;
  }

  // GC release of a stale copy: forgets its notices and covered stamps.
  void DropCopy(PageId page) {
    std::vector<IntervalPtr>& pending = at(page).pending;
    pending_count_ -= static_cast<int64_t>(pending.size());
    pending.clear();
    if (!cold(page).covered.empty()) {
      cold_at(page).covered.clear();
      --covered_pages_;
    }
  }
  // kInvalidNode until a GC named the page's validator.
  NodeId OwnerHint(PageId page) const { return get(page).owner_hint; }
  void SetOwnerHint(PageId page, NodeId owner) {
    owner_hints_ += at(page).owner_hint == kInvalidNode ? 1 : 0;
    at(page).owner_hint = owner;
  }

  int64_t diff_count() const { return diff_count_; }
  int64_t pending_count() const { return pending_count_; }
  // Pending notices carry the writer's full vector timestamp in the
  // homeless protocols (paper §4.7), so each costs 8 + 4N bytes.
  int64_t MemoryBytes() const {
    return diff_bytes_ + pending_count_ * (8 + 4 * static_cast<int64_t>(nodes_)) +
           covered_pages_ * 4 * nodes_ + owner_hints_ * 8;
  }

 private:
  int nodes_;
  std::vector<PageId> diff_pages_;  // Pages with a non-empty diff list.
  int64_t diff_count_ = 0;
  int64_t diff_bytes_ = 0;
  int64_t pending_count_ = 0;
  int64_t covered_pages_ = 0;
  int64_t owner_hints_ = 0;
};

// ---- Home-based HLRC / OHLRC / AURC ----------------------------------------

struct FlushStamp {
  NodeId writer;
  uint32_t id;
};
// Flush timestamps a fetch needs applied at the home. Most pages have one or
// two writers.
using Required = SmallVec<FlushStamp, 2>;
// Immutable page snapshot shared between replies (request combining) and
// with the delivered payload.
using PageSnapshot = std::shared_ptr<const std::vector<std::byte>>;

struct FaultWait {
  PageSnapshot data;  // Page contents from the home's reply.
  // Set when a home transfer satisfied the fetch and already installed the
  // master (with twin rebase): the fetch path must not install again.
  bool already_installed = false;
  std::unique_ptr<Completion> done;
};

struct PendingReq {
  NodeId requester;
  Required required;
  // Span tracing: the parked request's causal context and park time, so the
  // home-wait stretch shows up on the requester's fault critical path.
  SpanId span = kNoSpan;
  SimTime parked_at = 0;
};

struct WriterStreak {
  NodeId writer = kInvalidNode;  // kInvalidNode: no streak.
  int count = 0;
};

// What a page's home (applied stamps, parked requests, migration streak)
// or a node that learned of a migration keeps.
struct HlrcColdMeta {
  Stamps applied;                       // Home side.
  std::vector<PendingReq> parked;       // Requests waiting for in-flight diffs.
  NodeId home_override = kInvalidNode;  // Migration override, if known.
  WriterStreak streak;
};

// Hot part: every node keeps one for every page it hears a notice of.
struct HlrcPageMeta {
  using Cold = HlrcColdMeta;
  Required required;            // Faulting side; never shrinks.
  uint64_t required_epoch = 0;  // Bumped whenever `required` grows.
  std::unique_ptr<FaultWait> fault;
  std::unique_ptr<HlrcColdMeta> cold;
};

class HlrcPageTable : public PageMetaArray<HlrcPageMeta> {
 public:
  explicit HlrcPageTable(int nodes) : nodes_(nodes) {}

  void UpdateRequired(PageId page, NodeId writer, uint32_t id) {
    HlrcPageMeta& m = at(page);
    for (FlushStamp& s : m.required) {
      if (s.writer == writer) {
        m.required_epoch += id > s.id ? 1 : 0;
        s.id = std::max(s.id, id);
        return;
      }
    }
    m.required.push_back(FlushStamp{writer, id});
    ++m.required_epoch;
    ++required_stamps_;
  }
  // Whether the home has applied every flush this node requires of `page`.
  bool RequiredApplied(PageId page) const { return AppliedSatisfies(page, get(page).required); }
  uint64_t RequiredEpoch(PageId page) const { return get(page).required_epoch; }

  void SetApplied(PageId page, NodeId writer, uint32_t id) {
    applied_pages_ += RaiseStamp(&cold_at(page).applied, nodes_, writer, id);
  }
  uint32_t GetApplied(PageId page, NodeId writer) const {
    return StampOf(cold(page).applied, writer);
  }
  bool AppliedSatisfies(PageId page, const Required& required) const {
    const Stamps& applied = cold(page).applied;
    return std::all_of(required.begin(), required.end(),
                       [&](const FlushStamp& s) { return StampOf(applied, s.writer) >= s.id; });
  }
  // Home migration: hands the applied stamps over (zeros if none) and
  // forgets them here.
  Stamps TakeApplied(PageId page) {
    Stamps applied = std::exchange(cold_at(page).applied, Stamps{});
    applied_pages_ -= applied.empty() ? 0 : 1;
    applied.resize(static_cast<size_t>(nodes_), 0);
    return applied;
  }
  void AdoptApplied(PageId page, Stamps applied) {
    HLRC_CHECK(static_cast<int>(applied.size()) == nodes_);
    Stamps& slot = cold_at(page).applied;
    applied_pages_ += slot.empty() ? 1 : 0;
    slot = std::move(applied);
  }

  NodeId HomeOverride(PageId page) const { return cold(page).home_override; }  // Or kInvalidNode.
  void SetHomeOverride(PageId page, NodeId home) {
    NodeId& slot = cold_at(page).home_override;
    overrides_ += slot == kInvalidNode ? 1 : 0;
    slot = home;
  }

  // Counts one flush of `page` from `writer`. True, with the streak
  // forgotten, once `threshold` consecutive flushes came from it.
  bool CountStreak(PageId page, NodeId writer, int threshold) {
    WriterStreak& streak = cold_at(page).streak;
    streaks_ += streak.writer == kInvalidNode ? 1 : 0;
    if (streak.writer != writer) {
      streak = WriterStreak{writer, 0};
    }
    if (++streak.count < threshold) {
      return false;
    }
    ClearStreak(page);
    return true;
  }
  void ClearStreak(PageId page) {
    if (cold(page).streak.writer != kInvalidNode) {
      cold_at(page).streak = WriterStreak{};
      --streaks_;
    }
  }

  void Park(PageId page, PendingReq req) { cold_at(page).parked.push_back(std::move(req)); }
  // Removes and returns, in arrival order, the parked requests whose
  // required stamps are applied now (`all`: every parked request).
  std::vector<PendingReq> TakeParked(PageId page, bool all) {
    std::vector<PendingReq> taken;
    if (cold(page).parked.empty()) {
      return taken;
    }
    std::vector<PendingReq>& parked = cold_at(page).parked;
    auto kept = parked.begin();
    for (PendingReq& req : parked) {
      if (all || AppliedSatisfies(page, req.required)) {
        taken.push_back(std::move(req));
      } else {
        *kept++ = std::move(req);
      }
    }
    parked.erase(kept, parked.end());
    return taken;
  }

  // Per-page flush timestamps (paper §4.7: no vector timestamps).
  int64_t MemoryBytes() const {
    return required_stamps_ * 8 + applied_pages_ * 4 * nodes_ + overrides_ * 8 + streaks_ * 12;
  }

 private:
  int nodes_;
  int64_t required_stamps_ = 0;
  int64_t applied_pages_ = 0;
  int64_t overrides_ = 0;
  int64_t streaks_ = 0;
};

}  // namespace hlrc

#endif  // SRC_PROTO_PAGE_META_H_
