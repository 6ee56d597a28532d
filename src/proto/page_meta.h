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
#include "src/proto/page_runs.h"
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
  // Immutable and shared with every diff reply that carries it: a reply
  // copies no diff bytes, and a GC's ClearDiffs leaves in-flight replies
  // their handle.
  std::shared_ptr<const Diff> diff;
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
  // From diff replies: each pending notice's interval and its writer's diff.
  std::vector<std::pair<IntervalPtr, std::shared_ptr<const Diff>>> collected;
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

// Hot part: a node keeps one for every page it faulted on, wrote or
// served.
struct LrcPageMeta {
  using Cold = LrcColdMeta;
  // Write notices the copy lacks, ascending by (writer, id), as of notice
  // `resolved`; the table's per-writer index holds the later ones.
  std::vector<IntervalPtr> pending;
  uint32_t resolved = 0;
  bool held = false;  // Listed in the table's held pages.
  std::unique_ptr<LrcColdMeta> cold;
};

// A node's pending write notices are not listed per page as they arrive
// (docs/PERFORMANCE.md, "Write-notice work"). Applying an interval only
// invalidates the pages mapped here; every notice stays in its sealed
// interval record. The records are indexed per writer by page runs and
// numbered in the order they were learned. Resolve(page) lists the notices
// numbered after the page's `resolved` mark, costing O(writers x log runs)
// however many intervals are known. It runs before anything reads the
// page's notices, copy or covered stamps. The modelled memory counts every
// pending notice from the moment it is learned, wherever it is kept.
//
// Garbage collection releases pending notices the same way. At a GC
// release every page holding pending notices here has its copy dropped
// (its last writer validated it). The pages "held" here, those with listed
// notices or covered stamps, are dropped one by one. Every other page's
// notices are unlisted ones: the GC records their pages by run instead
// (`gc_dropped_`), and Resolve drops the copy the next time the page is
// asked for.
class LrcPageTable : public PageMetaArray<LrcPageMeta> {
 public:
  explicit LrcPageTable(int nodes) : nodes_(nodes) {}

  // Numbers the next interval learned: 1, 2, ...
  uint32_t NextNotice() { return ++notice_seq_; }
  // The kLrcSkipInvalidate mutation drops the notice of interval `seq` for
  // a page mapped here: it is never pending.
  void SkipNotice(PageId page, uint32_t seq) {
    at(page).resolved = seq;
    Hold(page);
  }
  // The `count` pending notices of interval `seq`: indexed, not listed.
  void AddNotices(const IntervalPtr& rec, uint32_t seq, int64_t count) {
    if (writers_.empty()) {
      writers_.resize(static_cast<size_t>(nodes_));
    }
    WriterNotices& wn = writers_[static_cast<size_t>(rec->writer)];
    const uint32_t pos = static_cast<uint32_t>(wn.recs.size());
    wn.recs.emplace_back(seq, rec);
    ForEachPageRun(rec->pages, [&](PageId first, PageId last) {
      wn.pages.Update(first, last,
                      [pos](PageId, PageId, std::vector<uint32_t>& list) { list.push_back(pos); });
      latest_.Update(first, last, [seq](PageId, PageId, uint32_t& latest) { latest = seq; });
    });
    pending_count_ += count;
    unlisted_count_ += count;
  }

  // Brings the page's pending list up to date. Returns true if a GC has
  // dropped the page's copy since it was last resolved: the caller then
  // unmaps the copy and forgets it.
  bool Resolve(PageId page) {
    LrcPageMeta& m = at(page);
    if (m.resolved == notice_seq_) {
      return false;  // Nothing learned, and no GC drop, since the last call.
    }
    const bool dropped = DroppedSince(page, m.resolved);
    // A dropped page held nothing: its notices were all unlisted ones.
    HLRC_DCHECK(!dropped || (m.pending.empty() && cold(page).covered.empty()));
    if (!UnlistedSince(page, m.resolved)) {
      m.resolved = notice_seq_;
      return dropped;
    }
    const size_t listed = m.pending.size();
    ListUnlisted(page, m.resolved, &m.pending, listed);
    m.resolved = notice_seq_;
    unlisted_count_ -= static_cast<int64_t>(m.pending.size() - listed);
    Hold(page);
    return dropped;
  }
  // For consistency checks: the pending list Resolve(page) would leave, and
  // whether it would report a GC drop, without resolving the page.
  std::vector<IntervalPtr> PeekPending(PageId page) const {
    const LrcPageMeta& m = get(page);
    std::vector<IntervalPtr> pending = m.pending;
    ListUnlisted(page, m.resolved, &pending, pending.size());
    return pending;
  }
  bool PeekDropped(PageId page) const { return DroppedSince(page, get(page).resolved); }
  // Whether the page has pending notices, listed or not, without resolving
  // it.
  bool AnyPending(PageId page) const {
    const LrcPageMeta& m = get(page);
    return !m.pending.empty() || UnlistedSince(page, m.resolved);
  }

  // The pending list as of the last Resolve.
  bool HasPending(PageId page) const { return !get(page).pending.empty(); }
  const std::vector<IntervalPtr>& Pending(PageId page) const { return get(page).pending; }
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
    Hold(page);
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
  // GC release, given the round's validators (ascending by page). A copy
  // with pending notices here, listed or not, is stale if its page's
  // validator is another node. Each held page that is stale calls
  // `unmap(page)` and is forgotten here, notices and covered stamps,
  // without resolving it; a kept one is resolved. Every other unlisted
  // notice names a page that is not held here, and such a page is always
  // stale: it has a validator, since every page written since the last GC
  // has one, and the validator is not this node, whose own writes leave
  // covered stamps and so hold the page. The table drops those notices all
  // at once and records their pages by run, so that Resolve drops those
  // copies the next time each page is asked for. Only pages that still have
  // notices or covered stamps stay held.
  template <typename Unmap>
  void ReleaseGc(const std::vector<std::pair<PageId, NodeId>>& validators, NodeId self,
                 Unmap unmap) {
    auto stale = [&](PageId page) {
      auto it = std::lower_bound(validators.begin(), validators.end(),
                                 std::make_pair(page, kInvalidNode));
      return it != validators.end() && it->first == page && it->second != self;
    };
#ifndef NDEBUG
    for (const auto& run : latest_.runs()) {
      for (PageId page = run.first; page <= run.last; ++page) {
        HLRC_DCHECK(get(page).held || stale(page));
      }
    }
#endif
    for (size_t i = 0; i < held_.size(); ++i) {  // Resolve adds no pages.
      const PageId page = held_[i];
      if (AnyPending(page)) {
        if (stale(page)) {
          unmap(page);
          DropCopy(page);
        } else {
          Resolve(page);
        }
      }
      at(page).resolved = notice_seq_;
    }
    auto kept = std::remove_if(held_.begin(), held_.end(), [this](PageId page) {
      LrcPageMeta& m = at(page);
      m.held = !m.pending.empty() || !cold(page).covered.empty();
      return !m.held;
    });
    held_.erase(kept, held_.end());
    for (WriterNotices& wn : writers_) {
      wn.recs.clear();
      wn.pages.clear();
    }
    for (const auto& run : latest_.runs()) {
      gc_dropped_.Update(run.first, run.last,
                         [this](PageId, PageId, uint32_t& seq) { seq = notice_seq_; });
    }
    latest_.clear();
    pending_count_ -= unlisted_count_;
    unlisted_count_ = 0;
  }
  // Pages that every GC so far named (modelled as one owner hint each).
  void SetOwnerHints(int64_t pages) { owner_hints_ = pages; }

  int64_t diff_count() const { return diff_count_; }
  int64_t pending_count() const { return pending_count_; }
  // Pending notices carry the writer's full vector timestamp in the
  // homeless protocols (paper §4.7), so each costs 8 + 4N bytes.
  int64_t MemoryBytes() const {
    return diff_bytes_ + pending_count_ * (8 + 4 * static_cast<int64_t>(nodes_)) +
           covered_pages_ * 4 * nodes_ + owner_hints_ * 8;
  }

 private:
  // One writer's notices since the last GC: its records as learned (notice
  // number, record), and for each page run the positions of the records
  // naming it.
  struct WriterNotices {
    std::vector<std::pair<uint32_t, IntervalPtr>> recs;
    PageRuns<std::vector<uint32_t>> pages;
  };

  static bool NoticeLess(const IntervalPtr& a, const IntervalPtr& b) {
    return a->writer != b->writer ? a->writer < b->writer : a->id < b->id;
  }
  // Whether an unlisted notice numbered after `seq` names the page.
  bool UnlistedSince(PageId page, uint32_t seq) const {
    const uint32_t* latest = latest_.Find(page);
    return latest != nullptr && *latest > seq;
  }
  // Whether a GC dropped the page's copy after notice `seq`.
  bool DroppedSince(PageId page, uint32_t seq) const {
    const uint32_t* gc = gc_dropped_.Find(page);
    return gc != nullptr && *gc > seq;
  }
  // Appends the unlisted notices of the page numbered after `seq` to
  // `pending`, whose first `listed` entries are sorted, and merges: the
  // result ascends by (writer, id).
  void ListUnlisted(PageId page, uint32_t seq, std::vector<IntervalPtr>* pending,
                    size_t listed) const {
    for (const WriterNotices& wn : writers_) {
      if (wn.recs.empty() || wn.recs.back().first <= seq) {
        continue;
      }
      const std::vector<uint32_t>* list = wn.pages.Find(page);
      if (list == nullptr) {
        continue;
      }
      auto it = std::partition_point(list->begin(), list->end(),
                                     [&](uint32_t i) { return wn.recs[i].first <= seq; });
      for (; it != list->end(); ++it) {
        pending->push_back(wn.recs[*it].second);
      }
    }
    if (listed > 0) {
      std::inplace_merge(pending->begin(), pending->begin() + static_cast<ptrdiff_t>(listed),
                         pending->end(), NoticeLess);
    }
  }
  void Hold(PageId page) {
    LrcPageMeta& m = at(page);
    if (!m.held) {
      m.held = true;
      held_.push_back(page);
    }
  }

  int nodes_;
  uint32_t notice_seq_ = 0;
  std::vector<WriterNotices> writers_;  // Per writer; sized on first use.
  PageRuns<uint32_t> latest_;           // The newest notice of each page.
  PageRuns<uint32_t> gc_dropped_;        // Notice number of the page's last GC drop.
  std::vector<PageId> held_;
  std::vector<PageId> diff_pages_;  // Pages with a non-empty diff list.
  int64_t diff_count_ = 0;
  int64_t diff_bytes_ = 0;
  int64_t pending_count_ = 0;   // Listed and unlisted.
  int64_t unlisted_count_ = 0;  // Unlisted only.
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

// Hot part: a node keeps one for every page it maps, homes, wrote or
// faulted on.
struct HlrcPageMeta {
  using Cold = HlrcColdMeta;
  // Faulting side; never shrinks. Complete for the pages that take write
  // notices eagerly (mapped or homed here, or in a run of fewer than
  // kMinDeferredRun other pages); for any other page, the notices since its
  // last Resolve are in the table's per-writer summaries.
  Required required;
  uint32_t required_epoch = 0;  // Bumped whenever `required` grows.
  uint32_t resolved = 0;        // The table's deferral count at the last Resolve.
  std::unique_ptr<FaultWait> fault;
  std::unique_ptr<HlrcColdMeta> cold;
};

class HlrcPageTable : public PageMetaArray<HlrcPageMeta> {
 public:
  // The shortest run of consecutive pages, none mapped or homed here, whose
  // notices the protocol defers (DeferNotices) instead of stamping them.
  static constexpr PageId kMinDeferredRun = 4;

  explicit HlrcPageTable(int nodes) : nodes_(nodes) {}

  // Raises `writer`'s required stamp of `page` to at least `id`: an own
  // flush, or a write notice taken eagerly (the page is mapped or homed
  // here).
  void UpdateRequired(PageId page, NodeId writer, uint32_t id) {
    if (RaiseRequired(page, writer, id) && !Summarized(page, writer)) {
      ++stamps_;
    }
  }
  // Write notices of `writer`'s interval `id` for pages [first, last], none
  // of them mapped or homed here, at least kMinDeferredRun of them:
  // recorded in the writer's run summary of the highest interval that wrote
  // each page, not in the pages' stamps.
  void DeferNotices(NodeId writer, uint32_t id, PageId first, PageId last) {
    if (notices_.empty()) {
      notices_.resize(static_cast<size_t>(nodes_));
      deferred_at_.resize(static_cast<size_t>(nodes_));
    }
    deferred_at_[static_cast<size_t>(writer)] = ++deferrals_;
    notices_[static_cast<size_t>(writer)].Update(
        first, last, [&](PageId a, PageId b, uint32_t& latest) {
          if (latest == 0) {  // Pages this writer's summary names for the first time.
            for (PageId page = a; page <= b; ++page) {
              stamps_ += HasStamp(page, writer) ? 0 : 1;
            }
          }
          latest = id;
        });
  }
  // Folds the summarized notices of `page` into its required stamps, as if
  // each had been taken eagerly: O(writers x log runs), searching only the
  // summaries of writers that deferred notices since the page's last call.
  void Resolve(PageId page) {
    if (at(page).resolved == deferrals_) {
      return;
    }
    ForEachDeferred(page, [&](NodeId writer, uint32_t id) { RaiseRequired(page, writer, id); });
    at(page).resolved = deferrals_;
  }
  // For consistency checks: the required stamps Resolve(page) would leave,
  // without resolving the page.
  Required PeekRequired(PageId page) const {
    Required required = get(page).required;
    ForEachDeferred(page, [&](NodeId writer, uint32_t id) { Raise(&required, writer, id); });
    return required;
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

  // Per-page flush timestamps (paper §4.7: no vector timestamps): one
  // required stamp per (page, writer) pair ever announced or flushed,
  // whether a page's stamps or a writer's summary holds it.
  int64_t MemoryBytes() const {
    return stamps_ * 8 + applied_pages_ * 4 * nodes_ + overrides_ * 8 + streaks_ * 12;
  }

 private:
  bool HasStamp(PageId page, NodeId writer) const {
    const Required& required = get(page).required;
    return std::any_of(required.begin(), required.end(),
                       [writer](const FlushStamp& s) { return s.writer == writer; });
  }
  bool Summarized(PageId page, NodeId writer) const {
    return !notices_.empty() && notices_[static_cast<size_t>(writer)].Find(page) != nullptr;
  }
  // Raises `writer`'s stamp in `required` to at least `id`; true if it grew
  // (a new stamp grows it).
  static bool Raise(Required* required, NodeId writer, uint32_t id) {
    for (FlushStamp& s : *required) {
      if (s.writer == writer) {
        const bool grew = id > s.id;
        s.id = std::max(s.id, id);
        return grew;
      }
    }
    required->push_back(FlushStamp{writer, id});
    return true;
  }
  // Raises the stamp (bumping the epoch if it grows); true if it is new.
  bool RaiseRequired(PageId page, NodeId writer, uint32_t id) {
    HlrcPageMeta& m = at(page);
    const size_t before = m.required.size();
    m.required_epoch += Raise(&m.required, writer, id) ? 1 : 0;
    return m.required.size() > before;
  }
  // Calls `fn(writer, id)` for each summarized notice of `page` that a
  // writer deferred since the page's last Resolve: O(writers x log runs).
  template <typename Fn>
  void ForEachDeferred(PageId page, Fn fn) const {
    const uint32_t since = get(page).resolved;
    if (since == deferrals_) {
      return;
    }
    for (size_t w = 0; w < notices_.size(); ++w) {
      if (deferred_at_[w] > since) {
        if (const uint32_t* id = notices_[w].Find(page)) {
          fn(static_cast<NodeId>(w), *id);
        }
      }
    }
  }

  int nodes_;
  // Per writer, the highest interval announced for each page whose notice
  // was not taken eagerly; sized on the first such notice.
  std::vector<PageRuns<uint32_t>> notices_;
  std::vector<uint32_t> deferred_at_;  // Per writer: `deferrals_` at its latest.
  uint32_t deferrals_ = 0;             // DeferNotices calls so far.
  int64_t stamps_ = 0;  // Distinct (page, writer) pairs, stamps or summaries.
  int64_t applied_pages_ = 0;
  int64_t overrides_ = 0;
  int64_t streaks_ = 0;
};

}  // namespace hlrc

#endif  // SRC_PROTO_PAGE_META_H_
