// Differential tests for per-page protocol state (docs/PERFORMANCE.md,
// "Per-page protocol state" and "Write-notice work"). The LrcPageTable /
// HlrcPageTable, driven the way LrcProtocol and HlrcProtocol drive them,
// must behave exactly like the page-keyed maps the protocols kept before
// them, which took every write notice page by page. The replaced maps are
// copied below as the reference model. ~1000 randomized episodes per family
// interleave interval application (eager for mapped or homed pages,
// deferred for the rest), faults and diff/page fetches with notices
// arriving mid-fetch, own interval closes, GC inventory/validate/release,
// barriers without GC (interval-log truncation while notices survive),
// the lrc-skip-invalidate canary, and home migration with parked requests.
// After every step the two must agree on every page, each one read as the
// table would resolve it but without resolving it (PeekPending /
// PeekRequired): copy state, pending list (contents and per-writer order),
// covered stamps, stored diffs and owner hint (LRC); required stamps,
// applied stamps, parked requests, home overrides and streaks (HLRC); and
// on the modelled memory, recounted from those pages. Each page a step
// resolves is compared as stored too, and each fetch checks required-epoch
// change detection. Owner hints come from the protocol's own GC round fold
// (FoldGcRound). At the end of an episode every page is resolved and
// compared once more.
#include "src/proto/page_meta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/proto/interval_log.h"
#include "src/proto/lrc.h"
#include "src/proto/vector_clock.h"

namespace hlrc {
namespace {

// ---------------------------------------------------------------------------
// Reference model: LrcProtocol's page-keyed maps and the code that mutated
// them, verbatim apart from the surrounding protocol plumbing.

class RefLrc {
 public:
  explicit RefLrc(int nodes) : nodes_(nodes) {}
  int nodes() const { return nodes_; }

  struct StoredDiff {
    Diff diff;
    VectorClock vt;  // Writer's vt at the interval that produced the diff.
    bool ready = true;
    bool cost_charged = true;
    SimTime create_cost = 0;
    int64_t bytes = 0;
  };
  using DiffKey = std::pair<PageId, uint32_t>;

  struct PendingWn {
    NodeId writer;
    uint32_t id;
    VectorClock vt;
  };

  // OnWriteNotice.
  void OnWriteNotice(const IntervalRecord& rec, PageId page) {
    pending_[page].push_back(PendingWn{rec.writer, rec.id, rec.vt});
    ++pending_count_;
  }

  // OnIntervalClosed, per kept page.
  void StoreDiff(PageId p, const IntervalRecord& rec, int64_t bytes) {
    SetCovered(p, rec.writer, rec.id);
    StoredDiff sd;
    sd.bytes = bytes;
    sd.vt = rec.vt;
    diff_store_bytes_ += sd.bytes;
    diff_store_.emplace(DiffKey{p, rec.id}, std::move(sd));
    latest_diff_id_[p] = rec.id;
  }

  bool HasPending(PageId page) const {
    auto it = pending_.find(page);
    return it != pending_.end() && !it->second.empty();
  }

  uint32_t GetCovered(PageId page, NodeId writer) const {
    auto it = covered_.find(page);
    if (it == covered_.end()) {
      return 0;
    }
    return it->second[static_cast<size_t>(writer)];
  }

  void SetCovered(PageId page, NodeId writer, uint32_t id) {
    auto it = covered_.find(page);
    if (it == covered_.end()) {
      it = covered_.emplace(page, std::vector<uint32_t>(static_cast<size_t>(nodes()), 0)).first;
    }
    uint32_t& slot = it->second[static_cast<size_t>(writer)];
    slot = std::max(slot, id);
  }

  void PrunePendingCovered(PageId page) {
    auto it = pending_.find(page);
    if (it == pending_.end()) {
      return;
    }
    auto& vec = it->second;
    const size_t before = vec.size();
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [this, page](const PendingWn& wn) {
                               return wn.id <= GetCovered(page, wn.writer);
                             }),
              vec.end());
    pending_count_ -= static_cast<int64_t>(before - vec.size());
    if (vec.empty()) {
      pending_.erase(it);
    }
  }

  // FetchDiffs: one request per writer, writers ascending, each writer's
  // ids in arrival order (the stable sort of the replaced protocol code).
  std::vector<std::pair<NodeId, std::vector<uint32_t>>> FetchRequests(PageId page) const {
    std::vector<std::pair<NodeId, uint32_t>> wanted;
    for (const PendingWn& wn : pending_.at(page)) {
      wanted.emplace_back(wn.writer, wn.id);
    }
    std::stable_sort(wanted.begin(), wanted.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<std::pair<NodeId, std::vector<uint32_t>>> requests;
    for (const auto& [writer, id] : wanted) {
      if (requests.empty() || requests.back().first != writer) {
        requests.emplace_back(writer, std::vector<uint32_t>{});
      }
      requests.back().second.push_back(id);
    }
    return requests;
  }

  // FetchDiffs after the replies to `requests`: the collected diffs sorted
  // in happens-before order, applied, then pruned. Returns the apply order.
  std::vector<std::pair<NodeId, uint32_t>> CompleteDiffFetch(
      PageId page, const std::vector<std::pair<NodeId, std::vector<uint32_t>>>& requests) {
    std::vector<std::tuple<VectorClock, uint32_t, NodeId>> collected;
    for (const auto& [writer, ids] : requests) {
      for (uint32_t id : ids) {
        for (const PendingWn& wn : pending_.at(page)) {
          if (wn.writer == writer && wn.id == id) {
            collected.emplace_back(wn.vt, wn.id, wn.writer);
          }
        }
      }
    }
    std::sort(collected.begin(), collected.end(), [](const auto& a, const auto& b) {
      return std::get<0>(a).TotalOrderLess(std::get<0>(b));
    });
    std::vector<std::pair<NodeId, uint32_t>> order;
    for (auto& [vt, id, writer] : collected) {
      order.emplace_back(writer, id);
      SetCovered(page, writer, id);
    }
    PrunePendingCovered(page);
    return order;
  }

  // HandleGcRequest.
  std::vector<std::tuple<PageId, uint32_t, VectorClock>> GcInventory() const {
    std::vector<PageId> inventory;
    inventory.reserve(latest_diff_id_.size());
    for (const auto& [page, id] : latest_diff_id_) {
      inventory.push_back(page);
    }
    std::sort(inventory.begin(), inventory.end());
    std::vector<std::tuple<PageId, uint32_t, VectorClock>> entries;
    entries.reserve(inventory.size());
    for (PageId page : inventory) {
      const uint32_t id = latest_diff_id_.at(page);
      entries.emplace_back(page, id, diff_store_.at(DiffKey{page, id}).vt);
    }
    return entries;
  }

  // ApplyGcValidate (the gc_map_ part).
  void ApplyGcValidate(const std::vector<std::pair<PageId, NodeId>>& validators) {
    EXPECT_TRUE(gc_map_.empty());
    for (const auto& [page, validator] : validators) {
      gc_map_[page] = validator;
    }
  }

  // OnBarrierReleased; returns the pages whose stale copy was dropped.
  std::vector<PageId> OnBarrierReleased(NodeId self) {
    std::vector<PageId> dropped;
    for (const auto& [page, validator] : gc_map_) {
      owner_hint_[page] = validator;
      if (validator != self && HasPending(page)) {
        dropped.push_back(page);
        auto it = pending_.find(page);
        pending_count_ -= static_cast<int64_t>(it->second.size());
        pending_.erase(it);
        covered_.erase(page);
      }
    }
    diff_store_.clear();
    diff_store_bytes_ = 0;
    latest_diff_id_.clear();
    gc_map_.clear();
    return dropped;
  }

  int64_t SubclassMemoryBytes() const {
    const int64_t wn_bytes = pending_count_ * (8 + 4 * static_cast<int64_t>(nodes()));
    const int64_t covered_bytes =
        static_cast<int64_t>(covered_.size()) * 4 * static_cast<int64_t>(nodes());
    return diff_store_bytes_ + wn_bytes + covered_bytes +
           static_cast<int64_t>(owner_hint_.size()) * 8;
  }

  std::map<DiffKey, StoredDiff> diff_store_;
  int64_t diff_store_bytes_ = 0;
  std::unordered_map<PageId, uint32_t> latest_diff_id_;
  std::unordered_map<PageId, std::vector<PendingWn>> pending_;
  int64_t pending_count_ = 0;
  std::unordered_map<PageId, std::vector<uint32_t>> covered_;
  std::unordered_map<PageId, NodeId> owner_hint_;
  std::map<PageId, NodeId> gc_map_;

 private:
  int nodes_;
};

// ---------------------------------------------------------------------------
// Reference model: HlrcProtocol's page-keyed maps, verbatim.

class RefHlrc {
 public:
  explicit RefHlrc(int nodes) : nodes_(nodes) {}
  int nodes() const { return nodes_; }

  using Required = std::vector<std::pair<NodeId, uint32_t>>;
  struct PendingReq {
    NodeId requester;
    Required required;
  };
  struct WriterStreak {
    NodeId writer = kInvalidNode;
    int count = 0;
  };

  void UpdateRequired(PageId page, NodeId writer, uint32_t id) {
    Required& req = required_flush_[page];
    for (auto& [w, i] : req) {
      if (w == writer) {
        if (id > i) {
          i = id;
          ++required_epoch_[page];
        }
        return;
      }
    }
    req.emplace_back(writer, id);
    ++required_epoch_[page];
  }

  uint64_t RequiredEpoch(PageId page) const {
    auto it = required_epoch_.find(page);
    return it == required_epoch_.end() ? 0 : it->second;
  }

  const Required* RequiredOf(PageId page) const {
    auto it = required_flush_.find(page);
    return it == required_flush_.end() ? nullptr : &it->second;
  }

  void SetApplied(PageId page, NodeId writer, uint32_t id) {
    auto it = applied_flush_.find(page);
    if (it == applied_flush_.end()) {
      it = applied_flush_.emplace(page, std::vector<uint32_t>(static_cast<size_t>(nodes()), 0))
               .first;
    }
    uint32_t& slot = it->second[static_cast<size_t>(writer)];
    slot = std::max(slot, id);
  }

  uint32_t GetApplied(PageId page, NodeId writer) const {
    auto it = applied_flush_.find(page);
    if (it == applied_flush_.end()) {
      return 0;
    }
    return it->second[static_cast<size_t>(writer)];
  }

  bool AppliedSatisfies(PageId page, const Required& required) const {
    for (const auto& [writer, id] : required) {
      if (GetApplied(page, writer) < id) {
        return false;
      }
    }
    return true;
  }

  // OnIntervalClosed, home-effect branch.
  void HomeClose(PageId p, NodeId self, uint32_t id) {
    SetApplied(p, self, id);
    writer_streak_.erase(p);
  }

  // ServePendingRequests, minus the sends: the served requests in order.
  std::vector<PendingReq> ServePendingRequests(PageId page) {
    std::vector<PendingReq> served;
    auto it = pending_reqs_.find(page);
    if (it == pending_reqs_.end()) {
      return served;
    }
    auto& reqs = it->second;
    for (auto rit = reqs.begin(); rit != reqs.end();) {
      if (AppliedSatisfies(page, rit->required)) {
        served.push_back(*rit);
        rit = reqs.erase(rit);
      } else {
        ++rit;
      }
    }
    if (reqs.empty()) {
      pending_reqs_.erase(it);
    }
    return served;
  }

  // MaybeMigrateHome past its preconditions. On migration returns true and
  // fills the transferred applied stamps and the forwarded requests.
  bool MaybeMigrate(PageId page, NodeId writer, int threshold, std::vector<uint32_t>* applied,
                    std::vector<PendingReq>* forwarded) {
    WriterStreak& streak = writer_streak_[page];
    if (streak.writer != writer) {
      streak.writer = writer;
      streak.count = 0;
    }
    if (++streak.count < threshold) {
      return false;
    }
    writer_streak_.erase(page);
    auto ait = applied_flush_.find(page);
    if (ait != applied_flush_.end()) {
      *applied = ait->second;
    } else {
      applied->assign(static_cast<size_t>(nodes()), 0);
    }
    home_override_[page] = writer;
    applied_flush_.erase(page);
    auto pit = pending_reqs_.find(page);
    if (pit != pending_reqs_.end()) {
      *forwarded = std::move(pit->second);
      pending_reqs_.erase(pit);
    }
    return true;
  }

  // HandleHomeTransfer (map part).
  void HomeTransfer(PageId page, const std::vector<uint32_t>& applied, NodeId self,
                    uint32_t own_id) {
    applied_flush_[page] = applied;
    SetApplied(page, self, own_id);
    home_override_[page] = self;
  }

  // The kPageReply path-shortening rule.
  void PageReply(PageId page, NodeId home, NodeId static_home, NodeId self) {
    if (home != self && (home != static_home || home_override_.count(page) != 0)) {
      home_override_[page] = home;
    }
  }

  int64_t SubclassMemoryBytes() const {
    int64_t required_bytes = 0;
    for (const auto& [page, req] : required_flush_) {
      required_bytes += 8 * static_cast<int64_t>(req.size());
    }
    int64_t applied_bytes =
        static_cast<int64_t>(applied_flush_.size()) * 4 * static_cast<int64_t>(nodes());
    const int64_t migration_bytes = static_cast<int64_t>(home_override_.size()) * 8 +
                                    static_cast<int64_t>(writer_streak_.size()) * 12;
    return required_bytes + applied_bytes + migration_bytes;
  }

  std::unordered_map<PageId, std::vector<uint32_t>> applied_flush_;
  std::unordered_map<PageId, std::vector<PendingReq>> pending_reqs_;
  std::unordered_map<PageId, Required> required_flush_;
  std::unordered_map<PageId, uint64_t> required_epoch_;
  std::unordered_map<PageId, NodeId> home_override_;
  std::unordered_map<PageId, WriterStreak> writer_streak_;

 private:
  int nodes_;
};

// ---------------------------------------------------------------------------
// Episode helpers.

// Distinct random vector timestamps (vt[writer] == id), so that the
// happens-before sort has a unique answer.
class VtSource {
 public:
  VtSource(Rng* rng, int nodes) : rng_(rng), nodes_(nodes) {}
  VectorClock Next(NodeId writer, uint32_t id) {
    while (true) {
      VectorClock vt(nodes_);
      for (NodeId n = 0; n < nodes_; ++n) {
        vt.Set(n, n == writer ? id : static_cast<uint32_t>(rng_->NextInt(0, 12)));
      }
      if (seen_.insert(vt.raw()).second) {
        return vt;
      }
    }
  }

 private:
  Rng* rng_;
  int nodes_;
  std::set<std::vector<uint32_t>> seen_;
};

IntervalPtr MakeRecord(NodeId writer, uint32_t id, VectorClock vt, const PageList& pages) {
  auto rec = std::make_shared<IntervalRecord>();
  rec->writer = writer;
  rec->id = id;
  rec->vt = std::move(vt);
  rec->pages = pages;
  rec->Seal();
  return rec;
}

std::vector<PageId> Keys(const std::unordered_map<PageId, std::vector<uint32_t>>& m) {
  std::vector<PageId> keys;
  for (const auto& [page, v] : m) {
    keys.push_back(page);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Page ids mostly in a small dense range, now and then a far one, so both
// reuse and on-demand growth are exercised.
PageId RandomPage(Rng* rng) {
  return rng->NextBool(0.03) ? static_cast<PageId>(rng->NextInt(100, 400))
                             : static_cast<PageId>(rng->NextInt(0, 40));
}

// An interval's sorted write-notice list: a few runs of one to eight
// consecutive pages, so the per-writer run summaries split, extend and
// merge, and HLRC both stamps short runs and defers long ones.
PageList RandomPages(Rng* rng, int max_runs) {
  std::set<PageId> page_set;
  for (int i = static_cast<int>(rng->NextInt(1, max_runs)); i > 0; --i) {
    const PageId first = RandomPage(rng);
    for (PageId p = first; p < first + static_cast<PageId>(rng->NextInt(1, 8)); ++p) {
      page_set.insert(p);
    }
  }
  PageList pages;
  pages.assign(page_set.begin(), page_set.end());
  return pages;
}

// What the protocol keeps of a page besides its PageMeta: whether it is
// mapped and whether the local frame holds a copy. Every page starts mapped
// with a copy, like the zero-filled PageState.
struct PageView {
  bool mapped = true;
  bool has_copy = true;
  bool operator==(const PageView&) const = default;
};

// ---------------------------------------------------------------------------
// LRC episodes: the reference takes every notice page by page; the table
// side is driven as LrcProtocol drives it.

class LrcModel {
 public:
  LrcModel(int nodes, NodeId self) : ref(nodes), table(nodes), self_(self) {}

  // ApplyIntervals for one new interval. `skip` fires the lrc-skip-
  // invalidate canary on the first mapped page.
  void Apply(const IntervalPtr& rec, bool skip) {
    bool ref_skip = skip;
    for (PageId p : rec->pages) {
      PageView& v = ref_pages[p];
      if (v.mapped && ref_skip) {
        ref_skip = false;
        continue;
      }
      ref.OnWriteNotice(*rec, p);
      v.mapped = false;
    }
    const uint32_t seq = table.NextNotice();
    int64_t skipped = 0;
    for (PageId p : rec->pages) {
      PageView& v = table_pages[p];
      if (!v.mapped) {
        continue;
      }
      if (skip) {
        skip = false;
        table.SkipNotice(p, seq);
        ++skipped;
        continue;
      }
      v.mapped = false;
    }
    table.AddNotices(rec, seq, static_cast<int64_t>(rec->pages.size()) - skipped);
  }

  // LrcProtocol::Resolve.
  void Resolve(PageId p) {
    if (table.Resolve(p)) {
      table_pages[p] = PageView{false, false};
    }
  }

  // LrcProtocol::OwnerHint.
  NodeId OwnerHint(PageId p) const { return round_ == nullptr ? kInvalidNode : round_->OwnerOf(p); }

  // One page as the table would have it resolved (PeekPending /
  // PeekDropped, which leave unlisted notices unlisted) against the
  // reference: copy state, pending list (contents and per-writer order),
  // covered stamps, stored diffs and owner hint. Returns the page's
  // pending-notice count, covered pages and diff bytes.
  std::tuple<int64_t, int64_t, int64_t> ExpectSamePeeked(PageId p) {
    const auto vit = table_pages.find(p);
    const PageView view = table.PeekDropped(p)       ? PageView{false, false}
                          : vit == table_pages.end() ? PageView{}
                                                     : vit->second;
    const auto rit = ref_pages.find(p);
    EXPECT_TRUE(view == (rit == ref_pages.end() ? PageView{} : rit->second)) << "page " << p;
    const std::vector<IntervalPtr> pending = table.PeekPending(p);
    auto pit = ref.pending_.find(p);
    std::vector<RefLrc::PendingWn> want;
    if (pit != ref.pending_.end()) {
      want = pit->second;
    }
    // The table keeps (writer, id) order; the reference arrival order. They
    // must agree per writer, which is all FetchDiffs reads.
    std::stable_sort(want.begin(), want.end(),
                     [](const auto& a, const auto& b) { return a.writer < b.writer; });
    EXPECT_EQ(pending.size(), want.size()) << "page " << p;
    for (size_t i = 0; i < std::min(pending.size(), want.size()); ++i) {
      EXPECT_EQ(pending[i]->writer, want[i].writer) << "page " << p;
      EXPECT_EQ(pending[i]->id, want[i].id) << "page " << p;
      EXPECT_TRUE(pending[i]->vt == want[i].vt) << "page " << p;
    }
    const LrcColdMeta& c = table.cold(p);
    auto cit = ref.covered_.find(p);
    EXPECT_EQ(!c.covered.empty(), cit != ref.covered_.end()) << "page " << p;
    if (cit != ref.covered_.end()) {
      EXPECT_EQ(c.covered, cit->second) << "page " << p;
    }
    auto lit = ref.latest_diff_id_.find(p);
    EXPECT_EQ(!c.diffs.empty(), lit != ref.latest_diff_id_.end()) << "page " << p;
    if (!c.diffs.empty() && lit != ref.latest_diff_id_.end()) {
      EXPECT_EQ(c.diffs.back().rec->id, lit->second) << "page " << p;
    }
    int64_t diff_bytes = 0;
    for (const StoredDiff& sd : c.diffs) {
      auto dit = ref.diff_store_.find({p, sd.rec->id});
      if (dit == ref.diff_store_.end()) {
        ADD_FAILURE() << "page " << p << " diff " << sd.rec->id << " not in the reference";
        continue;
      }
      EXPECT_EQ(sd.bytes, dit->second.bytes);
      EXPECT_TRUE(sd.rec->vt == dit->second.vt);
      diff_bytes += sd.bytes;
    }
    auto hit = ref.owner_hint_.find(p);
    EXPECT_EQ(OwnerHint(p), hit == ref.owner_hint_.end() ? kInvalidNode : hit->second)
        << "page " << p;
    return {static_cast<int64_t>(pending.size()), c.covered.empty() ? 0 : 1, diff_bytes};
  }

  // A page the step resolved must match the reference as it is stored.
  void ExpectSamePage(PageId p) {
    Resolve(p);
    EXPECT_FALSE(table.PeekDropped(p)) << "page " << p;
    const auto [pending, covered, diff_bytes] = ExpectSamePeeked(p);
    EXPECT_EQ(static_cast<int64_t>(table.Pending(p).size()), pending) << "page " << p;
  }

  // Every page any side knows, without resolving one, and a recount of the
  // memory model from them: after every step.
  void ExpectSameLrc(int nodes) {
    std::set<PageId> all;
    for (PageId p = 0; p < static_cast<PageId>(table.size()); ++p) {
      all.insert(p);
    }
    for (const auto& [p, v] : ref_pages) {
      all.insert(p);
    }
    for (const auto& [p, v] : table_pages) {
      all.insert(p);
    }
    for (const auto& [p, v] : ref.pending_) {
      all.insert(p);
    }
    for (const auto& [p, v] : ref.owner_hint_) {
      all.insert(p);
    }
    int64_t pending = 0;
    int64_t covered_pages = 0;
    int64_t diff_bytes = 0;
    std::vector<std::pair<PageId, uint32_t>> diff_keys;
    for (PageId p : all) {
      const auto [n, covered, bytes] = ExpectSamePeeked(p);
      pending += n;
      covered_pages += covered;
      diff_bytes += bytes;
      for (const StoredDiff& sd : table.cold(p).diffs) {
        diff_keys.emplace_back(p, sd.rec->id);
      }
    }
    std::vector<std::pair<PageId, uint32_t>> ref_keys;
    for (const auto& [key, sd] : ref.diff_store_) {
      ref_keys.push_back(key);
    }
    EXPECT_EQ(diff_keys, ref_keys);  // Same diffs, same (page, id) order.
    EXPECT_EQ(table.diff_count(), static_cast<int64_t>(ref.diff_store_.size()));
    EXPECT_EQ(pending, ref.pending_count_);
    EXPECT_EQ(table.pending_count(), ref.pending_count_);
    EXPECT_EQ(static_cast<size_t>(covered_pages), ref.covered_.size());
    int64_t owned = 0;
    if (round_ != nullptr) {
      owned = std::count_if(round_->owners.begin(), round_->owners.end(),
                            [](NodeId n) { return n != kInvalidNode; });
      EXPECT_EQ(owned, round_->owned_pages);
    }
    EXPECT_EQ(static_cast<size_t>(owned), ref.owner_hint_.size());
    const int64_t recount = diff_bytes + pending * (8 + 4 * static_cast<int64_t>(nodes)) +
                            covered_pages * 4 * nodes + owned * 8;
    EXPECT_EQ(table.MemoryBytes(), ref.SubclassMemoryBytes());
    EXPECT_EQ(table.MemoryBytes(), recount);
  }

  // At the end of an episode: every page resolved, then compared as stored.
  void ExpectSameEverywhere(int nodes) {
    for (PageId p = 0; p < static_cast<PageId>(table.size()); ++p) {
      ExpectSamePage(p);
    }
    for (const auto& [p, v] : ref.pending_) {
      ExpectSamePage(p);
    }
    ExpectSameLrc(nodes);
  }

  // LrcProtocol::FetchDiffs's requests, checked against the reference.
  std::vector<std::pair<NodeId, std::vector<uint32_t>>> FetchRequests(PageId p) {
    Resolve(p);
    std::vector<std::pair<NodeId, std::vector<uint32_t>>> requests;
    for (const IntervalPtr& wn : table.Pending(p)) {
      if (requests.empty() || requests.back().first != wn->writer) {
        requests.emplace_back(wn->writer, std::vector<uint32_t>{});
      }
      requests.back().second.push_back(wn->id);
    }
    EXPECT_EQ(requests, ref.FetchRequests(p)) << "page " << p;
    return requests;
  }

  // FetchDiffs after the replies: the same apply order on both sides.
  void CompleteDiffFetch(PageId p,
                         const std::vector<std::pair<NodeId, std::vector<uint32_t>>>& requests) {
    std::vector<IntervalPtr> collected;
    for (const auto& [writer, ids] : requests) {
      for (uint32_t id : ids) {
        collected.push_back(table.PendingNotice(p, writer, id));
      }
    }
    std::sort(collected.begin(), collected.end(), [](const auto& a, const auto& b) {
      return a->vt.TotalOrderLess(b->vt);
    });
    std::vector<std::pair<NodeId, uint32_t>> order;
    for (const IntervalPtr& rec : collected) {
      order.emplace_back(rec->writer, rec->id);
      table.SetCovered(p, rec->writer, rec->id);
    }
    Resolve(p);
    table.PrunePendingCovered(p);
    EXPECT_EQ(order, ref.CompleteDiffFetch(p, requests));
  }

  // FetchFullPage after the reply: the server's covered stamps.
  void CompletePageFetch(PageId p, const std::vector<std::pair<NodeId, uint32_t>>& covered) {
    for (const auto& [w, id] : covered) {
      ref.SetCovered(p, w, id);
      table.SetCovered(p, w, id);
    }
    ref_pages[p].has_copy = true;
    table_pages[p].has_copy = true;
    ref.PrunePendingCovered(p);
    Resolve(p);
    table.PrunePendingCovered(p);
  }

  // GC: inventory, validators (one writer of each page written since the
  // last GC), validation at this node, release.
  void Gc(Rng* rng, const std::map<PageId, std::set<NodeId>>& window_writers) {
    const auto ref_inv = ref.GcInventory();
    const auto inv = table.Inventory();
    ASSERT_EQ(inv.size(), ref_inv.size());
    for (size_t i = 0; i < inv.size(); ++i) {
      EXPECT_EQ(inv[i].first, std::get<0>(ref_inv[i]));
      EXPECT_EQ(inv[i].second->id, std::get<1>(ref_inv[i]));
      EXPECT_TRUE(inv[i].second->vt == std::get<2>(ref_inv[i]));
    }
    std::map<PageId, std::set<NodeId>> writers = window_writers;
    for (const auto& [page, rec] : inv) {
      writers[page].insert(self_);
    }
    std::vector<std::pair<PageId, NodeId>> validators;
    for (const auto& [page, ws] : writers) {
      auto it = ws.begin();
      std::advance(it, static_cast<long>(rng->NextBounded(ws.size())));
      validators.emplace_back(page, *it);
    }
    // Validation: the reference walks every validator entry, the protocol
    // its own inventory.
    ref.ApplyGcValidate(validators);
    std::vector<PageId> ref_mine;
    for (const auto& [page, v] : validators) {
      if (v == self_ && ref.HasPending(page)) {
        ref_mine.push_back(page);
      }
    }
    std::vector<PageId> mine;
    for (const auto& [page, rec] : inv) {
      auto it = std::lower_bound(validators.begin(), validators.end(),
                                 std::make_pair(page, kInvalidNode));
      if (it != validators.end() && it->first == page && it->second == self_) {
        Resolve(page);
        if (table.HasPending(page)) {
          mine.push_back(page);
        }
      }
    }
    EXPECT_EQ(mine, ref_mine);
    for (PageId page : mine) {
      while (ref.HasPending(page)) {
        CompleteDiffFetch(page, FetchRequests(page));
        if (::testing::Test::HasFailure()) {
          return;
        }
      }
      Resolve(page);
      EXPECT_FALSE(table.HasPending(page));
    }
    for (PageId page : ref.OnBarrierReleased(self_)) {
      ref_pages[page] = PageView{false, false};
    }
    // LrcProtocol: the manager's fold, then each node's release.
    if (validators.empty()) {
      return;
    }
    round_ = FoldGcRound(round_.get(), std::move(validators));
    table.ReleaseGc(round_->validators, self_,
                    [&](PageId page) { table_pages[page] = PageView{false, false}; });
    table.SetOwnerHints(round_->owned_pages);
    table.ClearDiffs();
  }

  RefLrc ref;
  LrcPageTable table;
  std::map<PageId, PageView> ref_pages;
  std::map<PageId, PageView> table_pages;

 private:
  NodeId self_;
  GcValidators round_;  // The latest GC round released (null before the first).
};

void RunLrcEpisode(uint64_t seed) {
  Rng rng(seed);
  const int nodes = static_cast<int>(rng.NextInt(2, 16));
  const NodeId self = static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(nodes)));
  VtSource vts(&rng, nodes);
  std::vector<uint32_t> next_id(static_cast<size_t>(nodes), 0);
  IntervalLog log(nodes);
  LrcModel model(nodes, self);
  bool canary = rng.NextBool(0.2);
  std::map<PageId, std::set<NodeId>> window_writers;  // Since the last GC.
  auto remote_interval = [&]() -> IntervalPtr {
    NodeId w = self;
    while (w == self) {
      w = static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(nodes)));
    }
    const uint32_t id = ++next_id[static_cast<size_t>(w)];
    IntervalPtr rec = MakeRecord(w, id, vts.Next(w, id), RandomPages(&rng, 3));
    log.Append(rec);
    for (PageId p : rec->pages) {
      window_writers[p].insert(w);
    }
    return rec;
  };

  const int steps = static_cast<int>(rng.NextInt(20, 80));
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    std::vector<PageId> check;  // Pages this step resolves and compares.
    const int op = static_cast<int>(rng.NextBounded(8));
    if (op <= 2) {
      // A remote interval's write notices (barrier or lock grant).
      const bool skip = canary && rng.NextBool(0.3);
      canary = canary && !skip;
      model.Apply(remote_interval(), skip);
    } else if (op == 3) {
      // A local interval close storing diffs. Its pages were write-faulted
      // (resolved) during the interval.
      const uint32_t id = ++next_id[static_cast<size_t>(self)];
      IntervalPtr rec = MakeRecord(self, id, vts.Next(self, id), RandomPages(&rng, 2));
      log.Append(rec);
      for (PageId p : rec->pages) {
        model.Resolve(p);
        const int64_t bytes = rng.NextInt(16, 600);
        model.ref.StoreDiff(p, *rec, bytes);
        model.table.SetCovered(p, self, id);
        model.table.AddDiff(p, StoredDiff{rec, std::make_shared<const Diff>(), true, true, 0,
                                          bytes, {}});
      }
    } else if (op <= 5) {
      // A fault (LrcProtocol::ResolveFault): a full-page fetch without a
      // copy, a diff fetch with pending notices, else map the page. Other
      // nodes' notices may arrive while a fetch is in flight.
      const PageId p = RandomPage(&rng);
      model.ExpectSamePage(p);
      if (!model.ref_pages[p].has_copy) {
        EXPECT_EQ(model.OwnerHint(p), model.ref.owner_hint_.count(p) != 0
                                          ? model.ref.owner_hint_.at(p)
                                          : kInvalidNode);
        while (rng.NextBool(0.3)) {
          model.Apply(remote_interval(), false);
        }
        std::vector<std::pair<NodeId, uint32_t>> covered;
        for (int i = static_cast<int>(rng.NextInt(0, 3)); i > 0; --i) {
          covered.emplace_back(static_cast<NodeId>(rng.NextBounded(nodes)),
                               static_cast<uint32_t>(rng.NextInt(1, 10)));
        }
        model.CompletePageFetch(p, covered);
      } else if (model.ref.HasPending(p)) {
        const auto requests = model.FetchRequests(p);
        while (rng.NextBool(0.4)) {
          IntervalPtr rec = remote_interval();
          if (rng.NextBool(0.5) && !std::binary_search(rec->pages.begin(), rec->pages.end(), p)) {
            // Make it name the page under fetch.
            PageList pages = rec->pages;
            std::set<PageId> with(pages.begin(), pages.end());
            with.insert(p);
            pages.assign(with.begin(), with.end());
            const_cast<IntervalRecord&>(*rec).pages = pages;
            const_cast<IntervalRecord&>(*rec).Seal();
            window_writers[p].insert(rec->writer);
          }
          model.Apply(rec, false);
        }
        model.CompleteDiffFetch(p, requests);
      } else {
        model.ref_pages[p].mapped = true;
        model.table_pages[p].mapped = true;
      }
      check.push_back(p);
    } else if (op == 6) {
      if (rng.NextBool(0.5)) {
        // Barrier-time GC.
        model.Gc(&rng, window_writers);
        window_writers.clear();
      }
      // Either way the barrier truncates the interval log; pending notices
      // and stored diffs keep their records alive through their handles.
      log.Clear();
    } else {
      // A page request served from this node's copy.
      check.push_back(RandomPage(&rng));
    }
    for (PageId p : check) {
      model.ExpectSamePage(p);
    }
    model.ExpectSameLrc(nodes);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  model.ExpectSameEverywhere(nodes);
}

// ---------------------------------------------------------------------------
// HLRC episodes.

// The page's required stamps as a set: the reference keeps arrival order,
// the table arrival order for eager notices and writer order for resolved
// ones, and no reader depends on the order.
std::vector<std::pair<NodeId, uint32_t>> Sorted(const Required& required) {
  std::vector<std::pair<NodeId, uint32_t>> stamps;
  for (const FlushStamp& s : required) {
    stamps.emplace_back(s.writer, s.id);
  }
  std::sort(stamps.begin(), stamps.end());
  return stamps;
}
std::vector<std::pair<NodeId, uint32_t>> SortedRequired(const RefHlrc& ref, PageId page) {
  const RefHlrc::Required* req = ref.RequiredOf(page);
  std::vector<std::pair<NodeId, uint32_t>> stamps;
  if (req != nullptr) {
    stamps = *req;
  }
  std::sort(stamps.begin(), stamps.end());
  return stamps;
}

// One page after HlrcTable::Resolve: the stored required stamps and whether
// the home has applied them.
void ExpectSameHlrcPage(const RefHlrc& ref, const HlrcPageTable& table, PageId page) {
  EXPECT_EQ(Sorted(table.get(page).required), SortedRequired(ref, page)) << "page " << page;
  const RefHlrc::Required* req = ref.RequiredOf(page);
  EXPECT_EQ(table.RequiredApplied(page), req == nullptr || ref.AppliedSatisfies(page, *req))
      << "page " << page;
}

// Every page any side knows, without resolving one (required stamps as
// PeekRequired folds them), and a recount of the memory model: after every
// step.
void ExpectSameHlrc(const RefHlrc& ref, const HlrcPageTable& table, int nodes) {
  std::set<PageId> all;
  for (PageId page = 0; page < static_cast<PageId>(table.size()); ++page) {
    all.insert(page);
  }
  for (const auto& [page, req] : ref.required_flush_) {
    all.insert(page);
  }
  for (PageId page : Keys(ref.applied_flush_)) {
    all.insert(page);
  }
  for (const auto& [page, reqs] : ref.pending_reqs_) {
    all.insert(page);
  }
  for (const auto& [page, home] : ref.home_override_) {
    all.insert(page);
  }
  for (const auto& [page, streak] : ref.writer_streak_) {
    all.insert(page);
  }
  int64_t stamps = 0;
  int64_t applied_pages = 0;
  int64_t overrides = 0;
  int64_t streaks = 0;
  for (PageId page : all) {
    const HlrcColdMeta& c = table.cold(page);
    const Required required = table.PeekRequired(page);
    EXPECT_EQ(Sorted(required), SortedRequired(ref, page)) << "page " << page;
    const RefHlrc::Required* req = ref.RequiredOf(page);
    EXPECT_EQ(table.AppliedSatisfies(page, required),
              req == nullptr || ref.AppliedSatisfies(page, *req))
        << "page " << page;
    auto ait = ref.applied_flush_.find(page);
    EXPECT_EQ(!c.applied.empty(), ait != ref.applied_flush_.end()) << "page " << page;
    if (ait != ref.applied_flush_.end()) {
      EXPECT_EQ(c.applied, ait->second) << "page " << page;
    }
    auto pit = ref.pending_reqs_.find(page);
    const size_t ref_parked = pit == ref.pending_reqs_.end() ? 0 : pit->second.size();
    ASSERT_EQ(c.parked.size(), ref_parked) << "page " << page;
    for (size_t i = 0; i < c.parked.size(); ++i) {
      EXPECT_EQ(c.parked[i].requester, pit->second[i].requester);
      EXPECT_EQ(Sorted(c.parked[i].required), [&] {
        auto want = pit->second[i].required;
        std::sort(want.begin(), want.end());
        return want;
      }()) << "page " << page;
    }
    auto oit = ref.home_override_.find(page);
    EXPECT_EQ(c.home_override, oit == ref.home_override_.end() ? kInvalidNode : oit->second)
        << "page " << page;
    auto sit = ref.writer_streak_.find(page);
    EXPECT_EQ(c.streak.writer != kInvalidNode, sit != ref.writer_streak_.end())
        << "page " << page;
    if (sit != ref.writer_streak_.end()) {
      EXPECT_EQ(c.streak.writer, sit->second.writer);
      EXPECT_EQ(c.streak.count, sit->second.count);
    }
    stamps += static_cast<int64_t>(required.size());
    applied_pages += c.applied.empty() ? 0 : 1;
    overrides += c.home_override == kInvalidNode ? 0 : 1;
    streaks += c.streak.writer == kInvalidNode ? 0 : 1;
  }
  EXPECT_EQ(static_cast<size_t>(applied_pages), ref.applied_flush_.size());
  EXPECT_EQ(static_cast<size_t>(overrides), ref.home_override_.size());
  EXPECT_EQ(static_cast<size_t>(streaks), ref.writer_streak_.size());
  const int64_t recount = stamps * 8 + applied_pages * 4 * nodes + overrides * 8 + streaks * 12;
  EXPECT_EQ(table.MemoryBytes(), ref.SubclassMemoryBytes());
  EXPECT_EQ(table.MemoryBytes(), recount);
}

void ExpectSameRequests(const std::vector<PendingReq>& got,
                        const std::vector<RefHlrc::PendingReq>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].requester, want[i].requester);
    ASSERT_EQ(got[i].required.size(), want[i].required.size());
    for (size_t j = 0; j < got[i].required.size(); ++j) {
      EXPECT_EQ(got[i].required[j].writer, want[i].required[j].first);
      EXPECT_EQ(got[i].required[j].id, want[i].required[j].second);
    }
  }
}

void RunHlrcEpisode(uint64_t seed) {
  Rng rng(seed);
  const int nodes = static_cast<int>(rng.NextInt(2, 16));
  const NodeId self = static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(nodes)));
  const int threshold = static_cast<int>(rng.NextInt(1, 3));
  auto static_home = [nodes](PageId p) { return static_cast<NodeId>(p % nodes); };
  auto random_node = [&rng, nodes] {
    return static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(nodes)));
  };
  RefHlrc ref(nodes);
  HlrcPageTable table(nodes);
  // Whether this node maps the page; every page starts mapped.
  std::map<PageId, bool> unmapped;
  std::vector<uint32_t> next_id(static_cast<size_t>(nodes), 0);
  // HlrcProtocol::BelievedHomeOf with migration on.
  auto home_of = [&](PageId p) {
    const NodeId moved = table.HomeOverride(p);
    return moved == kInvalidNode ? static_home(p) : moved;
  };
  // A remote interval's write notices, HlrcProtocol::OnIntervalNotices
  // against the reference's per-page OnWriteNotice: pages mapped or homed
  // here are taken eagerly, runs of the others go to the writer's summary
  // if they are at least kMinDeferredRun long and are stamped otherwise.
  auto apply_interval = [&](const PageList& pages) {
    NodeId w = self;
    while (w == self) {
      w = random_node();
    }
    const uint32_t id = ++next_id[static_cast<size_t>(w)];
    PageId run_first = -1;
    PageId run_last = -2;
    auto flush_run = [&] {
      if (run_first < 0) {
        return;
      }
      if (run_last - run_first + 1 >= HlrcPageTable::kMinDeferredRun) {
        table.DeferNotices(w, id, run_first, run_last);
        return;
      }
      for (PageId p = run_first; p <= run_last; ++p) {
        table.UpdateRequired(p, w, id);
      }
    };
    for (PageId p : pages) {
      ref.UpdateRequired(p, w, id);
      const bool home_here = home_of(p) == self;
      if (!home_here && unmapped[p]) {
        if (p != run_last + 1) {
          flush_run();
          run_first = p;
        }
        run_last = p;
        continue;
      }
      table.UpdateRequired(p, w, id);
      const RefHlrc::Required* req = ref.RequiredOf(p);
      const bool ref_keeps = home_here && ref.AppliedSatisfies(p, *req);
      EXPECT_EQ(home_here && table.RequiredApplied(p), ref_keeps) << "page " << p;
      unmapped[p] = !ref_keeps;
    }
    flush_run();
  };

  const int steps = static_cast<int>(rng.NextInt(20, 80));
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    const PageId p = RandomPage(&rng);
    const uint32_t id = static_cast<uint32_t>(rng.NextInt(1, 8));
    switch (rng.NextBounded(10)) {
      case 0: {  // This node's own flush of a page (OnIntervalClosed).
        ref.UpdateRequired(p, self, id);
        table.UpdateRequired(p, self, id);
        break;
      }
      case 1:  // An interval close on a page homed here (home effect).
        ref.HomeClose(p, self, id);
        table.SetApplied(p, self, id);
        table.ClearStreak(p);
        break;
      case 2: {  // A page request parked at the home.
        RefHlrc::Required rreq;
        Required req;
        std::set<NodeId> writers;
        for (int i = static_cast<int>(rng.NextInt(0, 3)); i > 0; --i) {
          writers.insert(random_node());
        }
        for (NodeId w : writers) {
          const uint32_t rid = static_cast<uint32_t>(rng.NextInt(1, 8));
          rreq.emplace_back(w, rid);
          req.push_back(FlushStamp{w, rid});
        }
        const NodeId requester = random_node();
        ref.pending_reqs_[p].push_back(RefHlrc::PendingReq{requester, rreq});
        table.Park(p, PendingReq{requester, req});
        break;
      }
      case 3: {  // A diff flush applied at the home, then serve and maybe migrate.
        const NodeId w = random_node();
        ref.SetApplied(p, w, id);
        table.SetApplied(p, w, id);
        ExpectSameRequests(table.TakeParked(p, /*all=*/false), ref.ServePendingRequests(p));
        if (w == self) {
          break;
        }
        std::vector<uint32_t> ref_applied;
        std::vector<RefHlrc::PendingReq> ref_forwarded;
        const bool migrated = ref.MaybeMigrate(p, w, threshold, &ref_applied, &ref_forwarded);
        ASSERT_EQ(table.CountStreak(p, w, threshold), migrated);
        if (migrated) {
          EXPECT_EQ(table.TakeApplied(p), ref_applied);
          table.SetHomeOverride(p, w);
          ExpectSameRequests(table.TakeParked(p, /*all=*/true), ref_forwarded);
        }
        break;
      }
      case 4: {  // This node becomes the home by transfer (HandleHomeTransfer).
        std::vector<uint32_t> applied(static_cast<size_t>(nodes));
        for (uint32_t& a : applied) {
          a = static_cast<uint32_t>(rng.NextInt(0, 8));
        }
        table.Resolve(p);
        ref.HomeTransfer(p, applied, self, id);
        table.AdoptApplied(p, applied);
        table.SetApplied(p, self, id);
        table.SetHomeOverride(p, self);
        unmapped[p] = false;
        ExpectSameRequests(table.TakeParked(p, /*all=*/false), ref.ServePendingRequests(p));
        ExpectSameHlrcPage(ref, table, p);
        break;
      }
      case 5: {  // A page reply naming its serving home.
        const NodeId home = random_node();
        ref.PageReply(p, home, static_home(p), self);
        if (home != self &&
            (home != static_home(p) || table.HomeOverride(p) != kInvalidNode)) {
          table.SetHomeOverride(p, home);
        }
        break;
      }
      case 6:
      case 7:
        apply_interval(RandomPages(&rng, 3));
        break;
      default: {
        // A fault on a page homed elsewhere (HlrcProtocol::ResolveFault):
        // resolve, fetch, and fetch again if a notice for the page arrived
        // meanwhile, exactly when the reference's epoch moved.
        if (home_of(p) == self) {
          break;
        }
        unmapped[p] = true;
        while (true) {
          table.Resolve(p);
          ExpectSameHlrcPage(ref, table, p);
          const uint64_t epoch = table.RequiredEpoch(p);
          const uint64_t ref_epoch = ref.RequiredEpoch(p);
          while (rng.NextBool(0.4)) {
            PageList pages = RandomPages(&rng, 2);
            if (rng.NextBool(0.5)) {
              std::set<PageId> with(pages.begin(), pages.end());
              with.insert(p);
              pages.assign(with.begin(), with.end());
            }
            apply_interval(pages);
          }
          table.Resolve(p);
          ExpectSameHlrcPage(ref, table, p);
          const bool refetch = table.RequiredEpoch(p) != epoch;
          ASSERT_EQ(refetch, ref.RequiredEpoch(p) != ref_epoch) << "page " << p;
          if (!refetch || home_of(p) == self) {
            break;
          }
        }
        unmapped[p] = false;
        break;
      }
    }
    ExpectSameHlrc(ref, table, nodes);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  for (const auto& [page, req] : ref.required_flush_) {
    table.Resolve(page);
  }
  for (PageId page = 0; page < static_cast<PageId>(table.size()); ++page) {
    table.Resolve(page);
    ExpectSameHlrcPage(ref, table, page);
  }
  ExpectSameHlrc(ref, table, nodes);
}

TEST(PageMetaDifferential, LrcMatchesPageKeyedMapsAcross1000Episodes) {
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    RunLrcEpisode(seed);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

TEST(PageMetaDifferential, HlrcMatchesPageKeyedMapsAcross1000Episodes) {
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    RunHlrcEpisode(seed);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

// A pending write notice holds the sealed record itself, not a copy of its
// vector timestamp: the record outlives the interval log's truncation at a
// barrier without GC, and dies with the last notice naming it.
TEST(PageMeta, PendingNoticeOutlivesIntervalLogClear) {
  constexpr int kNodes = 4;
  IntervalLog log(kNodes);
  LrcPageTable table(kNodes);
  VectorClock vt(kNodes);
  vt.Set(2, 1);
  vt.Set(1, 5);
  IntervalPtr rec = MakeRecord(2, 1, vt, PageList{3, 7});
  std::weak_ptr<const IntervalRecord> watch = rec;
  log.Append(rec);
  table.AddNotices(rec, table.NextNotice(), 2);
  table.Resolve(3);
  table.Resolve(7);
  // `rec`, the log, the writer's notice index, two listed notices: no copies.
  EXPECT_EQ(rec.use_count(), 5);
  rec.reset();

  log.Clear();
  ASSERT_FALSE(watch.expired());
  EXPECT_EQ(watch.use_count(), 3);
  const IntervalPtr& held = table.PendingNotice(3, 2, 1);
  EXPECT_EQ(held.get(), table.PendingNotice(7, 2, 1).get());
  EXPECT_TRUE(held->vt == vt);

  table.SetCovered(3, 2, 1);
  table.PrunePendingCovered(3);
  EXPECT_EQ(watch.use_count(), 2);
  table.DropCopy(7);
  EXPECT_EQ(watch.use_count(), 1);  // The index keeps it until the GC release.
  table.ReleaseGc({{3, 2}, {7, 2}}, /*self=*/0, [](PageId) {});
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(table.pending_count(), 0);
}

// Grow on demand: lookups never grow the array, and mutations grow it only
// to the highest page touched.
TEST(PageMeta, GrowsOnlyToTheHighestPageTouched) {
  HlrcPageTable table(4);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.GetApplied(131071, 1), 0u);
  EXPECT_TRUE(table.RequiredApplied(131071));
  EXPECT_EQ(table.HomeOverride(131071), kInvalidNode);
  EXPECT_EQ(table.size(), 0u);
  table.UpdateRequired(9, 1, 2);
  EXPECT_EQ(table.size(), 10u);
  table.ClearStreak(500);
  EXPECT_TRUE(table.TakeParked(500, /*all=*/true).empty());
  EXPECT_EQ(table.size(), 10u);
  EXPECT_EQ(table.MemoryBytes(), 8);

  LrcPageTable lrc(4);
  EXPECT_FALSE(lrc.HasPending(70000));
  EXPECT_EQ(lrc.FindDiff(70000, 1), nullptr);
  EXPECT_FALSE(lrc.AnyPending(70000));
  EXPECT_EQ(lrc.size(), 0u);
}

// Cold-part reads -- home stamps, parked requests, overrides, streaks,
// covered stamps, stored diffs -- allocate nothing: neither a cold block on
// a page whose hot part a write notice created, nor a hot entry past the
// array. The first cold write allocates the page's block.
TEST(PageMeta, ColdReadsOfUntouchedPagesAllocateNothing) {
  HlrcPageTable hlrc(4);
  hlrc.UpdateRequired(9, 1, 2);
  for (PageId page : {PageId{0}, PageId{9}, PageId{131071}}) {
    EXPECT_EQ(hlrc.GetApplied(page, 1), 0u);
    EXPECT_EQ(hlrc.HomeOverride(page), kInvalidNode);
    EXPECT_TRUE(hlrc.TakeParked(page, /*all=*/false).empty());
    EXPECT_TRUE(hlrc.TakeParked(page, /*all=*/true).empty());
    hlrc.ClearStreak(page);
    EXPECT_TRUE(hlrc.cold(page).applied.empty());
    EXPECT_TRUE(hlrc.AppliedSatisfies(page, Required{}));
  }
  EXPECT_FALSE(hlrc.RequiredApplied(9));
  EXPECT_EQ(hlrc.size(), 10u);
  for (PageId page = 0; page < 10; ++page) {
    EXPECT_EQ(hlrc.get(page).cold, nullptr) << "page " << page;
  }
  hlrc.SetApplied(9, 1, 2);
  ASSERT_NE(hlrc.get(9).cold, nullptr);
  EXPECT_TRUE(hlrc.RequiredApplied(9));
  EXPECT_EQ(hlrc.get(8).cold, nullptr);
  EXPECT_EQ(hlrc.MemoryBytes(), 8 + 4 * 4);

  constexpr int kNodes = 4;
  LrcPageTable lrc(kNodes);
  VectorClock vt(kNodes);
  vt.Set(2, 1);
  lrc.AddNotices(MakeRecord(2, 1, vt, PageList{5}), lrc.NextNotice(), 1);
  lrc.Resolve(5);
  lrc.PrunePendingCovered(5);  // Nothing covered yet: the notice stays.
  for (PageId page : {PageId{0}, PageId{5}, PageId{70000}}) {
    EXPECT_EQ(lrc.Covered(page, 2), 0u);
    EXPECT_EQ(lrc.FindDiff(page, 1), nullptr);
    EXPECT_TRUE(lrc.cold(page).diffs.empty());
  }
  EXPECT_TRUE(lrc.Inventory().empty());
  EXPECT_TRUE(lrc.HasPending(5));
  EXPECT_EQ(lrc.size(), 6u);
  for (PageId page = 0; page < 6; ++page) {
    EXPECT_EQ(lrc.get(page).cold, nullptr) << "page " << page;
  }
  lrc.SetCovered(5, 2, 1);
  ASSERT_NE(lrc.get(5).cold, nullptr);
  lrc.PrunePendingCovered(5);
  EXPECT_FALSE(lrc.HasPending(5));
  EXPECT_EQ(lrc.MemoryBytes(), 4 * kNodes);
}

}  // namespace
}  // namespace hlrc
