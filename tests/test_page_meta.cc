// Differential tests for dense per-page protocol state (docs/PERFORMANCE.md,
// "Per-page protocol state"): the PageId-indexed LrcPageTable / HlrcPageTable
// must behave exactly like the page-keyed maps LrcProtocol and HlrcProtocol
// kept before them. The replaced maps are copied below verbatim as the
// reference model. ~1000 randomized episodes per family drive both through
// write notices, covered/applied updates, fetch completion, GC
// inventory/validate/release, barriers without GC (interval-log truncation
// while notices survive) and home migration with parked requests. After
// every step the two must agree on every surviving entry, on iteration
// order, and on the modelled memory; the incremental counters are also
// checked against a recount from scratch.
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

  // FetchDiffs after the replies: collected diffs sorted in happens-before
  // order, applied, then pruned. Returns the (writer, id) apply order.
  std::vector<std::pair<NodeId, uint32_t>> CompleteDiffFetch(PageId page) {
    std::vector<std::tuple<VectorClock, uint32_t, NodeId, Diff>> collected;
    for (const PendingWn& wn : pending_.at(page)) {
      collected.emplace_back(wn.vt, wn.id, wn.writer, Diff{});
    }
    std::sort(collected.begin(), collected.end(), [](const auto& a, const auto& b) {
      return std::get<0>(a).TotalOrderLess(std::get<0>(b));
    });
    std::vector<std::pair<NodeId, uint32_t>> order;
    for (auto& [vt, id, writer, diff] : collected) {
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

// Every surviving entry, in order, plus the memory model (incremental, the
// reference's map-size formula, and a recount of the dense table).
void ExpectSameLrc(const RefLrc& ref, const LrcPageTable& table, int nodes) {
  int64_t pending = 0;
  int64_t covered_pages = 0;
  int64_t hints = 0;
  int64_t diff_bytes = 0;
  int64_t diffs = 0;
  std::vector<std::pair<PageId, uint32_t>> diff_keys;
  for (PageId page = 0; page < static_cast<PageId>(table.size()); ++page) {
    const LrcPageMeta& m = table.get(page);
    const LrcColdMeta& c = table.cold(page);
    auto pit = ref.pending_.find(page);
    const size_t ref_pending = pit == ref.pending_.end() ? 0 : pit->second.size();
    ASSERT_EQ(m.pending.size(), ref_pending) << "page " << page;
    for (size_t i = 0; i < m.pending.size(); ++i) {
      const RefLrc::PendingWn& wn = pit->second[i];
      EXPECT_EQ(m.pending[i]->writer, wn.writer);
      EXPECT_EQ(m.pending[i]->id, wn.id);
      EXPECT_TRUE(m.pending[i]->vt == wn.vt);
    }
    auto cit = ref.covered_.find(page);
    EXPECT_EQ(!c.covered.empty(), cit != ref.covered_.end()) << "page " << page;
    if (cit != ref.covered_.end()) {
      EXPECT_EQ(c.covered, cit->second);
    }
    auto hit = ref.owner_hint_.find(page);
    EXPECT_EQ(m.owner_hint, hit == ref.owner_hint_.end() ? kInvalidNode : hit->second);
    auto lit = ref.latest_diff_id_.find(page);
    EXPECT_EQ(!c.diffs.empty(), lit != ref.latest_diff_id_.end());
    if (!c.diffs.empty()) {
      EXPECT_EQ(c.diffs.back().rec->id, lit->second);
    }
    for (const StoredDiff& sd : c.diffs) {
      diff_keys.emplace_back(page, sd.rec->id);
      const RefLrc::StoredDiff& rsd = ref.diff_store_.at({page, sd.rec->id});
      EXPECT_EQ(sd.bytes, rsd.bytes);
      EXPECT_TRUE(sd.rec->vt == rsd.vt);
      diff_bytes += sd.bytes;
    }
    pending += static_cast<int64_t>(m.pending.size());
    covered_pages += c.covered.empty() ? 0 : 1;
    hints += m.owner_hint == kInvalidNode ? 0 : 1;
    diffs += static_cast<int64_t>(c.diffs.size());
  }
  // Pages past the table's end hold nothing in the reference either.
  for (const auto& [page, v] : ref.pending_) {
    EXPECT_LT(page, static_cast<PageId>(table.size()));
  }
  for (PageId page : Keys(ref.covered_)) {
    EXPECT_LT(page, static_cast<PageId>(table.size()));
  }
  std::vector<std::pair<PageId, uint32_t>> ref_keys;
  for (const auto& [key, sd] : ref.diff_store_) {
    ref_keys.push_back(key);
  }
  EXPECT_EQ(diff_keys, ref_keys);  // Same diffs, same (page, id) order.
  EXPECT_EQ(table.diff_count(), static_cast<int64_t>(ref.diff_store_.size()));
  EXPECT_EQ(diffs, table.diff_count());
  EXPECT_EQ(table.pending_count(), ref.pending_count_);
  EXPECT_EQ(pending, ref.pending_count_);
  EXPECT_EQ(static_cast<size_t>(covered_pages), ref.covered_.size());
  EXPECT_EQ(static_cast<size_t>(hints), ref.owner_hint_.size());
  const int64_t recount = diff_bytes + pending * (8 + 4 * static_cast<int64_t>(nodes)) +
                          covered_pages * 4 * nodes + hints * 8;
  EXPECT_EQ(table.MemoryBytes(), ref.SubclassMemoryBytes());
  EXPECT_EQ(table.MemoryBytes(), recount);
}

// The same release walk as LrcProtocol::OnBarrierReleased, minus the
// page-table updates.
std::vector<PageId> ReleaseGc(LrcPageTable* table,
                              const std::vector<std::pair<PageId, NodeId>>& validators,
                              NodeId self) {
  std::vector<PageId> dropped;
  for (const auto& [page, validator] : validators) {
    table->SetOwnerHint(page, validator);
    if (validator != self && table->HasPending(page)) {
      dropped.push_back(page);
      table->DropCopy(page);
    }
  }
  table->ClearDiffs();
  return dropped;
}

// Page ids mostly in a small dense range, now and then a far one, so both
// reuse and on-demand growth are exercised.
PageId RandomPage(Rng* rng) {
  return rng->NextBool(0.03) ? static_cast<PageId>(rng->NextInt(100, 400))
                             : static_cast<PageId>(rng->NextInt(0, 40));
}

void RunLrcEpisode(uint64_t seed) {
  Rng rng(seed);
  const int nodes = static_cast<int>(rng.NextInt(2, 16));
  const NodeId self = static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(nodes)));
  VtSource vts(&rng, nodes);
  std::vector<uint32_t> next_id(static_cast<size_t>(nodes), 0);
  IntervalLog log(nodes);
  RefLrc ref(nodes);
  LrcPageTable table(nodes);

  const int steps = static_cast<int>(rng.NextInt(20, 80));
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    const int op = static_cast<int>(rng.NextBounded(7));
    if (op <= 1) {
      // A remote interval's write notices (barrier or lock grant).
      const NodeId w = static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(nodes)));
      if (w == self) {
        continue;
      }
      const uint32_t id = ++next_id[static_cast<size_t>(w)];
      std::set<PageId> page_set;
      for (int i = static_cast<int>(rng.NextInt(1, 4)); i > 0; --i) {
        page_set.insert(RandomPage(&rng));
      }
      PageList pages;
      pages.assign(page_set.begin(), page_set.end());
      IntervalPtr rec = MakeRecord(w, id, vts.Next(w, id), pages);
      log.Append(rec);
      for (PageId p : rec->pages) {
        ref.OnWriteNotice(*rec, p);
        table.AddNotice(p, rec);
      }
    } else if (op == 2) {
      // A local interval close storing diffs.
      const uint32_t id = ++next_id[static_cast<size_t>(self)];
      std::set<PageId> page_set;
      for (int i = static_cast<int>(rng.NextInt(1, 3)); i > 0; --i) {
        page_set.insert(RandomPage(&rng));
      }
      PageList pages;
      pages.assign(page_set.begin(), page_set.end());
      IntervalPtr rec = MakeRecord(self, id, vts.Next(self, id), pages);
      log.Append(rec);
      for (PageId p : rec->pages) {
        const int64_t bytes = rng.NextInt(16, 600);
        ref.StoreDiff(p, *rec, bytes);
        table.SetCovered(p, self, id);
        table.AddDiff(p, StoredDiff{rec, Diff{}, true, true, 0, bytes, {}});
      }
    } else if (op == 3) {
      // Diff fetch completion for a page with pending notices.
      const PageId p = RandomPage(&rng);
      ASSERT_EQ(table.HasPending(p), ref.HasPending(p));
      if (!ref.HasPending(p)) {
        continue;
      }
      for (const RefLrc::PendingWn& wn : ref.pending_.at(p)) {
        EXPECT_EQ(table.PendingNotice(p, wn.writer, wn.id)->id, wn.id);
      }
      const auto ref_order = ref.CompleteDiffFetch(p);
      std::vector<std::pair<IntervalPtr, Diff>> collected;
      for (const IntervalPtr& wn : table.at(p).pending) {
        collected.emplace_back(wn, Diff{});
      }
      std::sort(collected.begin(), collected.end(), [](const auto& a, const auto& b) {
        return a.first->vt.TotalOrderLess(b.first->vt);
      });
      std::vector<std::pair<NodeId, uint32_t>> order;
      for (const auto& [rec, diff] : collected) {
        order.emplace_back(rec->writer, rec->id);
        table.SetCovered(p, rec->writer, rec->id);
      }
      table.PrunePendingCovered(p);
      EXPECT_EQ(order, ref_order);
    } else if (op == 4) {
      // Full-page fetch completion: the serving node's covered stamps.
      const PageId p = RandomPage(&rng);
      for (int i = static_cast<int>(rng.NextInt(0, 3)); i > 0; --i) {
        const NodeId w = static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(nodes)));
        const uint32_t id = static_cast<uint32_t>(rng.NextInt(1, 10));
        ref.SetCovered(p, w, id);
        table.SetCovered(p, w, id);
      }
      ref.PrunePendingCovered(p);
      table.PrunePendingCovered(p);
    } else if (op == 5) {
      // Barrier-time GC: inventory, validator assignment, release.
      const auto ref_inv = ref.GcInventory();
      const auto inv = table.Inventory();
      ASSERT_EQ(inv.size(), ref_inv.size());
      for (size_t i = 0; i < inv.size(); ++i) {
        EXPECT_EQ(inv[i].first, std::get<0>(ref_inv[i]));
        EXPECT_EQ(inv[i].second->id, std::get<1>(ref_inv[i]));
        EXPECT_TRUE(inv[i].second->vt == std::get<2>(ref_inv[i]));
      }
      // Validators: this node for some inventory pages, other nodes for the
      // rest and for pages only other nodes wrote. Ascending by page, as the
      // manager sends them.
      std::map<PageId, NodeId> assign;
      for (const auto& [page, rec] : inv) {
        assign[page] = rng.NextBool(0.5) ? self : static_cast<NodeId>(rng.NextBounded(nodes));
      }
      for (int i = static_cast<int>(rng.NextInt(0, 5)); i > 0; --i) {
        assign.emplace(RandomPage(&rng), static_cast<NodeId>(rng.NextBounded(nodes)));
      }
      const std::vector<std::pair<PageId, NodeId>> validators(assign.begin(), assign.end());
      ref.ApplyGcValidate(validators);
      EXPECT_EQ(ReleaseGc(&table, validators, self), ref.OnBarrierReleased(self));
      log.Clear();
    } else {
      // A barrier without GC truncates the interval log; pending notices and
      // stored diffs keep their records alive through their handles.
      log.Clear();
    }
    ExpectSameLrc(ref, table, nodes);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// HLRC episodes.

void ExpectSameHlrc(const RefHlrc& ref, const HlrcPageTable& table, int nodes) {
  int64_t stamps = 0;
  int64_t applied_pages = 0;
  int64_t overrides = 0;
  int64_t streaks = 0;
  for (PageId page = 0; page < static_cast<PageId>(table.size()); ++page) {
    const HlrcPageMeta& m = table.get(page);
    const HlrcColdMeta& c = table.cold(page);
    const RefHlrc::Required* req = ref.RequiredOf(page);
    ASSERT_EQ(m.required.size(), req == nullptr ? 0 : req->size()) << "page " << page;
    for (size_t i = 0; i < m.required.size(); ++i) {
      EXPECT_EQ(m.required[i].writer, (*req)[i].first);
      EXPECT_EQ(m.required[i].id, (*req)[i].second);
    }
    EXPECT_EQ(m.required_epoch, ref.RequiredEpoch(page));
    EXPECT_EQ(table.RequiredApplied(page),
              req == nullptr || ref.AppliedSatisfies(page, *req));
    auto ait = ref.applied_flush_.find(page);
    EXPECT_EQ(!c.applied.empty(), ait != ref.applied_flush_.end()) << "page " << page;
    if (ait != ref.applied_flush_.end()) {
      EXPECT_EQ(c.applied, ait->second);
    }
    auto pit = ref.pending_reqs_.find(page);
    const size_t ref_parked = pit == ref.pending_reqs_.end() ? 0 : pit->second.size();
    ASSERT_EQ(c.parked.size(), ref_parked);
    for (size_t i = 0; i < c.parked.size(); ++i) {
      EXPECT_EQ(c.parked[i].requester, pit->second[i].requester);
      EXPECT_EQ(c.parked[i].required.size(), pit->second[i].required.size());
    }
    auto oit = ref.home_override_.find(page);
    EXPECT_EQ(c.home_override, oit == ref.home_override_.end() ? kInvalidNode : oit->second);
    auto sit = ref.writer_streak_.find(page);
    EXPECT_EQ(c.streak.writer != kInvalidNode, sit != ref.writer_streak_.end());
    if (sit != ref.writer_streak_.end()) {
      EXPECT_EQ(c.streak.writer, sit->second.writer);
      EXPECT_EQ(c.streak.count, sit->second.count);
    }
    stamps += static_cast<int64_t>(m.required.size());
    applied_pages += c.applied.empty() ? 0 : 1;
    overrides += c.home_override == kInvalidNode ? 0 : 1;
    streaks += c.streak.writer == kInvalidNode ? 0 : 1;
  }
  for (const auto& [page, req] : ref.required_flush_) {
    EXPECT_LT(page, static_cast<PageId>(table.size()));
  }
  for (PageId page : Keys(ref.applied_flush_)) {
    EXPECT_LT(page, static_cast<PageId>(table.size()));
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

  const int steps = static_cast<int>(rng.NextInt(20, 80));
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    const PageId p = RandomPage(&rng);
    const uint32_t id = static_cast<uint32_t>(rng.NextInt(1, 8));
    switch (rng.NextBounded(7)) {
      case 0: {  // A write notice, or this node's own flush of a remote-homed page.
        const NodeId w = rng.NextBool(0.3) ? self : random_node();
        ref.UpdateRequired(p, w, id);
        table.UpdateRequired(p, w, id);
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
      case 3:
      case 4: {  // A diff flush applied at the home, then serve and maybe migrate.
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
      case 5: {  // This node becomes the home by transfer.
        std::vector<uint32_t> applied(static_cast<size_t>(nodes));
        for (uint32_t& a : applied) {
          a = static_cast<uint32_t>(rng.NextInt(0, 8));
        }
        ref.HomeTransfer(p, applied, self, id);
        table.AdoptApplied(p, applied);
        table.SetApplied(p, self, id);
        table.SetHomeOverride(p, self);
        ExpectSameRequests(table.TakeParked(p, /*all=*/false), ref.ServePendingRequests(p));
        break;
      }
      default: {  // A page reply naming its serving home.
        const NodeId home = random_node();
        ref.PageReply(p, home, static_home(p), self);
        if (home != self &&
            (home != static_home(p) || table.HomeOverride(p) != kInvalidNode)) {
          table.SetHomeOverride(p, home);
        }
        break;
      }
    }
    ExpectSameHlrc(ref, table, nodes);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
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
  table.AddNotice(3, rec);
  table.AddNotice(7, rec);
  EXPECT_EQ(rec.use_count(), 4);  // `rec`, the log, two notices: no copies.
  rec.reset();

  log.Clear();
  ASSERT_FALSE(watch.expired());
  EXPECT_EQ(watch.use_count(), 2);
  const IntervalPtr& held = table.PendingNotice(3, 2, 1);
  EXPECT_EQ(held.get(), table.PendingNotice(7, 2, 1).get());
  EXPECT_TRUE(held->vt == vt);

  table.SetCovered(3, 2, 1);
  table.PrunePendingCovered(3);
  EXPECT_EQ(watch.use_count(), 1);
  table.DropCopy(7);
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
  EXPECT_EQ(lrc.OwnerHint(70000), kInvalidNode);
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
  lrc.AddNotice(5, MakeRecord(2, 1, vt, PageList{5}));
  lrc.PrunePendingCovered(5);  // Nothing covered yet: the notice stays.
  for (PageId page : {PageId{0}, PageId{5}, PageId{70000}}) {
    EXPECT_EQ(lrc.Covered(page, 2), 0u);
    EXPECT_EQ(lrc.FindDiff(page, 1), nullptr);
    EXPECT_EQ(lrc.OwnerHint(page), kInvalidNode);
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
