// Differential tests for the interval metadata fast path
// (docs/PERFORMANCE.md): the per-writer append-only IntervalLog of shared
// immutable records must behave exactly like the original global
// std::map<(writer, id), IntervalRecord> store it replaced — same surviving
// records, same pack order (writers ascending, ids ascending), same encoded
// bytes — across ~1000 randomized close/apply/pack/GC-truncation sequences.
// Also pins the two properties the copy-free fan-out relies on: packed
// batches alias the published record (no deep copies) and published records
// are immutable, plus directed coverage for SmallVec, the inline write-notice
// page list.
#include "src/proto/interval_log.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/mem/small_vec.h"
#include "src/proto/interval.h"
#include "src/proto/vector_clock.h"

namespace hlrc {
namespace {

IntervalPtr MakeRecord(NodeId writer, uint32_t id, const VectorClock& vt,
                       std::initializer_list<PageId> pages) {
  IntervalRecord rec;
  rec.writer = writer;
  rec.id = id;
  rec.vt = vt;
  rec.pages = pages;
  rec.Seal();
  return std::make_shared<IntervalRecord>(std::move(rec));
}

// The representation this PR replaced: one global map keyed by (writer, id)
// with the receive-side skip/raise bookkeeping of ApplyIntervals, kept here
// as the differential oracle.
class ReferenceStore {
 public:
  explicit ReferenceStore(int nodes) : vt_(nodes) {}

  void Apply(const IntervalBatch& recs) {
    for (const IntervalPtr& rec : recs) {
      if (rec->id <= vt_.Get(rec->writer)) {
        continue;
      }
      intervals_[Key{rec->writer, rec->id}] = *rec;  // Deep copy.
      vt_.Set(rec->writer, rec->id);
    }
  }

  std::vector<IntervalRecord> PackFor(const VectorClock& vt) const {
    std::vector<IntervalRecord> out;
    for (const auto& [key, rec] : intervals_) {
      if (key.second > vt.Get(key.first)) {
        out.push_back(rec);
      }
    }
    return out;
  }

  const IntervalRecord* Find(NodeId writer, uint32_t id) const {
    auto it = intervals_.find(Key{writer, id});
    return it == intervals_.end() ? nullptr : &it->second;
  }

  void Clear() { intervals_.clear(); }

  const VectorClock& vt() const { return vt_; }
  size_t size() const { return intervals_.size(); }

 private:
  // (writer, id): the pair's writer-then-id order is the pack order.
  using Key = std::pair<NodeId, uint32_t>;

  VectorClock vt_;
  std::map<Key, IntervalRecord> intervals_;
};

// The node under test: IntervalLog plus the same vt bookkeeping.
class LogStore {
 public:
  explicit LogStore(int nodes) : vt_(nodes), log_(nodes) {}

  void Apply(const IntervalBatch& recs) {
    for (const IntervalPtr& rec : recs) {
      if (rec->id <= vt_.Get(rec->writer)) {
        continue;
      }
      log_.Append(rec);
      vt_.Set(rec->writer, rec->id);
    }
  }

  const IntervalLog& log() const { return log_; }
  void Clear() { log_.Clear(); }
  const VectorClock& vt() const { return vt_; }

 private:
  VectorClock vt_;
  IntervalLog log_;
};

void ExpectSamePack(const std::vector<IntervalRecord>& ref, const IntervalBatch& log) {
  ASSERT_EQ(ref.size(), log.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].writer, log[i]->writer) << "pack position " << i;
    EXPECT_EQ(ref[i].id, log[i]->id) << "pack position " << i;
    EXPECT_TRUE(ref[i].vt == log[i]->vt) << "pack position " << i;
    EXPECT_TRUE(ref[i].pages == log[i]->pages) << "pack position " << i;
    EXPECT_EQ(ref[i].EncodedSize(false), log[i]->EncodedSize(false));
    EXPECT_EQ(ref[i].EncodedSize(true), log[i]->EncodedSize(true));
  }
}

// One randomized protocol-shaped episode: writers close intervals (each
// writer's ids strictly increasing, its vt merging loose knowledge of the
// others), batches get delivered — sometimes twice, so the id <= vt[writer]
// skip path runs — packs for random receiver timestamps are compared, and
// barrier GC truncates both stores.
void RunEpisode(uint64_t seed) {
  constexpr int kNodes = 6;
  Rng rng(seed);
  ReferenceStore ref(kNodes);
  LogStore log(kNodes);

  // Per-writer global history, so a re-delivery replays the identical
  // records (as retransmission does).
  std::vector<std::vector<IntervalPtr>> history(kNodes);
  std::vector<VectorClock> writer_vt(kNodes, VectorClock(kNodes));

  const int ops = static_cast<int>(rng.NextInt(20, 60));
  for (int op = 0; op < ops; ++op) {
    switch (rng.NextBounded(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // A writer closes a new interval.
        const NodeId w = static_cast<NodeId>(rng.NextBounded(kNodes));
        VectorClock& vt = writer_vt[static_cast<size_t>(w)];
        // Loosely observe the others, like lock hand-offs do.
        for (NodeId o = 0; o < kNodes; ++o) {
          if (o != w && rng.NextBool(0.3)) {
            const auto& h = history[static_cast<size_t>(o)];
            if (!h.empty() && vt.Get(o) < h.back()->id) {
              vt.Set(o, vt.Get(o) + 1);
            }
          }
        }
        vt.Bump(w);
        IntervalRecord rec;
        rec.writer = w;
        rec.id = vt.Get(w);
        rec.vt = vt;
        const int64_t pages = rng.NextInt(0, 12);
        for (int64_t i = 0; i < pages; ++i) {
          rec.pages.push_back(static_cast<PageId>(rng.NextBounded(256)));
        }
        rec.Seal();
        history[static_cast<size_t>(w)].push_back(
            std::make_shared<IntervalRecord>(std::move(rec)));
        break;
      }
      case 4:
      case 5:
      case 6: {  // Deliver a batch: a suffix of one writer's history,
                 // starting at or before what the node has seen.
        const NodeId w = static_cast<NodeId>(rng.NextBounded(kNodes));
        const auto& h = history[static_cast<size_t>(w)];
        if (h.empty()) {
          break;
        }
        const size_t from = rng.NextBounded(h.size());
        IntervalBatch batch(h.begin() + static_cast<int64_t>(from), h.end());
        ref.Apply(batch);
        log.Apply(batch);
        EXPECT_TRUE(ref.vt() == log.vt());
        break;
      }
      case 7:
      case 8: {  // Pack for a random receiver timestamp.
        VectorClock recv(kNodes);
        for (NodeId n = 0; n < kNodes; ++n) {
          recv.Set(n, static_cast<uint32_t>(
                          rng.NextBounded(writer_vt[static_cast<size_t>(n)].Get(n) + 2)));
        }
        ExpectSamePack(ref.PackFor(recv), log.log().PackFor(recv));
        break;
      }
      case 9: {  // Barrier GC: every record is now known everywhere.
        ref.Clear();
        log.Clear();
        EXPECT_TRUE(log.log().empty());
        break;
      }
    }
  }

  // Final full-content comparison: pack against the zero timestamp returns
  // everything either store holds, in the pinned order.
  const VectorClock zero(kNodes);
  ExpectSamePack(ref.PackFor(zero), log.log().PackFor(zero));
  EXPECT_EQ(ref.size(), static_cast<size_t>(log.log().size()));

  // Find agrees with the oracle on every surviving record.
  for (const IntervalRecord& rec : ref.PackFor(zero)) {
    const IntervalRecord* got = log.log().Find(rec.writer, rec.id);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->id, rec.id);
    EXPECT_TRUE(got->vt == rec.vt);
  }
}

TEST(IntervalLogDifferential, MatchesMapStoreAcross1000Episodes) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    RunEpisode(seed);
    if (HasFailure()) {
      FAIL() << "episode seed " << seed;
    }
  }
}

// The point of the refactor: packing for N receivers yields N handles to the
// SAME record — pointer-equal, not deep copies — and the log itself still
// holds it, so a barrier fan-out costs one record no matter the node count.
TEST(IntervalLog, FanOutSharesOneRecord) {
  VectorClock vt(4);
  vt.Set(1, 1);
  IntervalLog log(4);
  IntervalPtr rec = MakeRecord(1, 1, vt, {10, 11, 12});
  const IntervalRecord* raw = rec.get();
  log.Append(rec);

  const VectorClock zero(4);
  const IntervalBatch to_a = log.PackFor(zero);
  const IntervalBatch to_b = log.PackFor(zero);
  const IntervalBatch to_c = log.PackFor(zero);
  ASSERT_EQ(to_a.size(), 1u);
  EXPECT_EQ(to_a[0].get(), raw);
  EXPECT_EQ(to_b[0].get(), raw);
  EXPECT_EQ(to_c[0].get(), raw);
  // One owner in the log, one in `rec`, one per packed payload — and no
  // copies anywhere.
  EXPECT_EQ(rec.use_count(), 5);

  // Truncation drops the log's reference; in-flight payloads keep the record
  // alive until they are consumed.
  log.Clear();
  EXPECT_EQ(rec.use_count(), 4);
  EXPECT_EQ(to_a[0]->pages.size(), 3u);
}

// Published records are immutable: handles are shared_ptr<const ...>, and the
// sealed size cache answers for both encodings without recomputation.
TEST(IntervalLog, SealedRecordsCacheEncodedSizes) {
  VectorClock vt(8);
  vt.Set(3, 7);
  IntervalRecord rec;
  rec.writer = 3;
  rec.id = 7;
  rec.vt = vt;
  rec.pages = {1, 2, 3, 4, 5};
  EXPECT_FALSE(rec.sealed());
  const int64_t without_vt = rec.ComputeEncodedSize(false);
  const int64_t with_vt = rec.ComputeEncodedSize(true);
  EXPECT_EQ(without_vt, 8 + 5 * 4);
  EXPECT_EQ(with_vt, without_vt + vt.EncodedSize());
  // Unsealed records compute on the fly; sealed records answer from cache.
  EXPECT_EQ(rec.EncodedSize(false), without_vt);
  rec.Seal();
  EXPECT_TRUE(rec.sealed());
  EXPECT_EQ(rec.cached_size_without_vt, without_vt);
  EXPECT_EQ(rec.cached_size_with_vt, with_vt);
  EXPECT_EQ(rec.EncodedSize(false), without_vt);
  EXPECT_EQ(rec.EncodedSize(true), with_vt);
  static_assert(std::is_const_v<std::remove_reference_t<decltype(*std::declval<IntervalPtr>())>>,
                "published interval handles must be read-only");
}

TEST(IntervalLog, PackSkipsSeenPrefixesPerWriter) {
  IntervalLog log(3);
  for (uint32_t id = 1; id <= 4; ++id) {
    VectorClock vt(3);
    vt.Set(0, id);
    log.Append(MakeRecord(0, id, vt, {static_cast<PageId>(id)}));
  }
  VectorClock vt2(3);
  vt2.Set(2, 9);
  log.Append(MakeRecord(2, 9, vt2, {}));

  VectorClock recv(3);
  recv.Set(0, 2);  // Seen ids 1..2 of writer 0, nothing of writer 2.
  const IntervalBatch out = log.PackFor(recv);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0]->writer, 0);
  EXPECT_EQ(out[0]->id, 3u);
  EXPECT_EQ(out[1]->id, 4u);
  EXPECT_EQ(out[2]->writer, 2);
  EXPECT_EQ(out[2]->id, 9u);

  EXPECT_EQ(log.Find(0, 3)->id, 3u);
  EXPECT_EQ(log.Find(0, 5), nullptr);
  EXPECT_EQ(log.Find(1, 1), nullptr);
  EXPECT_EQ(log.Find(2, 9)->id, 9u);
}

TEST(IntervalLogDeathTest, RejectsNonMonotonicAppend) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  IntervalLog log(2);
  VectorClock vt(2);
  vt.Set(0, 5);
  log.Append(MakeRecord(0, 5, vt, {}));
  EXPECT_DEATH(log.Append(MakeRecord(0, 5, vt, {})), "monotonic|id");
  IntervalRecord unsealed;
  unsealed.writer = 1;
  unsealed.id = 1;
  unsealed.vt = VectorClock(2);
  EXPECT_DEATH(log.Append(std::make_shared<IntervalRecord>(std::move(unsealed))),
               "seal");
}

// ---------------------------------------------------------------------------
// SmallVec: the inline write-notice page list.

TEST(SmallVec, SpillsFromInlineToHeap) {
  SmallVec<PageId, 8> v;
  EXPECT_EQ(v.inline_capacity(), 8u);
  for (PageId p = 0; p < 8; ++p) {
    v.push_back(p);
  }
  EXPECT_EQ(v.capacity(), 8u);  // Still inline.
  v.push_back(8);               // Spill.
  EXPECT_GT(v.capacity(), 8u);
  for (PageId p = 9; p < 100; ++p) {
    v.push_back(p);
  }
  ASSERT_EQ(v.size(), 100u);
  for (PageId p = 0; p < 100; ++p) {
    EXPECT_EQ(v[static_cast<size_t>(p)], p);
  }
  EXPECT_EQ(v.back(), 99);
}

TEST(SmallVec, CopyAndMoveBothSidesOfTheSpill) {
  SmallVec<PageId, 4> small = {1, 2, 3};
  SmallVec<PageId, 4> big;
  for (PageId p = 0; p < 32; ++p) {
    big.push_back(p * 10);
  }

  SmallVec<PageId, 4> small_copy(small);
  SmallVec<PageId, 4> big_copy(big);
  EXPECT_TRUE(small_copy == small);
  EXPECT_TRUE(big_copy == big);

  SmallVec<PageId, 4> small_moved(std::move(small_copy));
  SmallVec<PageId, 4> big_moved(std::move(big_copy));
  EXPECT_TRUE(small_moved == small);
  EXPECT_TRUE(big_moved == big);
  EXPECT_EQ(small_copy.size(), 0u);
  EXPECT_EQ(big_copy.size(), 0u);

  big_moved = small;  // Heap state assigned from inline state.
  EXPECT_TRUE(big_moved == small);
  small_moved = big;  // And the reverse.
  EXPECT_TRUE(small_moved == big);

  small_moved.clear();
  EXPECT_EQ(small_moved.size(), 0u);
  EXPECT_FALSE(small_moved == big);
}

TEST(SmallVec, AssignAndIterate) {
  const std::vector<PageId> src = {7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  SmallVec<PageId, 8> v = {1};
  v.assign(src.begin(), src.end());
  ASSERT_EQ(v.size(), src.size());
  size_t i = 0;
  for (PageId p : v) {
    EXPECT_EQ(p, src[i++]);
  }
}

}  // namespace
}  // namespace hlrc
