// Protocol selection and tunables.
#ifndef SRC_PROTO_OPTIONS_H_
#define SRC_PROTO_OPTIONS_H_

#include <cstdint>

#include "src/common/names.h"
#include "src/common/types.h"

namespace hlrc {

enum class ProtocolKind : int {
  kLrc = 0,    // Homeless lazy release consistency (TreadMarks-style).
  kOlrc = 1,   // LRC with diffing/fetch service overlapped onto the co-processor.
  kHlrc = 2,   // Home-based LRC.
  kOhlrc = 3,  // HLRC with diff create/apply and page service on the co-processor.
  // Extensions beyond the paper's four (see DESIGN.md):
  kErc = 4,    // Eager release consistency: update broadcast at release
               // (Munin-style write-shared; the paper's §1 RC contrast).
  kAurc = 5,   // Automatic-update RC: HLRC's hardware ancestor — zero
               // software cost for update detection/propagation, write-through
               // traffic (paper §2.2; simulated AU hardware).
};

constexpr bool IsHomeBased(ProtocolKind k) {
  return k == ProtocolKind::kHlrc || k == ProtocolKind::kOhlrc || k == ProtocolKind::kAurc;
}
constexpr bool IsOverlapped(ProtocolKind k) {
  return k == ProtocolKind::kOlrc || k == ProtocolKind::kOhlrc;
}
// Display name ("HLRC") for reports; kProtocolNames holds the flag spelling.
const char* ProtocolName(ProtocolKind k);
inline constexpr EnumName<ProtocolKind> kProtocolNames[] = {
    {ProtocolKind::kLrc, "lrc"},     {ProtocolKind::kOlrc, "olrc"},
    {ProtocolKind::kHlrc, "hlrc"},   {ProtocolKind::kOhlrc, "ohlrc"},
    {ProtocolKind::kErc, "erc"},     {ProtocolKind::kAurc, "aurc"},
};

// How pages are assigned to homes (home-based protocols only).
enum class HomePolicy : int {
  kBlock = 0,       // Contiguous chunks of pages per node (matches the apps'
                    // block partitioning; the paper's "chosen intelligently").
  kRoundRobin = 1,  // Page p lives on node p mod N.
  kSingleNode = 2,  // All homes on node 0 (worst case, for ablations).
};
inline constexpr EnumName<HomePolicy> kHomePolicyNames[] = {
    {HomePolicy::kBlock, "block"},
    {HomePolicy::kRoundRobin, "round-robin"},
    {HomePolicy::kSingleNode, "single-node"},
};
inline const char* HomePolicyName(HomePolicy p) { return NameOf(kHomePolicyNames, p); }

// When the homeless protocols create diffs (paper §2.1: "eagerly, at the end
// of each interval, or lazily, on demand").
enum class DiffPolicy : int {
  kEager = 0,  // At interval end (the paper's implementation; matches OLRC).
  kLazy = 1,   // On first request (TreadMarks): saves creating diffs nobody
               // ever fetches, at the cost of doing the work on the request
               // path.
};
inline constexpr EnumName<DiffPolicy> kDiffPolicyNames[] = {
    {DiffPolicy::kEager, "eager"},
    {DiffPolicy::kLazy, "lazy"},
};
inline const char* DiffPolicyName(DiffPolicy p) { return NameOf(kDiffPolicyNames, p); }

// Intentionally-broken protocol variants, used ONLY by the checker's
// mutation regression tests (tests/test_check.cc, svmcheck --mutation) to
// prove the consistency oracle catches real protocol bugs. Each mutation
// silently corrupts one protocol action exactly once per run, in a way that
// cannot hang the run — only return stale data.
enum class TestMutation : int {
  kNone = 0,
  // HLRC/AURC: the home skips applying the first remote diff flush but still
  // advances its applied-flush timestamps, so fetches are served from a
  // stale master copy (lost update at the home).
  kHlrcSkipDiffApply = 1,
  // LRC/OLRC: the first write notice that would invalidate a mapped page is
  // dropped, so the node keeps reading its stale copy (lost invalidation).
  kLrcSkipInvalidate = 2,
};
inline constexpr EnumName<TestMutation> kTestMutationNames[] = {
    {TestMutation::kNone, "none"},
    {TestMutation::kHlrcSkipDiffApply, "hlrc-skip-diff-apply"},
    {TestMutation::kLrcSkipInvalidate, "lrc-skip-invalidate"},
};
inline const char* TestMutationName(TestMutation m) { return NameOf(kTestMutationNames, m); }

struct ProtocolOptions {
  ProtocolKind kind = ProtocolKind::kHlrc;
  HomePolicy home_policy = HomePolicy::kBlock;
  DiffPolicy diff_policy = DiffPolicy::kEager;
  // AURC write-through amplification: the automatic-update hardware resends
  // a word each time it is stored; we observe only the final dirty words, so
  // traffic is modelled as amplification x dirty bytes.
  double aurc_write_amplification = 1.5;
  // Home migration (home-based protocols): when a page's home observes this
  // many consecutive diff flushes from the same remote writer, it transfers
  // the home to that writer — turning a chronically misplaced page into a
  // home-effect page (extension; the dynamic version of the paper's "homes
  // chosen intelligently", §2.2).
  bool migrate_homes = false;
  int migrate_threshold = 3;
  // Homeless protocols trigger garbage collection at a barrier when a node's
  // protocol memory exceeds this threshold.
  int64_t gc_threshold_bytes = 4ll << 20;
  // Diff granularity in bytes (4 or 8).
  int diff_word_bytes = 8;
  // Coalesced wire plane (--coalesce), protocol half: request combining at
  // the home — concurrent fetches for the same page version parked behind one
  // in-flight request are all answered from one shared immutable snapshot.
  // Default off: golden summaries pin the uncombined behavior.
  bool coalesce = false;
  // Combining barrier tree (--barrier-arity=N, N >= 2): barrier enters fan in
  // and releases fan out over an N-ary tree rooted at the manager instead of
  // the flat all-to-manager pattern, so the manager NIC serializes O(arity)
  // frames per barrier instead of O(nodes). 0 (or 1) keeps the paper's flat
  // centralized barrier.
  int barrier_arity = 0;
  // Test-only fault seeding (see TestMutation above). Never set outside the
  // checker; kNone leaves every protocol untouched.
  TestMutation mutation = TestMutation::kNone;
};

}  // namespace hlrc

#endif  // SRC_PROTO_OPTIONS_H_
