// Homeless lazy release consistency (the paper's LRC baseline and its
// overlapped variant OLRC).
//
// Diffs stay distributed at their writers. A page fault collects the diffs
// named by the page's pending write notices from every writer and applies
// them locally in happens-before order. Protocol data (diffs, write notices)
// accumulates until a barrier-time garbage collection validates each page at
// its last writer and discards everything (paper §3.5).
//
// OLRC (overlapped()) moves diff creation and diff/page fetch servicing to
// the communication co-processor; twin creation, diff application and lock
// handling stay on the compute processor (paper §2.4.1).
#ifndef SRC_PROTO_LRC_H_
#define SRC_PROTO_LRC_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/proto/page_meta.h"
#include "src/proto/protocol.h"

namespace hlrc {

// One GC's outcome, built once by the manager and shared, immutable, by
// every node's payload and GC state.
struct GcRound {
  // The validator at the page's latest GC so far (where to fetch the page
  // after it), or kInvalidNode.
  NodeId OwnerOf(PageId page) const {
    return static_cast<size_t>(page) < owners.size() ? owners[static_cast<size_t>(page)]
                                                     : kInvalidNode;
  }

  // The validator of each page with diffs, ascending by page.
  std::vector<std::pair<PageId, NodeId>> validators;
  // Indexed by page: OwnerOf. This GC's validators folded into the previous
  // round's owners.
  std::vector<NodeId> owners;
  int64_t owned_pages = 0;  // Entries of `owners` naming a node.
};
using GcValidators = std::shared_ptr<const GcRound>;

// One GC's round: `validators` (ascending by page) folded into the owners
// of `previous` (null before the first GC). Built once, by the manager.
GcValidators FoldGcRound(const GcRound* previous,
                         std::vector<std::pair<PageId, NodeId>> validators);

class LrcProtocol : public ProtocolNode {
 public:
  explicit LrcProtocol(const Env& env) : ProtocolNode(env), meta_(env.nodes) {}

 protected:
  void OnIntervalClosed(const std::shared_ptr<IntervalRecord>& rec,
                        CloseActions* actions) override;
  NoticeWalk OnIntervalNotices(const IntervalPtr& rec) override;
  Task<void> ResolveFault(PageId page, bool write) override;
  void HandleProtocolMessage(Message msg) override;
  int64_t SubclassMemoryBytes() const override { return meta_.MemoryBytes(); }
  Task<void> BarrierPreRelease(BarrierId barrier, bool mem_pressure) override;
  void OnBarrierReleased() override;

 private:
  // Brings the page's pending notices up to date (LrcPageTable::Resolve),
  // unmapping and forgetting the copy if a GC dropped it meanwhile. Runs
  // before anything reads the page's notices, copy or covered stamps.
  void Resolve(PageId page);
  bool HasPending(PageId page) {
    Resolve(page);
    return meta_.HasPending(page);
  }
  // Where to fetch the page after a GC: its validator at its latest GC.
  NodeId OwnerHint(PageId page) const;

  Task<void> FetchDiffs(PageId page);
  Task<void> FetchFullPage(PageId page);

  void MarkDiffReady(PageId page, uint32_t id);
  void TrySendDiffReply(PageId page, NodeId requester, const std::vector<uint32_t>& ids);
  void ServePageRequest(PageId page, NodeId requester);

  // Garbage collection.
  void HandleGcRequest();
  void HandleGcInfo(NodeId node, std::vector<std::pair<PageId, IntervalPtr>> entries);
  void ApplyGcValidate(GcValidators validators, const IntervalBatch& intervals);
  Task<void> ValidateForGc(std::vector<PageId> pages);
  void HandleGcDone();

  // Pending write notices, covered stamps, stored diffs and in-flight
  // faults, one entry per page.
  LrcPageTable meta_;

  // GC state (node side): the current GC's round as the manager sent it,
  // null outside a GC; and the latest round released here, whose owners
  // answer OwnerHint (null before the first GC).
  GcValidators gc_validators_;
  GcValidators gc_owners_;

  // TestMutation::kLrcSkipInvalidate fires once per run.
  bool mutation_fired_ = false;

  // GC state (manager side).
  struct GcCoord {
    int infos_pending = 0;
    int dones_pending = 0;
    std::vector<IntervalPtr> best;  // Last writer's interval, indexed by page.
    std::unique_ptr<Completion> infos_done;
    std::unique_ptr<Completion> dones_done;
  };
  std::unique_ptr<GcCoord> gc_coord_;
};

// Payloads.

struct DiffRequestPayload : Payload {
  PageId page;
  NodeId requester;
  std::vector<uint32_t> intervals;
};

struct DiffReplyPayload : Payload {
  PageId page;
  NodeId writer;
  // Shared handles to the writer's stored diffs (no byte copies).
  std::vector<std::pair<uint32_t, std::shared_ptr<const Diff>>> diffs;
};

struct HomelessPageRequestPayload : Payload {
  PageId page;
  NodeId requester;
};

struct HomelessPageReplyPayload : Payload {
  PageId page;
  std::vector<std::byte> data;
  std::vector<std::pair<NodeId, uint32_t>> covered;
};

struct GcRequestPayload : Payload {};

struct GcInfoPayload : Payload {
  NodeId node;
  std::vector<std::pair<PageId, IntervalPtr>> entries;
};

struct GcValidatePayload : Payload {
  GcValidators validators;
  // The write notices this node's barrier release will carry, delivered
  // early: a validator must know every pre-barrier interval of its pages
  // before validating, or it would discover new diffs only after they have
  // been collected. Shared handles, like the release payload itself.
  IntervalBatch intervals;
};

struct GcDonePayload : Payload {
  NodeId node;
};

}  // namespace hlrc

#endif  // SRC_PROTO_LRC_H_
