// Home-based lazy release consistency (the paper's HLRC contribution and its
// overlapped variant OHLRC).
//
// Every page has a home. At interval end, writers diff their dirty pages and
// flush the diffs to the homes, where they are applied immediately and
// discarded. A page fault is a single round trip to the home: the request
// carries the faulting node's required flush timestamps; the home answers
// with the whole page once its applied timestamps cover the request, queueing
// the request otherwise (paper §2.3, §2.4.2).
//
// OHLRC (overlapped()) runs diff creation (writer side), diff application
// (home side) and page servicing on the communication co-processor.
#ifndef SRC_PROTO_HLRC_H_
#define SRC_PROTO_HLRC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/proto/page_meta.h"
#include "src/proto/protocol.h"

namespace hlrc {

class HlrcProtocol : public ProtocolNode {
 public:
  explicit HlrcProtocol(const Env& env) : ProtocolNode(env), meta_(env.nodes) {}

 protected:
  void OnIntervalClosed(const std::shared_ptr<IntervalRecord>& rec,
                        CloseActions* actions) override;
  NoticeWalk OnIntervalNotices(const IntervalPtr& rec) override;
  Task<void> ResolveFault(PageId page, bool write) override;
  void HandleProtocolMessage(Message msg) override;
  int64_t SubclassMemoryBytes() const override {
    return meta_.MemoryBytes() + inflight_diff_bytes_;
  }

  // Cost of capturing writes on a page (twin creation). The AURC subclass
  // overrides this to zero: automatic-update hardware snoops the bus.
  virtual SimTime WriteCaptureCost() const { return costs().TwinCost(pages().page_size()); }

  // The node currently believed to home `page`: a migration override if one
  // is known, else the static assignment. Flushes still route via the static
  // home (whose forwarding keeps per-writer ordering); fetches chase the
  // believed home and learn the true one from the reply.
  NodeId BelievedHomeOf(PageId page) const;
  bool IsHomeHere(PageId page) const { return BelievedHomeOf(page) == self(); }

  void HandleDiffFlush(NodeId writer, PageId page, uint32_t interval, const Diff& diff);
  void MaybeMigrateHome(PageId page, NodeId writer);
  void HandleHomeTransfer(PageId page, const std::vector<std::byte>& data,
                          const std::vector<uint32_t>& applied);
  void HandlePageRequest(PageId page, NodeId requester, Required required);
  // `snapshot` is null for a one-off reply (a fresh copy is taken); request
  // combining passes one shared snapshot to every reply of the same pass.
  void SendPageReply(PageId page, NodeId requester, PageSnapshot snapshot = nullptr);
  PageSnapshot SnapshotPage(PageId page);
  void ServePendingRequests(PageId page);
  void WakeLocalFaultIfReady(PageId page);
  void SendPageRequest(NodeId to, PageId page, NodeId requester, Required required);

  // Required stamps (faulting side), applied stamps (home side), parked
  // requests, local fault waits and migration state, one entry per page.
  // Protected: the AURC subclass reuses the home machinery.
  HlrcPageTable meta_;

  // Diffs created but not yet flushed (co-processor still working). Writers
  // discard diffs the moment they are sent (paper §2.3).
  int64_t inflight_diff_bytes_ = 0;

  // TestMutation::kHlrcSkipDiffApply fires once per run.
  bool mutation_fired_ = false;
};

// Payloads.

struct DiffFlushPayload : Payload {
  NodeId writer;
  PageId page;
  uint32_t interval;
  Diff diff;
};

struct HomePageRequestPayload : Payload {
  PageId page;
  NodeId requester;
  Required required;
};

struct HomePageReplyPayload : Payload {
  PageId page;
  NodeId home;  // The actual serving home (updates the requester's override).
  // Immutable: combined replies to concurrent requesters share one snapshot.
  PageSnapshot data;
};

struct HomeTransferPayload : Payload {
  PageId page;
  NodeId old_home;
  std::vector<std::byte> data;
  std::vector<uint32_t> applied;  // Per-writer applied flush timestamps.
};

}  // namespace hlrc

#endif  // SRC_PROTO_HLRC_H_
