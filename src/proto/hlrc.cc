#include "src/proto/hlrc.h"

#include <algorithm>

#include "src/common/log.h"
#include <utility>

namespace hlrc {

NodeId HlrcProtocol::BelievedHomeOf(PageId page) const {
  const NodeId home = meta_.HomeOverride(page);
  return home == kInvalidNode ? HomeOf(page) : home;
}

// ---------------------------------------------------------------------------
// Interval close: diff dirty pages and flush them to their homes. Pages homed
// here update the master copy in place — no twin, no diff (the "home
// effect", paper §4.4).

void HlrcProtocol::OnIntervalClosed(const std::shared_ptr<IntervalRecord>& rec,
                                    CloseActions* actions) {
  PageList kept;
  std::vector<std::function<void()>> flushes;          // Non-overlapped sends.
  std::vector<std::pair<SimTime, std::function<void()>>> cop_work;  // Overlapped.

  for (PageId p : rec->pages) {
    // Flushes always route via the static home; if the page migrated, the
    // static home forwards along a fixed path, preserving per-writer order.
    const NodeId home = HomeOf(p);
    if (IsHomeHere(p)) {
      HLRC_CHECK(!pages().HasTwin(p));
      meta_.SetApplied(p, self(), rec->id);
      meta_.ClearStreak(p);  // The home is writing: no migration streak.
      kept.push_back(p);
      continue;
    }
    HLRC_CHECK(pages().HasTwin(p));
    Diff d = CreateDiff(p, pages().Twin(p), pages().PageData(p),
                        pages().page_size(), env().options->diff_word_bytes);
    pages().DropTwin(p);
    if (d.Empty()) {
      continue;  // Nothing changed: no write notice, no flush.
    }
    kept.push_back(p);
    ++stats_.diffs_created;
    MetricDiffCreated(p, d.DataBytes());
    Trace(TraceEvent::kDiffCreate, p, d.DataBytes());
    Trace(TraceEvent::kDiffFlush, p, home);
    // A later fetch of this page must not return a home copy that predates
    // our own flush, or our writes would be lost: require our own interval.
    meta_.UpdateRequired(p, self(), rec->id);
    const SimTime create_cost = costs().DiffCreateCost(pages().page_size(), d.DataBytes());
    const int64_t diff_bytes = d.EncodedSize();
    inflight_diff_bytes_ += diff_bytes;
    NoteMemory();

    auto send_flush = [this, home, p, id = rec->id, diff_bytes,
                       cause = interval_close_span(),
                       diff = std::make_shared<Diff>(std::move(d))] {
      // The flush is causally part of the interval close, not of whatever
      // message happens to be in service when the co-processor finishes.
      SpanCause sc(this, cause);
      auto payload = std::make_unique<DiffFlushPayload>();
      payload->writer = self();
      payload->page = p;
      payload->interval = id;
      payload->diff = std::move(*diff);
      inflight_diff_bytes_ -= diff_bytes;
      Send(home, MsgType::kDiffFlush, diff_bytes, 16, std::move(payload));
    };

    if (overlapped()) {
      cop_work.emplace_back(create_cost, std::move(send_flush));
    } else {
      actions->diff_cost += create_cost;
      flushes.push_back(std::move(send_flush));
    }
  }
  rec->pages = std::move(kept);

  if (!flushes.empty() || !cop_work.empty()) {
    actions->post = [this, flushes = std::move(flushes), cop_work = std::move(cop_work),
                     cause = interval_close_span()] {
      // Non-overlapped: diffs were computed on the compute processor (cost
      // already charged); send them now, one message per diff (paper §4.6).
      for (const auto& send : flushes) {
        send();
      }
      // Overlapped: the co-processor computes each diff and sends it to the
      // home when done; the compute processor continues immediately.
      for (const auto& [cost, send] : cop_work) {
        const SimTime t0 = engine()->Now();
        env().cop->RunService(cost, BusyCat::kDiffCreate, [this, t0, cause, send] {
          SpanEmit(SpanKind::kDiffCreate, t0, cause);
          send();
        });
      }
    };
  }
}

// ---------------------------------------------------------------------------
// Write notices.

ProtocolNode::NoticeWalk HlrcProtocol::OnIntervalNotices(const IntervalPtr& rec) {
  // Pages mapped or homed here are visited one by one. Every other notice
  // in a run of at least kMinDeferredRun consecutive such pages goes to the
  // writer's run summary, a run at a time, until a fault resolves the
  // page's required stamps. Shorter runs are stamped page by page like the
  // mapped ones: a summary of one- to three-page runs (Water-Nsquared's
  // intervals) costs more to update and search than the stamps it saves.
  const bool migrate = env().options->migrate_homes;
  NoticeWalk walk;
  PageId home_last = -1;
  NodeId run_home = kInvalidNode;
  PageId deferred_first = -1;
  PageId deferred_last = -2;
  auto flush_deferred = [&] {
    if (deferred_first < 0) {
      return;
    }
    if (deferred_last - deferred_first + 1 >= HlrcPageTable::kMinDeferredRun) {
      meta_.DeferNotices(rec->writer, rec->id, deferred_first, deferred_last);
      return;
    }
    for (PageId page = deferred_first; page <= deferred_last; ++page) {
      ++walk.eager;
      meta_.UpdateRequired(page, rec->writer, rec->id);
      CoverNotice(PageProt::kNone, PageProt::kNone);
    }
  };
  for (PageId page : rec->pages) {
    if (page > home_last) {
      run_home = HomeRun(page, &home_last);
    }
    NodeId home = run_home;
    if (migrate) {
      const NodeId moved = meta_.HomeOverride(page);
      home = moved == kInvalidNode ? home : moved;
    }
    PageState& st = pages().State(page);
    const PageProt before = st.prot();
    if (home != self() && before == PageProt::kNone) {
      if (page != deferred_last + 1) {
        flush_deferred();
        deferred_first = page;
      }
      deferred_last = page;
      continue;
    }
    ++walk.eager;
    meta_.UpdateRequired(page, rec->writer, rec->id);
    // At the home, a notice whose diff has already been applied changes
    // nothing -- this is why home accesses take no page faults. Only an
    // in-flight diff forces a temporary invalidation.
    if (home != self() || !meta_.RequiredApplied(page)) {
      st.set_prot(PageProt::kNone);
    }
    walk.invalidated += before != st.prot() ? 1 : 0;
    CoverNotice(before, st.prot());
  }
  flush_deferred();
  return walk;
}

// ---------------------------------------------------------------------------
// Fault resolution: one round trip to the home (paper §2.3).

Task<void> HlrcProtocol::ResolveFault(PageId page, bool write) {
  // Every co_await below is a point where a write notice can invalidate this
  // page (e.g. the barrier manager applies other nodes' notices whenever an
  // enter message arrives, even mid-computation, and cost charges stretch
  // under interrupt load). The outer loop therefore re-checks the protection
  // after every suspension and restarts resolution if the page went invalid -
  // the software equivalent of the store re-faulting on real hardware.
  while (true) {
  const NodeId home = BelievedHomeOf(page);
  if (pages().State(page).prot() == PageProt::kNone) {
    if (home == self()) {
      // Wait for in-flight diffs to land on the master copy; purely local.
      // Loop: new write notices may extend the requirement while waiting.
      while (!meta_.RequiredApplied(page)) {
        HLRC_CHECK(meta_.at(page).fault == nullptr);
        FaultWait& fw = *(meta_.at(page).fault = std::make_unique<FaultWait>());
        fw.done = std::make_unique<Completion>(engine());
        co_await *fw.done;
        meta_.at(page).fault.reset();
      }
    } else {
      // Fetch from the home. If a new write notice for this page arrives
      // while the request is in flight (e.g. the barrier manager applying
      // another node's notices mid-computation), the reply predates the
      // newly-announced diff: fetch again.
      while (true) {
        meta_.Resolve(page);
        const uint64_t epoch = meta_.RequiredEpoch(page);
        ++stats_.page_fetches;
        MetricFetch(page, pages().page_size());
        Trace(TraceEvent::kPageFetch, page, home);
        HLRC_TRACE("[%lld] node %d: fetch page=%d from home %d", (long long)engine()->Now(),
                   self(), page, home);
        HLRC_CHECK(meta_.at(page).fault == nullptr);
        FaultWait& fw = *(meta_.at(page).fault = std::make_unique<FaultWait>());
        fw.done = std::make_unique<Completion>(engine());
        {
          // Chain the request from the fault root (scoped: the context must
          // not survive across the suspension below).
          SpanCause sc(this, cur_fault_span_);
          SendPageRequest(home, page, self(), meta_.get(page).required);
        }

        co_await *fw.done;
        const bool transfer_satisfied = fw.already_installed;
        if (!transfer_satisfied) {
          InstallPageData(page, *fw.data);
        }
        meta_.at(page).fault.reset();  // Frees `fw`.
        meta_.Resolve(page);  // Notices that arrived during the fetch.
        if (transfer_satisfied || meta_.RequiredEpoch(page) == epoch) {
          // A home transfer made this node the page's home: its copy IS the
          // master now; no re-fetch regardless of epoch churn.
          break;
        }
      }
    }
    pages().State(page).set_prot(PageProt::kRead);
    co_await ChargeCpu(costs().page_protect, BusyCat::kFault);
    continue;  // Re-check: the charge may have crossed an invalidation.
  }
  if (!write) {
    co_return;
  }
  if (BelievedHomeOf(page) != self() && !pages().HasTwin(page)) {
    co_await ChargeCpu(WriteCaptureCost(), BusyCat::kTwin);
    if (pages().State(page).prot() == PageProt::kNone) {
      continue;  // Invalidated during the twin charge: the data is stale.
    }
    pages().MakeTwin(page);
  }
  pages().State(page).set_prot(PageProt::kReadWrite);
  co_await ChargeCpu(costs().page_protect, BusyCat::kFault);
  if (pages().State(page).prot() == PageProt::kNone) {
    continue;  // Invalidated during the protect charge.
  }
  MarkDirty(page);
  co_return;
  }
}

// ---------------------------------------------------------------------------
// Home-side servicing.

void HlrcProtocol::HandleDiffFlush(NodeId writer, PageId page, uint32_t interval,
                                   const Diff& diff) {
  if (!IsHomeHere(page)) {
    // The page's home migrated away: forward along the (fixed) chain. FIFO
    // per network pair keeps each writer's diffs ordered end to end.
    auto payload = std::make_unique<DiffFlushPayload>();
    payload->writer = writer;
    payload->page = page;
    payload->interval = interval;
    payload->diff = diff;
    Send(BelievedHomeOf(page), MsgType::kDiffFlush, diff.EncodedSize(), 16,
         std::move(payload));
    return;
  }
  Trace(TraceEvent::kDiffApply, page, diff.DataBytes());
  HLRC_TRACE("[%lld] home %d: apply flush page=%d writer=%d id=%u bytes=%lld",
             (long long)engine()->Now(), self(), page, writer, interval,
             (long long)diff.DataBytes());
  if (env().options->mutation == TestMutation::kHlrcSkipDiffApply && !mutation_fired_ &&
      writer != self()) {
    // Seeded bug (TestMutation): lose this diff's data but keep all the
    // bookkeeping below, so the home serves a stale master copy without ever
    // blocking a fetch. The consistency oracle must catch the stale reads.
    mutation_fired_ = true;
  } else {
    ApplyDiff(diff, pages().PageData(page), pages().page_size());
  }
  ++stats_.diffs_applied;
  MetricDiffApplied(page, diff.DataBytes());
  meta_.SetApplied(page, writer, interval);
  WakeLocalFaultIfReady(page);
  ServePendingRequests(page);
  MaybeMigrateHome(page, writer);
}

void HlrcProtocol::MaybeMigrateHome(PageId page, NodeId writer) {
  if (!env().options->migrate_homes || writer == self()) {
    return;
  }
  if (meta_.get(page).fault != nullptr) {
    // A local access is waiting for this page's in-flight diffs; migrating
    // now would forward those diffs to the new home and strand the waiter.
    return;
  }
  if (IsDirtyInOpenInterval(page)) {
    // Our own open interval is writing the master in place (home effect);
    // handing the page away now would orphan those uncommitted writes.
    return;
  }
  if (!meta_.CountStreak(page, writer, env().options->migrate_threshold)) {
    return;
  }
  // A stable remote single writer: hand it the home so its future writes hit
  // the home effect (no twins, no diffs, no flushes).
  auto payload = std::make_unique<HomeTransferPayload>();
  payload->page = page;
  payload->old_home = self();
  payload->data.assign(pages().PageData(page), pages().PageData(page) + pages().page_size());
  payload->applied = meta_.TakeApplied(page);
  meta_.SetHomeOverride(page, writer);
  // Any parked requests chase the new home.
  for (PendingReq& req : meta_.TakeParked(page, /*all=*/true)) {
    SendPageRequest(writer, page, req.requester, std::move(req.required));
  }
  const int64_t transfer_bytes = 16 + 4 * static_cast<int64_t>(payload->applied.size());
  Send(writer, MsgType::kHomeTransfer, pages().page_size(), transfer_bytes,
       std::move(payload));
}

void HlrcProtocol::HandleHomeTransfer(PageId page, const std::vector<std::byte>& data,
                                      const std::vector<uint32_t>& applied) {
  // Become the page's home: adopt the master copy (rebasing any local open
  // writes) and the applied-flush state. A home takes every notice of its
  // pages eagerly, so its required stamps must be complete from here on.
  meta_.Resolve(page);
  InstallPageData(page, data);
  pages().DropTwin(page);  // The master needs no twin at its home.
  meta_.AdoptApplied(page, applied);
  meta_.SetApplied(page, self(), vt().Get(self()));
  meta_.SetHomeOverride(page, self());
  if (pages().State(page).prot() == PageProt::kNone) {
    pages().State(page).set_prot(PageProt::kRead);
  }
  // A fetch of this very page may be in flight (we asked the old home just
  // before becoming the home): the transferred master satisfies it. The
  // now-redundant forwarded reply is dropped on arrival.
  FaultWait* fw = meta_.at(page).fault.get();
  if (fw != nullptr && !fw->done->IsDone()) {
    fw->already_installed = true;  // InstallPageData above covered it.
    fw->done->Complete();
  }
  ServePendingRequests(page);
}

void HlrcProtocol::WakeLocalFaultIfReady(PageId page) {
  const FaultWait* fw = meta_.get(page).fault.get();
  if (fw != nullptr && meta_.RequiredApplied(page)) {
    fw->done->Complete();
  }
}

void HlrcProtocol::HandlePageRequest(PageId page, NodeId requester, Required required) {
  if (!IsHomeHere(page)) {
    SendPageRequest(BelievedHomeOf(page), page, requester, std::move(required));
    return;
  }
  if (meta_.AppliedSatisfies(page, required)) {
    SendPageReply(page, requester);
    return;
  }
  // Some diffs are still in flight: park the request until they land
  // (paper §2.4.2).
  HLRC_TRACE("[%lld] home %d: park request page=%d from node %d", (long long)engine()->Now(),
             self(), page, requester);
  meta_.Park(page, PendingReq{requester, std::move(required), active_span_, engine()->Now()});
}

void HlrcProtocol::SendPageRequest(NodeId to, PageId page, NodeId requester,
                                   Required required) {
  auto payload = std::make_unique<HomePageRequestPayload>();
  payload->page = page;
  payload->requester = requester;
  payload->required = std::move(required);
  const int64_t bytes = 16 + 8 * static_cast<int64_t>(payload->required.size());
  Send(to, MsgType::kPageRequest, 0, bytes, std::move(payload));
}

PageSnapshot HlrcProtocol::SnapshotPage(PageId page) {
  const std::byte* src = pages().PageData(page);
  return std::make_shared<const std::vector<std::byte>>(src, src + pages().page_size());
}

void HlrcProtocol::SendPageReply(PageId page, NodeId requester, PageSnapshot snapshot) {
  Trace(TraceEvent::kPageServe, page, requester);
  HLRC_TRACE("[%lld] home %d: page reply page=%d -> node %d", (long long)engine()->Now(),
             self(), page, requester);
  auto payload = std::make_unique<HomePageReplyPayload>();
  payload->page = page;
  payload->home = self();
  payload->data = snapshot != nullptr ? std::move(snapshot) : SnapshotPage(page);
  Send(requester, MsgType::kPageReply, pages().page_size(), 16, std::move(payload));
}

void HlrcProtocol::ServePendingRequests(PageId page) {
  // Request combining (--coalesce): every parked request this pass satisfies
  // is answered from one shared immutable snapshot — the master copy cannot
  // change between replies (we are inside one service handler), so copying it
  // per requester is pure overhead. Off: one private copy per reply, matching
  // the golden runs byte for byte.
  const bool combine = env().options->coalesce;
  PageSnapshot snapshot;
  int64_t shared_replies = 0;
  for (const PendingReq& req : meta_.TakeParked(page, /*all=*/false)) {
    // The stretch this request sat parked waiting for in-flight diffs:
    // charged to the home, chained from the parked request so it lands on
    // the requester's fault critical path.
    const SpanId hw = SpanEmit(SpanKind::kHomeWait, req.parked_at, req.span, page,
                               req.requester);
    SpanCause sc(this, hw);
    if (combine) {
      if (snapshot == nullptr) {
        snapshot = SnapshotPage(page);
      }
      ++shared_replies;
      SendPageReply(page, req.requester, snapshot);
    } else {
      SendPageReply(page, req.requester);
    }
  }
  if (shared_replies >= 2) {
    stats_.page_replies_combined += shared_replies;
  }
}

void HlrcProtocol::HandleProtocolMessage(Message msg) {
  const SpanId cause = msg.span;
  const SimTime t_arrive = engine()->Now();
  switch (msg.type) {
    case MsgType::kDiffFlush: {
      auto* p = static_cast<DiffFlushPayload*>(msg.payload.get());
      const SimTime cost = costs().DiffApplyCost(p->diff.DataBytes());
      // Applying the diff at the home: co-processor under OHLRC, interrupt +
      // compute processor under HLRC.
      ServeDataRequest(cost, BusyCat::kDiffApply,
                       [this, cause, t_arrive, writer = p->writer, page = p->page,
                        interval = p->interval, diff = std::move(p->diff)] {
                         SpanCause sc(this,
                                      SpanEmit(SpanKind::kDiffApply, t_arrive, cause, page));
                         HandleDiffFlush(writer, page, interval, diff);
                       });
      return;
    }
    case MsgType::kPageRequest: {
      auto* p = static_cast<HomePageRequestPayload*>(msg.payload.get());
      ServeDataRequest(costs().service_fixed, BusyCat::kService,
                       [this, cause, t_arrive, page = p->page, requester = p->requester,
                        required = std::move(p->required)]() mutable {
                         SpanCause sc(this,
                                      SpanEmit(SpanKind::kService, t_arrive, cause, page));
                         HandlePageRequest(page, requester, std::move(required));
                       });
      return;
    }
    case MsgType::kPageReply: {
      auto* p = static_cast<HomePageReplyPayload*>(msg.payload.get());
      Serve(/*on_coproc=*/false, /*interrupt=*/false, 0, BusyCat::kService,
            [this, cause, t_arrive, page = p->page, home = p->home,
             data = std::move(p->data)]() mutable {
              SpanCause sc(this, SpanEmit(SpanKind::kService, t_arrive, cause, page));
              if (home != self() &&
                  (home != HomeOf(page) || meta_.HomeOverride(page) != kInvalidNode)) {
                meta_.SetHomeOverride(page, home);  // Path shortening after migration.
              }
              FaultWait* fw = meta_.at(page).fault.get();
              if (fw == nullptr || fw->done->IsDone()) {
                // The fetch was already satisfied by a home transfer (this is
                // the forwarded reply catching up) — drop it.
                return;
              }
              fw->data = std::move(data);
              fw->done->Complete();
            });
      return;
    }
    case MsgType::kHomeTransfer: {
      auto* p = static_cast<HomeTransferPayload*>(msg.payload.get());
      ServeDataRequest(costs().service_fixed, BusyCat::kService,
                       [this, cause, t_arrive, page = p->page, data = std::move(p->data),
                        applied = std::move(p->applied)] {
                         SpanCause sc(this,
                                      SpanEmit(SpanKind::kService, t_arrive, cause, page));
                         HandleHomeTransfer(page, data, applied);
                       });
      return;
    }
    default:
      HLRC_CHECK_MSG(false, "HLRC node %d: unexpected message type %d", self(),
                     static_cast<int>(msg.type));
  }
}

}  // namespace hlrc
