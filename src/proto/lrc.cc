#include "src/proto/lrc.h"

#include <algorithm>

#include "src/common/log.h"
#include <utility>

namespace hlrc {

// ---------------------------------------------------------------------------
// Interval close: create diffs eagerly (paper §3: the implementation computes
// diffs at the end of each interval, on the compute processor for LRC and on
// the co-processor for OLRC).

void LrcProtocol::OnIntervalClosed(const std::shared_ptr<IntervalRecord>& rec,
                                   CloseActions* actions) {
  PageList kept;
  std::vector<std::pair<PageId, SimTime>> cop_work;
  for (PageId p : rec->pages) {
    HLRC_CHECK(pages().HasTwin(p));
    Diff d = CreateDiff(p, pages().Twin(p), pages().PageData(p),
                        pages().page_size(), env().options->diff_word_bytes);
    pages().DropTwin(p);
    if (d.Empty()) {
      continue;  // The write changed nothing: no write notice needed.
    }
    kept.push_back(p);
    Trace(TraceEvent::kDiffCreate, p, d.DataBytes());
    const SimTime create_cost = costs().DiffCreateCost(pages().page_size(), d.DataBytes());
    // With the lazy policy the diff work is deferred to the first request
    // (paper §2.1: diffs are created "eagerly, at the end of each interval,
    // or lazily, on demand"). Overlapped diffing is inherently asynchronous
    // already, so laziness applies to the compute-processor path only.
    const bool lazy = env().options->diff_policy == DiffPolicy::kLazy && !overlapped();
    ++stats_.diffs_created;
    MetricDiffCreated(p, d.DataBytes());
    meta_.SetCovered(p, self(), rec->id);

    const int64_t bytes = d.EncodedSize();
    // `rec` is sealed and published before anyone reads it from the store.
    meta_.AddDiff(p, StoredDiff{rec, std::move(d), !overlapped(), !lazy, create_cost, bytes, {}});

    if (overlapped()) {
      cop_work.emplace_back(p, create_cost);
    } else if (!lazy) {
      actions->diff_cost += create_cost;
    }
  }
  rec->pages = std::move(kept);
  if (!cop_work.empty()) {
    actions->post = [this, id = rec->id, cop_work = std::move(cop_work)] {
      for (const auto& [page, cost] : cop_work) {
        env().cop->RunService(cost, BusyCat::kDiffCreate,
                              [this, page, id] { MarkDiffReady(page, id); });
      }
    };
  }
  NoteMemory();
}

void LrcProtocol::MarkDiffReady(PageId page, uint32_t id) {
  StoredDiff* sd = meta_.FindDiff(page, id);
  if (sd == nullptr) {
    // A barrier-time garbage collection discarded the diff while its (purely
    // time-model) co-processor computation was still queued. No request can
    // arrive for it anymore: all pending write notices were collected too.
    return;
  }
  sd->ready = true;
  std::vector<std::function<void()>> waiters = std::move(sd->waiters);
  for (auto& w : waiters) {
    w();
  }
}

// ---------------------------------------------------------------------------
// Write notices.

bool LrcProtocol::OnWriteNotice(const IntervalPtr& rec, PageId page) {
  PageState& st = pages().State(page);
  if (env().options->mutation == TestMutation::kLrcSkipInvalidate && !mutation_fired_ &&
      st.prot() != PageProt::kNone) {
    // Seeded bug (TestMutation): drop the first invalidating write notice
    // entirely — the node keeps reading its stale mapped copy and never
    // fetches this interval's diff. The consistency oracle must catch it.
    mutation_fired_ = true;
    return false;
  }
  meta_.AddNotice(page, rec);
  const bool was_mapped = st.prot() != PageProt::kNone;
  st.set_prot(PageProt::kNone);
  return was_mapped;
}

// ---------------------------------------------------------------------------
// Fault resolution.

Task<void> LrcProtocol::ResolveFault(PageId page, bool write) {
  // As in the home-based protocol, every co_await can be crossed by a write
  // notice (barrier-manager interval application, charges stretched by
  // interrupts), so resolution restarts whenever the page is invalidated
  // mid-flight - the software equivalent of the store re-faulting.
  while (true) {
    if (!pages().State(page).has_copy()) {
      co_await FetchFullPage(page);
      continue;
    }
    if (meta_.HasPending(page)) {
      co_await FetchDiffs(page);
      continue;
    }
    PageState& st = pages().State(page);
    if (st.prot() == PageProt::kNone) {
      st.set_prot(PageProt::kRead);
      co_await ChargeCpu(costs().page_protect, BusyCat::kFault);
      continue;  // Re-check: the charge may have crossed an invalidation.
    }
    if (!write) {
      co_return;
    }
    if (!pages().HasTwin(page)) {
      co_await ChargeCpu(costs().TwinCost(pages().page_size()), BusyCat::kTwin);
      if (pages().State(page).prot() == PageProt::kNone || meta_.HasPending(page)) {
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

Task<void> LrcProtocol::FetchDiffs(PageId page) {
  // Group the page's pending write notices by writer, ascending; one request
  // per writer (paper §2.1: "the acquiring processor may have to visit more
  // than one processor to obtain diffs").
  std::vector<std::pair<NodeId, uint32_t>> wanted;
  for (const IntervalPtr& wn : meta_.at(page).pending) {
    wanted.emplace_back(wn->writer, wn->id);
  }
  std::stable_sort(wanted.begin(), wanted.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  HLRC_CHECK(!wanted.empty());

  HLRC_CHECK(meta_.cold_at(page).fault == nullptr);
  LrcFaultCtx& ctx = *(meta_.cold_at(page).fault = std::make_unique<LrcFaultCtx>());
  ctx.done = std::make_unique<Completion>(engine());
  {
    // Chain the requests from the fault root (kNoSpan under GC validation).
    // Scoped: the context must not survive across the suspension below.
    SpanCause sc(this, cur_fault_span_);
    for (auto it = wanted.begin(); it != wanted.end();) {
      const NodeId writer = it->first;
      HLRC_CHECK(writer != self());
      auto payload = std::make_unique<DiffRequestPayload>();
      payload->page = page;
      payload->requester = self();
      for (; it != wanted.end() && it->first == writer; ++it) {
        payload->intervals.push_back(it->second);
      }
      const int64_t bytes = 16 + 4 * static_cast<int64_t>(payload->intervals.size());
      ++ctx.replies_needed;
      ++stats_.diff_requests_sent;
      Send(writer, MsgType::kDiffRequest, 0, bytes, std::move(payload));
    }
  }

  co_await *ctx.done;

  auto collected = std::move(meta_.cold_at(page).fault->collected);
  meta_.cold_at(page).fault.reset();

  // Apply in happens-before order; concurrent diffs (false sharing) touch
  // disjoint words and get a deterministic tiebreak.
  std::sort(collected.begin(), collected.end(), [](const auto& a, const auto& b) {
    return a.first->vt.TotalOrderLess(b.first->vt);
  });

  for (auto& [rec, diff] : collected) {
    const SimTime t_apply = engine()->Now();
    co_await ChargeCpu(costs().DiffApplyCost(diff.DataBytes()), BusyCat::kDiffApply);
    SpanEmit(SpanKind::kDiffApply, t_apply, cur_fault_span_, page, rec->writer);
    HLRC_TRACE("[%lld] node %d: apply diff page=%d writer=%d id=%u bytes=%lld",
               (long long)engine()->Now(), self(), page, rec->writer, rec->id,
               (long long)diff.DataBytes());
    Trace(TraceEvent::kDiffApply, page, diff.DataBytes());
    ApplyDiff(diff, pages().PageData(page), pages().page_size());
    if (pages().HasTwin(page)) {
      // Keep the twin in sync so the next local diff contains only local
      // writes (multiple-writer correctness).
      ApplyDiff(diff, pages().Twin(page), pages().page_size());
    }
    ++stats_.diffs_applied;
    MetricDiffApplied(page, diff.DataBytes());
    meta_.SetCovered(page, rec->writer, rec->id);
  }
  meta_.PrunePendingCovered(page);
}

Task<void> LrcProtocol::FetchFullPage(PageId page) {
  const NodeId hint = meta_.OwnerHint(page);
  const NodeId target = hint != kInvalidNode ? hint : 0;
  HLRC_CHECK(target != self());
  ++stats_.page_fetches;
  MetricFetch(page, pages().page_size());
  Trace(TraceEvent::kPageFetch, page, target);

  HLRC_CHECK(meta_.cold_at(page).fault == nullptr);
  LrcFaultCtx& ctx = *(meta_.cold_at(page).fault = std::make_unique<LrcFaultCtx>());
  ctx.replies_needed = 1;
  ctx.done = std::make_unique<Completion>(engine());

  auto payload = std::make_unique<HomelessPageRequestPayload>();
  payload->page = page;
  payload->requester = self();
  {
    SpanCause sc(this, cur_fault_span_);
    Send(target, MsgType::kPageRequest, 0, 16, std::move(payload));
  }

  co_await *ctx.done;

  const std::unique_ptr<LrcFaultCtx> done_ctx = std::move(meta_.cold_at(page).fault);
  InstallPageData(page, done_ctx->page_data);
  for (const auto& [writer, id] : done_ctx->page_covered) {
    meta_.SetCovered(page, writer, id);
  }
  pages().State(page).set_has_copy(true);
  meta_.PrunePendingCovered(page);
}

// ---------------------------------------------------------------------------
// Remote request servicing.

void LrcProtocol::TrySendDiffReply(PageId page, NodeId requester,
                                   const std::vector<uint32_t>& ids) {
  for (uint32_t id : ids) {
    StoredDiff* sd = meta_.FindDiff(page, id);
    HLRC_CHECK_MSG(sd != nullptr, "node %d: no diff for page %d interval %u", self(), page, id);
    if (!sd->ready) {
      // Diff computation still in progress on the co-processor: queue the
      // request until it completes (paper §2.4.1). The retry runs from the
      // co-processor's completion, so re-establish the requester's causal
      // context explicitly.
      sd->waiters.push_back(
          [this, page, requester, ids, cause = active_span_] {
            SpanCause sc(this, cause);
            TrySendDiffReply(page, requester, ids);
          });
      return;
    }
  }
  // Lazy policy: diffs whose creation cost has not been charged yet are
  // computed now, on the serving processor, before the reply goes out.
  SimTime deferred_cost = 0;
  auto payload = std::make_unique<DiffReplyPayload>();
  payload->page = page;
  payload->writer = self();
  int64_t update_bytes = 0;
  for (uint32_t id : ids) {
    StoredDiff& sd = *meta_.FindDiff(page, id);
    if (!sd.cost_charged) {
      sd.cost_charged = true;
      deferred_cost += sd.create_cost;
    }
    payload->diffs.emplace_back(id, sd.diff);
    update_bytes += sd.bytes;
  }
  auto send = [this, requester, update_bytes, payload = std::make_shared<
                   std::unique_ptr<DiffReplyPayload>>(std::move(payload))]() mutable {
    Send(requester, MsgType::kDiffReply, update_bytes, 16, std::move(*payload));
  };
  if (deferred_cost > 0) {
    // The lazy diff creation sits on the requester's critical path: record it
    // and chain the reply from it.
    const SimTime t0 = engine()->Now();
    env().cpu->RunService(deferred_cost, BusyCat::kDiffCreate,
                          [this, t0, page, cause = active_span_,
                           send = std::move(send)]() mutable {
                            SpanCause sc(this,
                                         SpanEmit(SpanKind::kDiffCreate, t0, cause, page));
                            send();
                          });
  } else {
    send();
  }
}

void LrcProtocol::ServePageRequest(PageId page, NodeId requester) {
  Trace(TraceEvent::kPageServe, page, requester);
  const PageState& st = pages().State(page);
  HLRC_CHECK_MSG(st.has_copy(), "node %d asked for page %d it does not hold", self(), page);
  auto payload = std::make_unique<HomelessPageReplyPayload>();
  payload->page = page;
  payload->data.assign(pages().PageData(page), pages().PageData(page) + pages().page_size());
  for (NodeId w = 0; w < nodes(); ++w) {
    if (const uint32_t id = meta_.Covered(page, w); id > 0) {
      payload->covered.emplace_back(w, id);
    }
  }
  const int64_t covered_bytes = 16 + 8 * static_cast<int64_t>(payload->covered.size());
  Send(requester, MsgType::kPageReply, pages().page_size(), covered_bytes,
       std::move(payload));
}

void LrcProtocol::HandleProtocolMessage(Message msg) {
  const SpanId cause = msg.span;
  const SimTime t_arrive = engine()->Now();
  switch (msg.type) {
    case MsgType::kDiffRequest: {
      auto* p = static_cast<DiffRequestPayload*>(msg.payload.get());
      ServeDataRequest(costs().service_fixed, BusyCat::kService,
                       [this, cause, t_arrive, page = p->page, requester = p->requester,
                        ids = std::move(p->intervals)] {
                         SpanCause sc(this,
                                      SpanEmit(SpanKind::kService, t_arrive, cause, page));
                         TrySendDiffReply(page, requester, ids);
                       });
      return;
    }
    case MsgType::kDiffReply: {
      auto* p = static_cast<DiffReplyPayload*>(msg.payload.get());
      Serve(/*on_coproc=*/false, /*interrupt=*/false, 0, BusyCat::kService,
            [this, cause, t_arrive, page = p->page, writer = p->writer,
             diffs = std::move(p->diffs)]() mutable {
              SpanCause sc(this, SpanEmit(SpanKind::kService, t_arrive, cause, page));
              LrcFaultCtx* ctx = meta_.cold_at(page).fault.get();
              HLRC_CHECK(ctx != nullptr);
              for (auto& [id, diff] : diffs) {
                // The pending write notice names the interval (and its vt).
                ctx->collected.emplace_back(meta_.PendingNotice(page, writer, id),
                                            std::move(diff));
              }
              if (--ctx->replies_needed == 0) {
                ctx->done->Complete();
              }
            });
      return;
    }
    case MsgType::kPageRequest: {
      auto* p = static_cast<HomelessPageRequestPayload*>(msg.payload.get());
      ServeDataRequest(costs().service_fixed, BusyCat::kService,
                       [this, cause, t_arrive, page = p->page, requester = p->requester] {
                         SpanCause sc(this,
                                      SpanEmit(SpanKind::kService, t_arrive, cause, page));
                         ServePageRequest(page, requester);
                       });
      return;
    }
    case MsgType::kPageReply: {
      auto* p = static_cast<HomelessPageReplyPayload*>(msg.payload.get());
      Serve(/*on_coproc=*/false, /*interrupt=*/false, costs().page_protect, BusyCat::kFault,
            [this, cause, t_arrive, page = p->page, data = std::move(p->data),
             covered = std::move(p->covered)]() mutable {
              SpanCause sc(this, SpanEmit(SpanKind::kService, t_arrive, cause, page));
              LrcFaultCtx* ctx = meta_.cold_at(page).fault.get();
              HLRC_CHECK(ctx != nullptr);
              ctx->page_data = std::move(data);
              ctx->page_covered = std::move(covered);
              if (--ctx->replies_needed == 0) {
                ctx->done->Complete();
              }
            });
      return;
    }
    case MsgType::kGcRequest: {
      Serve(/*on_coproc=*/false, /*interrupt=*/true,
            costs().gc_fixed + costs().gc_per_page * static_cast<SimTime>(meta_.diff_count()),
            BusyCat::kGc, [this, cause, t_arrive] {
              SpanCause sc(this, SpanEmit(SpanKind::kService, t_arrive, cause));
              HandleGcRequest();
            });
      return;
    }
    case MsgType::kGcInfo: {
      auto* p = static_cast<GcInfoPayload*>(msg.payload.get());
      // Charged 0. The charge was written as gc_per_page * p->entries.size()
      // beside the lambda argument that moves p->entries out; GCC builds that
      // argument first, so it always read 0 by accident. The 0 is stated so
      // the result no longer depends on argument evaluation order, and kept
      // only so simulated times match the goldens byte for byte. The intended
      // charge is open (CHANGES.md, the FOUND line on kGcInfo).
      Serve(/*on_coproc=*/false, /*interrupt=*/false, /*cost=*/0, BusyCat::kGc,
            [this, cause, t_arrive, node = p->node, entries = std::move(p->entries)]() mutable {
              SpanCause sc(this, SpanEmit(SpanKind::kService, t_arrive, cause));
              HandleGcInfo(node, std::move(entries));
            });
      return;
    }
    case MsgType::kGcValidate: {
      auto* p = static_cast<GcValidatePayload*>(msg.payload.get());
      // Charged 0 for the same accident as kGcInfo: the charge was written as
      // gc_per_page * p->validators.size(), read after the lambda argument
      // had moved p->validators out, so it was 0. Kept at 0 only so simulated
      // times match the goldens byte for byte; not a cost-model decision.
      Serve(/*on_coproc=*/false, /*interrupt=*/true, /*cost=*/0, BusyCat::kGc,
            [this, cause, t_arrive, validators = std::move(p->validators),
             intervals = std::move(p->intervals)] {
              SpanCause sc(this, SpanEmit(SpanKind::kService, t_arrive, cause));
              ApplyGcValidate(validators, intervals);
            });
      return;
    }
    case MsgType::kGcDone: {
      Serve(/*on_coproc=*/false, /*interrupt=*/false, costs().gc_fixed, BusyCat::kGc,
            [this, cause, t_arrive] {
              SpanCause sc(this, SpanEmit(SpanKind::kService, t_arrive, cause));
              HandleGcDone();
            });
      return;
    }
    default:
      HLRC_CHECK_MSG(false, "LRC node %d: unexpected message type %d", self(),
                     static_cast<int>(msg.type));
  }
}

// ---------------------------------------------------------------------------
// Garbage collection (paper §3.5). Orchestrated by the barrier manager while
// all nodes sit inside the barrier: collect diff inventories, let the last
// writer of each page validate its copy by fetching the missing diffs, then
// discard all diffs and write notices on release.

Task<void> LrcProtocol::BarrierPreRelease(BarrierId barrier, bool mem_pressure) {
  if (!mem_pressure) {
    co_return;
  }
  HLRC_CHECK(gc_coord_ == nullptr);
  gc_coord_ = std::make_unique<GcCoord>();
  gc_coord_->infos_pending = nodes();
  gc_coord_->dones_pending = nodes();
  gc_coord_->infos_done = std::make_unique<Completion>(engine());
  gc_coord_->dones_done = std::make_unique<Completion>(engine());

  {
    // GC happens while every node sits inside the barrier: chain it from the
    // manager's gather span so the cost lands on the barrier critical path.
    SpanCause sc(this, BarrierGatherSpan(barrier));
    for (NodeId n = 0; n < nodes(); ++n) {
      if (n == self()) {
        HandleGcRequest();
      } else {
        Send(n, MsgType::kGcRequest, 0, 8, std::make_unique<GcRequestPayload>());
      }
    }
  }
  co_await *gc_coord_->infos_done;

  // Assign validators: the last writer (maximal interval vt) of each page.
  auto assigned = std::make_shared<std::vector<std::pair<PageId, NodeId>>>();
  for (size_t page = 0; page < gc_coord_->best.size(); ++page) {
    if (const IntervalPtr& rec = gc_coord_->best[page]; rec != nullptr) {
      assigned->emplace_back(static_cast<PageId>(page), rec->writer);
    }
  }
  const GcValidators validators = std::move(assigned);

  {
    SpanCause sc(this, BarrierGatherSpan(barrier));
    for (NodeId n = 0; n < nodes(); ++n) {
      IntervalBatch missing = PackBarrierReleaseFor(barrier, n);
      if (n == self()) {
        ApplyGcValidate(validators, missing);
      } else {
        const int64_t bytes =
            8 + 8 * static_cast<int64_t>(validators->size()) + BatchBytes(missing);
        auto payload = std::make_unique<GcValidatePayload>();
        payload->validators = validators;
        payload->intervals = std::move(missing);
        Send(n, MsgType::kGcValidate, 0, bytes, std::move(payload));
      }
    }
  }
  co_await *gc_coord_->dones_done;
  gc_coord_.reset();
}

void LrcProtocol::HandleGcRequest() {
  // Report, per page we hold diffs for, our latest interval that wrote it:
  // a walk of the pages-with-diffs list, not of the diff store.
  std::vector<std::pair<PageId, IntervalPtr>> entries = meta_.Inventory();

  const NodeId manager = 0;  // Barrier manager runs GC.
  if (self() == manager) {
    HandleGcInfo(self(), std::move(entries));
  } else {
    const int64_t bytes =
        8 + static_cast<int64_t>(entries.size()) * (12 + 4 * static_cast<int64_t>(nodes()));
    auto payload = std::make_unique<GcInfoPayload>();
    payload->node = self();
    payload->entries = std::move(entries);
    Send(manager, MsgType::kGcInfo, 0, bytes, std::move(payload));
  }
}

void LrcProtocol::HandleGcInfo(NodeId node,
                               std::vector<std::pair<PageId, IntervalPtr>> entries) {
  HLRC_CHECK(gc_coord_ != nullptr);
  std::vector<IntervalPtr>& best = gc_coord_->best;
  for (auto& [page, rec] : entries) {
    HLRC_CHECK(rec->writer == node);  // A node reports only its own diffs.
    if (static_cast<size_t>(page) >= best.size()) {
      best.resize(static_cast<size_t>(page) + 1);
    }
    IntervalPtr& slot = best[static_cast<size_t>(page)];
    if (slot == nullptr || slot->vt.TotalOrderLess(rec->vt)) {
      slot = std::move(rec);
    }
  }
  if (--gc_coord_->infos_pending == 0) {
    gc_coord_->infos_done->Complete();
  }
}

void LrcProtocol::ApplyGcValidate(GcValidators validators, const IntervalBatch& intervals) {
  HLRC_CHECK(gc_validators_ == nullptr);
  Trace(TraceEvent::kGcStart, static_cast<int64_t>(validators->size()));
  // Learn every pre-barrier interval now (the barrier release will re-send
  // them and dedup) so validation sees the complete pending sets.
  const SimTime wn_cost = ApplyIntervals(intervals);
  env().cpu->RunService(wn_cost, BusyCat::kWriteNotice, [] {});
  gc_validators_ = std::move(validators);
  std::vector<PageId> mine;
  for (const auto& [page, validator] : *gc_validators_) {
    if (validator == self() && meta_.HasPending(page)) {
      mine.push_back(page);
    }
  }
  SpawnDetached(ValidateForGc(std::move(mine)));
}

Task<void> LrcProtocol::ValidateForGc(std::vector<PageId> validate_pages) {
  WaitScope ws(this, WaitCat::kGc, WaitCat::kBarrier);
  for (PageId p : validate_pages) {
    co_await ChargeCpu(costs().gc_per_page, BusyCat::kGc);
    while (meta_.HasPending(p)) {
      co_await FetchDiffs(p);
    }
  }
  ws.Finish();

  const NodeId manager = 0;
  if (self() == manager) {
    HandleGcDone();
  } else {
    auto payload = std::make_unique<GcDonePayload>();
    payload->node = self();
    Send(manager, MsgType::kGcDone, 0, 8, std::move(payload));
  }
}

void LrcProtocol::HandleGcDone() {
  HLRC_CHECK(gc_coord_ != nullptr);
  if (--gc_coord_->dones_pending == 0) {
    gc_coord_->dones_done->Complete();
  }
}

void LrcProtocol::OnBarrierReleased() {
  const GcValidators validators = std::move(gc_validators_);
  if (validators == nullptr || validators->empty()) {
    return;
  }
  ++stats_.gc_runs;
  Trace(TraceEvent::kGcEnd, static_cast<int64_t>(validators->size()));
  const SimTime cost =
      costs().gc_fixed + costs().gc_per_page * static_cast<SimTime>(validators->size());

  for (const auto& [page, validator] : *validators) {
    meta_.SetOwnerHint(page, validator);
    if (validator != self() && meta_.HasPending(page)) {
      // Stale copy whose diffs are about to disappear: drop it; the next
      // access fetches the whole page from the validator.
      PageState& st = pages().State(page);
      st.set_has_copy(false);
      st.set_prot(PageProt::kNone);
      meta_.DropCopy(page);
    }
  }
  meta_.ClearDiffs();
  env().cpu->RunService(cost, BusyCat::kGc, [] {});
  NoteMemory();
}

}  // namespace hlrc
