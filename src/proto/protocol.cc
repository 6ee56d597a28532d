#include "src/proto/protocol.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/log.h"

namespace hlrc {

const char* ProtocolName(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kLrc:
      return "LRC";
    case ProtocolKind::kOlrc:
      return "OLRC";
    case ProtocolKind::kHlrc:
      return "HLRC";
    case ProtocolKind::kOhlrc:
      return "OHLRC";
    case ProtocolKind::kErc:
      return "ERC";
    case ProtocolKind::kAurc:
      return "AURC";
  }
  return "?";
}

ProtocolNode::ProtocolNode(const Env& env)
    : vt_(env.nodes),
      interval_log_(env.nodes),
      env_(env),
      sent_to_manager_vt_(env.nodes),
      dirty_flag_(static_cast<size_t>(env.pages->num_pages()), false) {}

ProtocolNode::~ProtocolNode() = default;

// ---------------------------------------------------------------------------
// Wait accounting.

ProtocolNode::WaitScope::WaitScope(ProtocolNode* n, WaitCat c, WaitCat d)
    : node(n), cat(c), deduct(d), t0(n->engine()->Now()), busy0(n->env_.cpu->busy().Total()) {}

void ProtocolNode::WaitScope::Finish() {
  const SimTime span = node->engine()->Now() - t0;
  const SimTime busy = node->env_.cpu->busy().Total() - busy0;
  const SimTime wait = span - busy;
  if (wait > 0) {
    node->stats_.waits.Add(cat, wait);
    if (deduct != WaitCat::kNone) {
      node->stats_.waits.Add(deduct, -wait);
    }
  }
  if (node->metrics_ != nullptr) {
    // The histogram takes the full wall-clock span of the scope: that is the
    // per-operation latency the application observed, the distribution the
    // scalar waits[] averages cannot show.
    if (Histogram* h = node->metrics_->ForWait(cat)) {
      h->Record(span);
    }
  }
}

// ---------------------------------------------------------------------------
// Shared services.

Task<void> ProtocolNode::ChargeCpu(SimTime cost, BusyCat cat) {
  if (cost > 0) {
    co_await env_.cpu->ExecuteApp(cost, cat);
  }
}

void ProtocolNode::Serve(bool on_coproc, bool interrupt, SimTime cost, BusyCat cat,
                         std::function<void()> fn) {
  Processor* proc = on_coproc ? env_.cop : env_.cpu;
  if (interrupt) {
    HLRC_DCHECK(!on_coproc);  // The co-processor polls; it takes no interrupts.
    proc->RunService(costs().receive_interrupt, BusyCat::kInterrupt,
                     [proc, cost, cat, fn = std::move(fn)]() mutable {
                       proc->RunService(cost, cat, std::move(fn));
                     });
    return;
  }
  proc->RunService(cost, cat, std::move(fn));
}

void ProtocolNode::ServeDataRequest(SimTime cost, BusyCat cat, std::function<void()> fn) {
  if (overlapped()) {
    Serve(/*on_coproc=*/true, /*interrupt=*/false, cost, cat, std::move(fn));
  } else {
    Serve(/*on_coproc=*/false, /*interrupt=*/true, cost, cat, std::move(fn));
  }
}

void ProtocolNode::Send(NodeId dst, MsgType type, int64_t update_bytes, int64_t protocol_bytes,
                        std::unique_ptr<Payload> payload) {
  Message msg;
  msg.src = env_.self;
  msg.dst = dst;
  msg.type = type;
  msg.update_bytes = update_bytes;
  msg.protocol_bytes = protocol_bytes;
  msg.span = active_span_;  // Causal parent for span tracing (observation only).
  msg.payload = std::move(payload);
  env_.network->Send(std::move(msg));
}

NodeId ProtocolNode::HomeOf(PageId page) const {
  PageId last;
  return HomeRun(page, &last);
}

NodeId ProtocolNode::HomeRun(PageId page, PageId* last) const {
  *last = page;
  switch (env_.options->home_policy) {
    case HomePolicy::kBlock: {
      // Contiguous chunks *per allocation*: the k-th band of every array is
      // homed on node k — the paper's "homes chosen intelligently", matching
      // the applications' block partitioning. Node h homes the allocation's
      // pages first + [ceil(h * span / N), ceil((h + 1) * span / N)).
      if (env_.space != nullptr) {
        if (const SharedSpace::Allocation* alloc = env_.space->AllocationOf(page)) {
          const int64_t span = alloc->last_page - alloc->first_page + 1;
          const NodeId home = static_cast<NodeId>(
              static_cast<int64_t>(page - alloc->first_page) * env_.nodes / span);
          const int64_t end = ((home + 1) * span + env_.nodes - 1) / env_.nodes;
          *last = static_cast<PageId>(
              std::min<int64_t>(alloc->first_page + end - 1, alloc->last_page));
          return home;
        }
      }
      const int num_pages =
          used_pages_ > 0 ? std::max(used_pages_, page + 1) : env_.pages->num_pages();
      return static_cast<NodeId>(static_cast<int64_t>(page) * env_.nodes / num_pages);
    }
    case HomePolicy::kRoundRobin:
      return static_cast<NodeId>(page % env_.nodes);
    case HomePolicy::kSingleNode:
      *last = env_.pages->num_pages() - 1;
      return 0;
  }
  return 0;
}

void ProtocolNode::NoteMemory() {
  if (known_interval_bytes_ > stats_.interval_meta_highwater) {
    stats_.interval_meta_highwater = known_interval_bytes_;
  }
  const int64_t mem = ProtocolMemoryBytes();
  if (mem > stats_.proto_mem_highwater) {
    stats_.proto_mem_highwater = mem;
  }
}

int64_t ProtocolNode::ProtocolMemoryBytes() const {
  return known_interval_bytes_ + env_.pages->TwinBytes() + SubclassMemoryBytes();
}

// ---------------------------------------------------------------------------
// Intervals and write notices.

void ProtocolNode::MarkDirty(PageId page) {
  if (!dirty_flag_[static_cast<size_t>(page)]) {
    dirty_flag_[static_cast<size_t>(page)] = true;
    open_dirty_.push_back(page);
    if (metrics_ != nullptr) {
      metrics_->heat->OnWrite(page, env_.self);
    }
  }
}

bool ProtocolNode::IsDirtyInOpenInterval(PageId page) const {
  return dirty_flag_[static_cast<size_t>(page)];
}

ProtocolNode::CloseActions ProtocolNode::CloseIntervalPrepared() {
  CloseActions actions;
  if (open_dirty_.empty()) {
    return actions;
  }

  auto rec = std::make_shared<IntervalRecord>();
  rec->writer = env_.self;
  rec->id = vt_.Get(env_.self) + 1;
  rec->vt = vt_;
  rec->vt.Set(env_.self, rec->id);
  std::sort(open_dirty_.begin(), open_dirty_.end());
  rec->pages.assign(open_dirty_.begin(), open_dirty_.end());
  open_dirty_.clear();

  for (PageId p : rec->pages) {
    PageState& st = env_.pages->State(p);
    dirty_flag_[static_cast<size_t>(p)] = false;
    if (st.prot() == PageProt::kReadWrite) {
      st.set_prot(PageProt::kRead);
      actions.protect_cost += costs().page_protect;
      Cover(CoverageObserver::Domain::kPageTransition,
            (static_cast<uint64_t>(PageProt::kReadWrite) << 8) |
                static_cast<uint64_t>(PageProt::kRead),
            2);  // Cause 2: interval-close reprotection.
    }
  }

  // The close span is the causal origin of the flush fan-out: subclasses
  // capture it (via interval_close_span()) into their deferred send lambdas.
  interval_close_span_ =
      SpanEmit(SpanKind::kIntervalClose, engine()->Now(), active_span_,
               static_cast<int64_t>(rec->id), static_cast<int64_t>(rec->pages.size()));

  OnIntervalClosed(rec, &actions);

  if (!rec->pages.empty()) {
    Cover(CoverageObserver::Domain::kInterval,
          CoverageBucket(rec->pages.size()), 0);
    Trace(TraceEvent::kIntervalClose, rec->id, static_cast<int64_t>(rec->pages.size()));
    HLRC_TRACE("[%lld] node %d: close interval id=%u with %zu pages (first=%d)",
               (long long)engine()->Now(), env_.self, rec->id, rec->pages.size(), rec->pages[0]);
    vt_.Bump(env_.self);
    HLRC_CHECK(vt_.Get(env_.self) == rec->id);
    ++stats_.intervals_closed;
    // Publish: seal the record and hand it to the log as a shared immutable
    // handle. From here on, every packed payload and every receiver's log
    // alias this one object; nobody may mutate it.
    rec->Seal();
    known_interval_bytes_ += IntervalBytes(*rec);
    interval_log_.Append(std::move(rec));
    NoteMemory();
  }
  return actions;
}

Task<void> ProtocolNode::CloseIntervalFromApp() {
  CloseActions actions = CloseIntervalPrepared();
  co_await ChargeCpu(actions.protect_cost, BusyCat::kFault);
  co_await ChargeCpu(actions.diff_cost, BusyCat::kDiffCreate);
  if (actions.post) {
    actions.post();
  }
  // Eager protocols: the synchronization operation may not proceed while any
  // update flush (from this close or an earlier one) is unacknowledged.
  Completion flushed(env_.engine);
  FlushBarrier([&flushed] { flushed.Complete(); });
  co_await flushed;
}

SimTime ProtocolNode::ApplyIntervals(const IntervalBatch& recs) {
  SimTime cost = 0;
  int64_t invalidated = 0;
  for (const IntervalPtr& handle : recs) {
    const IntervalRecord& rec = *handle;
    if (rec.id <= vt_.Get(rec.writer)) {
      HLRC_TRACE("[%lld] node %d: skip interval (w=%d id=%u) vt=%u",
                 (long long)engine()->Now(), env_.self, rec.writer, rec.id,
                 vt_.Get(rec.writer));
      continue;  // Already known.
    }
    vt_.Set(rec.writer, std::max(vt_.Get(rec.writer), rec.id));
    HLRC_TRACE("[%lld] node %d: apply interval (w=%d id=%u) %zu pages", (long long)engine()->Now(),
               env_.self, rec.writer, rec.id, rec.pages.size());
    const int64_t notices = static_cast<int64_t>(rec.pages.size());
    stats_.write_notices_received += notices;
    cost += costs().wn_apply * static_cast<SimTime>(notices);
    const NoticeWalk walk = OnIntervalNotices(handle);
    invalidated += walk.invalidated;
    if (walk.eager < notices) {
      CoverNotice(PageProt::kNone, PageProt::kNone, notices - walk.eager);
    }
    known_interval_bytes_ += IntervalBytes(rec);
    interval_log_.Append(handle);  // Shared handle: no record copy.
  }
  cost += invalidated * costs().page_invalidate;
  stats_.pages_invalidated += invalidated;
  NoteMemory();
  return cost;
}

IntervalBatch ProtocolNode::PackIntervalsFor(const VectorClock& vt) const {
  return interval_log_.PackFor(vt);
}

void ProtocolNode::InstallPageData(PageId page, const std::vector<std::byte>& data) {
  HLRC_CHECK(static_cast<int64_t>(data.size()) == pages().page_size());
  std::byte* dst = pages().PageData(page);
  if (pages().HasTwin(page)) {
    Diff local = CreateDiff(page, pages().Twin(page), dst, pages().page_size(),
                            env().options->diff_word_bytes);
    std::memcpy(dst, data.data(), data.size());
    std::memcpy(pages().Twin(page), data.data(), data.size());
    ApplyDiff(local, dst, pages().page_size());
  } else {
    std::memcpy(dst, data.data(), data.size());
  }
}

// ---------------------------------------------------------------------------
// Page access.

Task<void> ProtocolNode::EnsureAccessSpans(std::vector<PageSpan> spans) {
  // Keep scanning until one full pass needs no fault. Rescanning matters:
  // while a fault on a later page is being resolved (the coroutine is
  // suspended), a remote lock request can close the current interval, which
  // re-write-protects pages this grant already upgraded. The final fault-free
  // pass runs synchronously with the caller's resumption, so the grant is
  // stable until the application's next suspension point.
  while (true) {
    PageId fault_page = kInvalidPage;
    bool fault_write = false;
    bool fault_invalid = false;
    for (const PageSpan& span : spans) {
      HLRC_CHECK(span.first >= 0 && span.last < env_.pages->num_pages() &&
                 span.first <= span.last);
      for (PageId p = span.first; p <= span.last; ++p) {
        const PageState& st = env_.pages->State(p);
        const bool invalid = st.prot() == PageProt::kNone;
        const bool needs_write_upgrade = span.write && st.prot() != PageProt::kReadWrite;
        if (invalid || needs_write_upgrade) {
          fault_page = p;
          fault_write = span.write;
          fault_invalid = invalid;
          break;
        }
      }
      if (fault_page != kInvalidPage) {
        break;
      }
    }
    if (fault_page == kInvalidPage) {
      co_return;
    }

    WaitScope ws(this, WaitCat::kData);
    const SpanId fault_span =
        SpanBegin(SpanKind::kFault, fault_page, fault_write ? 1 : 0);
    SpanVt(fault_span);
    cur_fault_span_ = fault_span;
    Trace(TraceEvent::kFault, fault_page, fault_write ? 1 : 0);
    co_await ChargeCpu(costs().page_fault, BusyCat::kFault);
    if (fault_invalid) {
      ++stats_.read_misses;
    }
    if (fault_write) {
      ++stats_.write_faults;
    }
    if (metrics_ != nullptr) {
      metrics_->heat->OnFault(fault_page, fault_write);
      ++*metrics_->outstanding_fetches;
    }
    const PageProt prot_before = env_.pages->State(fault_page).prot();
    co_await ResolveFault(fault_page, fault_write);
    if (metrics_ != nullptr) {
      --*metrics_->outstanding_fetches;
    }
    Cover(CoverageObserver::Domain::kPageTransition,
          (static_cast<uint64_t>(prot_before) << 8) |
              static_cast<uint64_t>(env_.pages->State(fault_page).prot()),
          fault_write ? 4 : 3);  // Cause 3: read fault, 4: write fault.
    HLRC_DCHECK(env_.pages->State(fault_page).prot() != PageProt::kNone);
    cur_fault_span_ = kNoSpan;
    SpanEnd(fault_span);
    ws.Finish();
  }
}

Task<void> ProtocolNode::EnsureAccess(PageId first, PageId last, bool write) {
  return EnsureAccessSpans({PageSpan{first, last, write}});
}

// ---------------------------------------------------------------------------
// Locks.

ProtocolNode::LockState& ProtocolNode::Lock(LockId lock) {
  auto it = locks_.find(lock);
  if (it == locks_.end()) {
    LockState ls;
    ls.held = (env_.self == LockManagerNode(lock));
    it = locks_.emplace(lock, std::move(ls)).first;
  }
  return it->second;
}

ProtocolNode::LockManagerState& ProtocolNode::ManagerState(LockId lock) {
  auto it = lock_managers_.find(lock);
  if (it == lock_managers_.end()) {
    LockManagerState ms;
    ms.last_requester = env_.self;  // Token starts at the manager.
    it = lock_managers_.emplace(lock, ms).first;
  }
  return it->second;
}

Task<void> ProtocolNode::Acquire(LockId lock) {
  ++stats_.lock_acquires;
  LockState& ls = Lock(lock);
  HLRC_CHECK_MSG(!ls.in_use, "node %d: recursive acquire of lock %d", env_.self, lock);
  if (ls.held) {
    HLRC_TRACE("[%lld] node %d: local reacquire lock %d", (long long)engine()->Now(),
               env_.self, lock);
    ls.in_use = true;
    co_return;  // Local reacquire: no interval end, no messages.
  }

  ++stats_.remote_acquires;
  Trace(TraceEvent::kLockRequest, lock);
  HLRC_TRACE("[%lld] node %d: remote acquire lock %d", (long long)engine()->Now(), env_.self,
             lock);
  // A remote acquire delimits the current interval (paper §2.1 case (i)).
  co_await CloseIntervalFromApp();

  WaitScope ws(this, WaitCat::kLock);
  const SpanId lock_span = SpanBegin(SpanKind::kLock, lock);
  SpanVt(lock_span);
  ls.waiting = std::make_unique<Completion>(env_.engine);

  {
    SpanCause sc(this, lock_span);
    const NodeId manager = LockManagerNode(lock);
    if (manager == env_.self) {
      HandleLockRequest(lock, env_.self, vt_);
    } else {
      auto payload = std::make_unique<LockRequestPayload>();
      payload->lock = lock;
      payload->requester = env_.self;
      payload->vt = vt_;
      Send(manager, MsgType::kLockRequest, 0, 8 + vt_.EncodedSize(), std::move(payload));
    }
  }

  co_await *ls.waiting;
  Trace(TraceEvent::kLockAcquired, lock);
  // `ls` may dangle after suspension (other locks can rehash the map).
  LockState& ls2 = Lock(lock);
  ls2.waiting.reset();
  ls2.held = true;
  ls2.in_use = true;
  SpanEnd(lock_span);
  // The critical section itself: a later requester's wait that overlaps it is
  // attributed to compute (the holder was legitimately working).
  ls2.hold_span = SpanBegin(SpanKind::kLockHold, lock);
  SpanLink(ls2.hold_span, lock_span);
  ws.Finish();
}

Task<void> ProtocolNode::Release(LockId lock) {
  LockState& ls = Lock(lock);
  HLRC_CHECK_MSG(ls.in_use, "node %d: release of lock %d not held", env_.self, lock);
  ls.in_use = false;
  if (ls.pending_requester != kInvalidNode) {
    const NodeId requester = ls.pending_requester;
    VectorClock rvt = std::move(ls.pending_vt);
    const SpanId pending_span = ls.pending_span;
    ls.pending_requester = kInvalidNode;
    ls.pending_span = kNoSpan;
    GrantLock(lock, requester, rvt, pending_span);
  }
  co_return;
}

void ProtocolNode::HandleLockRequest(LockId lock, NodeId requester, const VectorClock& rvt) {
  LockManagerState& ms = ManagerState(lock);
  const NodeId last = ms.last_requester;
  HLRC_CHECK(last != requester);
  ms.last_requester = requester;
  if (last == env_.self) {
    HandleLockForward(lock, requester, rvt);
    return;
  }
  auto payload = std::make_unique<LockForwardPayload>();
  payload->lock = lock;
  payload->requester = requester;
  payload->vt = rvt;
  Send(last, MsgType::kLockForward, 0, 8 + rvt.EncodedSize(), std::move(payload));
}

void ProtocolNode::HandleLockForward(LockId lock, NodeId requester, const VectorClock& rvt) {
  LockState& ls = Lock(lock);
  if (ls.held && !ls.in_use) {
    // Idle holder: receiving the remote request delimits the interval
    // (paper §2.1 case (ii)) and we grant immediately.
    GrantLock(lock, requester, rvt, active_span_);
    return;
  }
  // Either the app is inside the critical section or we are ourselves still
  // waiting for the token; the grant happens at release time.
  HLRC_CHECK_MSG(ls.pending_requester == kInvalidNode,
                 "node %d: two pending requesters for lock %d", env_.self, lock);
  ls.pending_requester = requester;
  ls.pending_vt = rvt;
  ls.pending_span = active_span_;  // Re-established as the grant's cause at release.
}

void ProtocolNode::GrantLock(LockId lock, NodeId requester, const VectorClock& rvt,
                             SpanId cause) {
  Trace(TraceEvent::kLockGrant, lock, requester);
  HLRC_TRACE("[%lld] node %d: grant lock %d -> node %d", (long long)engine()->Now(), env_.self,
             lock, requester);
  LockState& ls = Lock(lock);
  HLRC_CHECK(ls.held && !ls.in_use);
  ls.held = false;

  // The critical section ends here. Linking the hold span from the parked
  // requester's context makes it a causal descendant of the requester's
  // acquire root, so the overlap is attributed to compute.
  SpanEnd(ls.hold_span);
  SpanLink(ls.hold_span, cause);
  ls.hold_span = kNoSpan;

  CloseActions actions = CloseIntervalPrepared();

  auto send_grant = [this, lock, requester, rvt, cause] {
    IntervalBatch recs = PackIntervalsFor(rvt);
    const SimTime pack_cost =
        costs().lock_handling + costs().wn_pack * static_cast<SimTime>(recs.size());
    const SimTime t_dispatch = engine()->Now();
    env_.cpu->RunService(
        pack_cost, BusyCat::kWriteNotice,
        [this, lock, requester, cause, t_dispatch, recs = std::move(recs)]() mutable {
          const int64_t bytes = 16 + BatchBytes(recs);
          auto payload = std::make_unique<LockGrantPayload>();
          payload->lock = lock;
          payload->intervals = std::move(recs);
          const SpanId grant_span =
              SpanEmit(SpanKind::kService, t_dispatch, cause, lock);
          SpanCause sc(this, grant_span);
          Send(requester, MsgType::kLockGrant, 0, bytes, std::move(payload));
        });
  };

  if (actions.TotalCpu() > 0 || actions.post) {
    env_.cpu->RunService(
        actions.protect_cost, BusyCat::kFault,
        [this, diff_cost = actions.diff_cost, post = std::move(actions.post), send_grant] {
          env_.cpu->RunService(diff_cost, BusyCat::kDiffCreate, [this, post, send_grant] {
            if (post) {
              post();
            }
            // The grant is the happens-before edge: it may not leave while
            // eager flushes are outstanding.
            FlushBarrier(send_grant);
          });
        });
  } else {
    FlushBarrier(send_grant);
  }
}

void ProtocolNode::HandleLockGrant(LockId lock, IntervalBatch intervals) {
  HLRC_TRACE("[%lld] node %d: received grant for lock %d", (long long)engine()->Now(),
             env_.self, lock);
  Cover(CoverageObserver::Domain::kSyncEpoch, 0,
        CoverageBucket(intervals.size()));  // Sync kind 0: lock grant.
  const SimTime cost = ApplyIntervals(intervals);
  const SpanId cause = active_span_;
  const SimTime t0 = engine()->Now();
  env_.cpu->RunService(cost, BusyCat::kWriteNotice, [this, lock, cause, t0] {
    SpanEmit(SpanKind::kWnApply, t0, cause, lock);
    LockState& ls = Lock(lock);
    HLRC_CHECK(ls.waiting != nullptr);
    ls.waiting->Complete();
  });
}

// ---------------------------------------------------------------------------
// Barriers.

Task<void> ProtocolNode::Barrier(BarrierId barrier) {
  ++stats_.barriers;
  Trace(TraceEvent::kBarrierEnter, barrier);
  co_await CloseIntervalFromApp();

  WaitScope ws(this, WaitCat::kBarrier);
  const SpanId bar_span = SpanBegin(SpanKind::kBarrier, barrier);
  SpanVt(bar_span);
  HLRC_CHECK(barrier_waiting_ == nullptr);
  barrier_waiting_ = std::make_unique<Completion>(env_.engine);

  // In tree mode the pack happens once per subtree at forward-up time (own
  // and child records together), so the app-side pack is skipped here.
  IntervalBatch recs;
  if (!TreeBarrier()) {
    recs = PackIntervalsFor(sent_to_manager_vt_);
    co_await ChargeCpu(costs().wn_pack * static_cast<SimTime>(recs.size()),
                       BusyCat::kWriteNotice);
  }
  const bool pressure =
      !home_based() && ProtocolMemoryBytes() > env_.options->gc_threshold_bytes;

  {
    SpanCause sc(this, bar_span);
    if (TreeBarrier()) {
      std::vector<BarrierArrival> self_arrival(1);
      self_arrival[0].node = env_.self;
      self_arrival[0].vt = vt_;
      TreeBarrierAccumulate(barrier, std::move(self_arrival), {}, pressure);
    } else if (env_.self == kBarrierManager) {
      HandleBarrierEnter(barrier, env_.self, vt_, std::move(recs), pressure);
    } else {
      const int64_t bytes = 16 + vt_.EncodedSize() + BatchBytes(recs);
      auto payload = std::make_unique<BarrierEnterPayload>();
      payload->barrier = barrier;
      payload->node = env_.self;
      payload->vt = vt_;
      payload->intervals = std::move(recs);
      payload->mem_pressure = pressure;
      Send(kBarrierManager, MsgType::kBarrierEnter, 0, bytes, std::move(payload));
    }
  }

  co_await *barrier_waiting_;
  barrier_waiting_.reset();
  Trace(TraceEvent::kBarrierExit, barrier);
  SpanEnd(bar_span);
  ws.Finish();
}

void ProtocolNode::HandleBarrierEnter(BarrierId barrier, NodeId node, const VectorClock& nvt,
                                      IntervalBatch intervals, bool mem_pressure) {
  BarrierManagerState& bm = barrier_mgr_[barrier];
  if (bm.arrival_vt.empty()) {
    bm.arrival_vt.assign(static_cast<size_t>(env_.nodes), VectorClock(env_.nodes));
    bm.present.assign(static_cast<size_t>(env_.nodes), false);
  }
  HLRC_CHECK(!bm.present[static_cast<size_t>(node)]);
  bm.present[static_cast<size_t>(node)] = true;
  bm.arrival_vt[static_cast<size_t>(node)] = nvt;
  bm.mem_pressure = bm.mem_pressure || mem_pressure;
  ++bm.arrived;

  if (bm.gather_span == kNoSpan) {
    bm.gather_span = SpanBegin(SpanKind::kBarrierGather, barrier);
  }
  // Every arrival (the manager's own included) is a causal input to the
  // gather: a straggler's wait overlapping it counts as compute.
  SpanLink(bm.gather_span, active_span_);

  const SimTime cost = costs().barrier_handling + ApplyIntervals(intervals);
  // Merge in case the arriving vt is ahead in components we have no records
  // for (cannot happen today, but keeps the invariant explicit).
  vt_.MergeWith(nvt);

  env_.cpu->RunService(cost, BusyCat::kWriteNotice, [this, barrier] {
    auto it = barrier_mgr_.find(barrier);
    if (it != barrier_mgr_.end() && it->second.arrived == env_.nodes && !it->second.launched) {
      it->second.launched = true;
      BarrierAllArrived(barrier);
    }
  });
}

int ProtocolNode::TreeSubtreeSize(NodeId n) const {
  int size = 1;
  const NodeId first = TreeFirstChild(n);
  for (NodeId c = first;
       c < first + env_.options->barrier_arity && c < env_.nodes; ++c) {
    size += TreeSubtreeSize(c);
  }
  return size;
}

void ProtocolNode::TreeBarrierAccumulate(BarrierId barrier,
                                         std::vector<BarrierArrival> arrivals,
                                         IntervalBatch intervals, bool mem_pressure) {
  BarrierTreeState& ts = barrier_tree_[barrier];
  if (ts.gather_span == kNoSpan) {
    ts.gather_span = SpanBegin(SpanKind::kBarrierGather, barrier);
  }
  // Every arrival batch (own or a child subtree's) is a causal input to this
  // node's slice of the gather.
  SpanLink(ts.gather_span, active_span_);
  ts.mem_pressure = ts.mem_pressure || mem_pressure;
  const SimTime cost = costs().barrier_handling + ApplyIntervals(intervals);
  for (BarrierArrival& a : arrivals) {
    vt_.MergeWith(a.vt);
    ts.arrivals.push_back(std::move(a));
  }
  env_.cpu->RunService(cost, BusyCat::kWriteNotice,
                       [this, barrier] { TreeMaybeForwardUp(barrier); });
}

void ProtocolNode::TreeMaybeForwardUp(BarrierId barrier) {
  auto it = barrier_tree_.find(barrier);
  if (it == barrier_tree_.end()) {
    return;
  }
  BarrierTreeState& ts = it->second;
  if (ts.launched ||
      static_cast<int>(ts.arrivals.size()) < TreeSubtreeSize(env_.self)) {
    return;
  }
  ts.launched = true;

  if (env_.self == kBarrierManager) {
    // Root: the whole machine has arrived. Build the flat manager state from
    // the accumulated pairs so BarrierPreRelease (homeless GC) and
    // PackBarrierReleaseFor work unchanged, then run the normal release path
    // (which fans out to the root's direct children only in tree mode).
    BarrierManagerState& bm = barrier_mgr_[barrier];
    bm.arrival_vt.assign(static_cast<size_t>(env_.nodes), VectorClock(env_.nodes));
    bm.present.assign(static_cast<size_t>(env_.nodes), false);
    for (const BarrierArrival& a : ts.arrivals) {
      HLRC_CHECK(!bm.present[static_cast<size_t>(a.node)]);
      bm.present[static_cast<size_t>(a.node)] = true;
      bm.arrival_vt[static_cast<size_t>(a.node)] = a.vt;
    }
    bm.arrived = env_.nodes;
    bm.mem_pressure = ts.mem_pressure;
    bm.launched = true;
    bm.gather_span = ts.gather_span;
    barrier_tree_.erase(it);
    BarrierAllArrived(barrier);
    return;
  }

  // Interior node or leaf: one combined enter carries the whole subtree —
  // its (node, arrival-vt) pairs plus every interval record the chain above
  // might be missing (children's records were applied into this node's log,
  // so one pack against sent_to_manager_vt_ covers own and child intervals).
  IntervalBatch recs = PackIntervalsFor(sent_to_manager_vt_);
  const SimTime cost = costs().wn_pack * static_cast<SimTime>(recs.size());
  int64_t bytes = 16 + vt_.EncodedSize() + BatchBytes(recs);
  for (const BarrierArrival& a : ts.arrivals) {
    bytes += 4 + a.vt.EncodedSize();
  }
  auto payload = std::make_unique<BarrierEnterPayload>();
  payload->barrier = barrier;
  payload->node = env_.self;
  payload->vt = vt_;
  payload->intervals = std::move(recs);
  payload->mem_pressure = ts.mem_pressure;
  // Copy, not move: the arrival vts are needed again at release time to pack
  // each direct child's release forward.
  payload->arrivals = ts.arrivals;
  SpanEnd(ts.gather_span);
  {
    SpanCause sc(this, ts.gather_span);
    Send(TreeParent(env_.self), MsgType::kBarrierEnter, 0, bytes, std::move(payload));
  }
  env_.cpu->RunService(cost, BusyCat::kWriteNotice, [] {});
}

void ProtocolNode::BarrierAllArrived(BarrierId barrier) {
  const bool pressure = barrier_mgr_[barrier].mem_pressure;
  SpawnDetached([](ProtocolNode* self, BarrierId b, bool mem) -> Task<void> {
    co_await self->BarrierPreRelease(b, mem);
    self->SendBarrierReleases(b);
  }(this, barrier, pressure));
}

IntervalBatch ProtocolNode::PackBarrierReleaseFor(BarrierId barrier, NodeId node) const {
  auto it = barrier_mgr_.find(barrier);
  HLRC_CHECK(it != barrier_mgr_.end());
  return PackIntervalsFor(it->second.arrival_vt[static_cast<size_t>(node)]);
}

SpanId ProtocolNode::BarrierGatherSpan(BarrierId barrier) const {
  auto it = barrier_mgr_.find(barrier);
  return it != barrier_mgr_.end() ? it->second.gather_span : kNoSpan;
}

void ProtocolNode::SendBarrierReleases(BarrierId barrier) {
  BarrierManagerState bm = std::move(barrier_mgr_[barrier]);
  barrier_mgr_.erase(barrier);

  SpanEnd(bm.gather_span);
  SpanCause sc(this, bm.gather_span);  // Releases fan out from the gather.

  // Flat barrier: the manager releases every other node directly. Tree mode:
  // only its direct children — each interior node re-packs and forwards to
  // its own children in HandleBarrierRelease.
  std::vector<NodeId> targets;
  if (TreeBarrier()) {
    const NodeId first = TreeFirstChild(env_.self);
    for (NodeId c = first;
         c < first + env_.options->barrier_arity && c < env_.nodes; ++c) {
      targets.push_back(c);
    }
  } else {
    for (NodeId n = 0; n < env_.nodes; ++n) {
      if (n != env_.self) {
        targets.push_back(n);
      }
    }
  }

  SimTime cost = 0;
  for (const NodeId n : targets) {
    cost += SendBarrierRelease(barrier, n, bm.arrival_vt[static_cast<size_t>(n)]);
  }
  // The manager releases itself once the send-side work is charged.
  env_.cpu->RunService(cost, BusyCat::kWriteNotice,
                       [this, barrier, cause = bm.gather_span] {
                         SpanCause sc2(this, cause);
                         HandleBarrierRelease(barrier, {}, vt_);
                       });
}

SimTime ProtocolNode::SendBarrierRelease(BarrierId barrier, NodeId to,
                                         const VectorClock& seen) {
  // Handle copies only: each receiver's release payload aliases the same
  // underlying records.
  auto payload = std::make_unique<BarrierReleasePayload>();
  payload->barrier = barrier;
  payload->intervals = PackIntervalsFor(seen);
  payload->max_vt = vt_;
  const SimTime cost = costs().barrier_handling +
                       costs().wn_pack * static_cast<SimTime>(payload->intervals.size());
  const int64_t bytes = 16 + vt_.EncodedSize() + BatchBytes(payload->intervals);
  Send(to, MsgType::kBarrierRelease, 0, bytes, std::move(payload));
  return cost;
}

void ProtocolNode::HandleBarrierRelease(BarrierId barrier, IntervalBatch intervals,
                                        const VectorClock& max_vt) {
  Cover(CoverageObserver::Domain::kSyncEpoch, 1,
        CoverageBucket(intervals.size()));  // Sync kind 1: barrier release.
  SimTime cost = ApplyIntervals(intervals);
  vt_.MergeWith(max_vt);
  if (TreeBarrier() && env_.self != kBarrierManager) {
    // Fan the release down: after applying the parent's batch this node's
    // log holds every interval record of the epoch, so packing against a
    // direct child's recorded arrival vt yields exactly the content the flat
    // manager would have sent that child. Must run before the truncation
    // charged below.
    auto it = barrier_tree_.find(barrier);
    HLRC_CHECK(it != barrier_tree_.end());
    const NodeId first = TreeFirstChild(env_.self);
    for (NodeId c = first;
         c < first + env_.options->barrier_arity && c < env_.nodes; ++c) {
      const VectorClock* cvt = nullptr;
      for (const BarrierArrival& a : it->second.arrivals) {
        if (a.node == c) {
          cvt = &a.vt;
          break;
        }
      }
      HLRC_CHECK(cvt != nullptr);
      cost += SendBarrierRelease(barrier, c, *cvt);
    }
  }
  const SpanId cause = active_span_;
  const SimTime t0 = engine()->Now();
  env_.cpu->RunService(cost, BusyCat::kWriteNotice, [this, barrier, cause, t0] {
    SpanEmit(SpanKind::kWnApply, t0, cause);
    // Everything known at this barrier is now known everywhere: truncate the
    // interval log (diffs and per-page state are managed by the subclass).
    // Records still referenced by in-flight payloads stay alive through
    // their shared handles and die with the last one.
    interval_log_.Clear();
    known_interval_bytes_ = 0;
    sent_to_manager_vt_ = vt_;
    barrier_tree_.erase(barrier);
    OnBarrierReleased();
    HLRC_CHECK(barrier_waiting_ != nullptr);
    barrier_waiting_->Complete();
  });
}

Task<void> ProtocolNode::BarrierPreRelease(BarrierId /*barrier*/, bool /*mem_pressure*/) {
  co_return;
}

void ProtocolNode::OnBarrierReleased() {}

// ---------------------------------------------------------------------------
// Message dispatch.

void ProtocolNode::HandleMessage(Message msg) {
  // Span tracing: every deferred handler runs under a service span chained
  // from the message's wire span, covering [arrival, service completion] —
  // interrupt charge and processor queueing included.
  const SpanId cause = msg.span;
  const SimTime t_arrive = engine()->Now();
  switch (msg.type) {
    case MsgType::kLockRequest: {
      auto* p = static_cast<LockRequestPayload*>(msg.payload.get());
      // Lock management always runs on the compute processor (paper §2.4.1).
      Serve(/*on_coproc=*/false, /*interrupt=*/true, costs().lock_handling, BusyCat::kService,
            [this, cause, t_arrive, lock = p->lock, requester = p->requester, vt = p->vt] {
              SpanCause sc(this, SpanEmit(SpanKind::kService, t_arrive, cause, lock));
              HandleLockRequest(lock, requester, vt);
            });
      return;
    }
    case MsgType::kLockForward: {
      auto* p = static_cast<LockForwardPayload*>(msg.payload.get());
      Serve(/*on_coproc=*/false, /*interrupt=*/true, costs().lock_handling, BusyCat::kService,
            [this, cause, t_arrive, lock = p->lock, requester = p->requester, vt = p->vt] {
              SpanCause sc(this, SpanEmit(SpanKind::kService, t_arrive, cause, lock));
              HandleLockForward(lock, requester, vt);
            });
      return;
    }
    case MsgType::kLockGrant: {
      auto* p = static_cast<LockGrantPayload*>(msg.payload.get());
      // Solicited reply: the requester is blocked in a receive, no interrupt.
      Serve(/*on_coproc=*/false, /*interrupt=*/false, 0, BusyCat::kService,
            [this, cause, t_arrive, lock = p->lock,
             intervals = std::move(p->intervals)]() mutable {
              SpanCause sc(this, SpanEmit(SpanKind::kService, t_arrive, cause, lock));
              HandleLockGrant(lock, std::move(intervals));
            });
      return;
    }
    case MsgType::kBarrierEnter: {
      auto* p = static_cast<BarrierEnterPayload*>(msg.payload.get());
      if (!p->arrivals.empty()) {
        // Combined enter from a barrier-tree child: fold the whole subtree
        // into this node's fan-in state.
        Serve(/*on_coproc=*/false, /*interrupt=*/true, 0, BusyCat::kService,
              [this, cause, t_arrive, barrier = p->barrier,
               arrivals = std::move(p->arrivals), intervals = std::move(p->intervals),
               mem = p->mem_pressure]() mutable {
                SpanCause sc(this, SpanEmit(SpanKind::kService, t_arrive, cause, barrier));
                TreeBarrierAccumulate(barrier, std::move(arrivals),
                                      std::move(intervals), mem);
              });
        return;
      }
      Serve(/*on_coproc=*/false, /*interrupt=*/true, 0, BusyCat::kService,
            [this, cause, t_arrive, barrier = p->barrier, node = p->node, vt = p->vt,
             intervals = std::move(p->intervals), mem = p->mem_pressure]() mutable {
              SpanCause sc(this, SpanEmit(SpanKind::kService, t_arrive, cause, barrier));
              HandleBarrierEnter(barrier, node, vt, std::move(intervals), mem);
            });
      return;
    }
    case MsgType::kBarrierRelease: {
      auto* p = static_cast<BarrierReleasePayload*>(msg.payload.get());
      Serve(/*on_coproc=*/false, /*interrupt=*/false, 0, BusyCat::kService,
            [this, cause, t_arrive, barrier = p->barrier,
             intervals = std::move(p->intervals), max_vt = p->max_vt]() mutable {
              SpanCause sc(this, SpanEmit(SpanKind::kService, t_arrive, cause));
              HandleBarrierRelease(barrier, std::move(intervals), max_vt);
            });
      return;
    }
    default:
      HandleProtocolMessage(std::move(msg));
      return;
  }
}

}  // namespace hlrc
