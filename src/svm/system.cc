#include "src/svm/system.h"

#include <cstdio>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"

namespace hlrc {

// ---------------------------------------------------------------------------
// NodeContext.

NodeContext::NodeContext(System* system, NodeId id) : system_(system), id_(id) {}

int NodeContext::nodes() const { return system_->config_.nodes; }

Task<void> NodeContext::Compute(SimTime duration) {
  if (WorkloadObserver* w = system_->wobserver_) {
    w->OnStep(id_);
    w->OnCompute(id_, duration);
  }
  if (duration > 0) {
    co_await system_->nodes_[static_cast<size_t>(id_)].cpu->ExecuteApp(duration,
                                                                       BusyCat::kCompute);
  }
}

Task<void> NodeContext::ComputeFlops(int64_t flops) {
  return Compute(system_->config_.costs.FlopCost(flops));
}

Task<void> NodeContext::Read(GlobalAddr addr, int64_t bytes) {
  HLRC_CHECK(bytes > 0);
  if (system_->wobserver_ != nullptr) {
    return Access({Range{addr, bytes, /*write=*/false}});
  }
  PageTable& pt = *system_->nodes_[static_cast<size_t>(id_)].pages;
  const PageId first = pt.PageOf(addr);
  const PageId last = pt.PageOf(addr + static_cast<GlobalAddr>(bytes) - 1);
  return system_->nodes_[static_cast<size_t>(id_)].proto->EnsureAccess(first, last, false);
}

Task<void> NodeContext::Write(GlobalAddr addr, int64_t bytes) {
  HLRC_CHECK(bytes > 0);
  if (system_->wobserver_ != nullptr) {
    return Access({Range{addr, bytes, /*write=*/true}});
  }
  PageTable& pt = *system_->nodes_[static_cast<size_t>(id_)].pages;
  const PageId first = pt.PageOf(addr);
  const PageId last = pt.PageOf(addr + static_cast<GlobalAddr>(bytes) - 1);
  return system_->nodes_[static_cast<size_t>(id_)].proto->EnsureAccess(first, last, true);
}

Task<void> NodeContext::Access(const std::vector<Range>& ranges) {
  PageTable& pt = *system_->nodes_[static_cast<size_t>(id_)].pages;
  std::vector<ProtocolNode::PageSpan> spans;
  spans.reserve(ranges.size());
  for (const Range& r : ranges) {
    HLRC_CHECK(r.bytes > 0);
    spans.push_back(ProtocolNode::PageSpan{
        pt.PageOf(r.addr), pt.PageOf(r.addr + static_cast<GlobalAddr>(r.bytes) - 1), r.write});
  }
  if (system_->wobserver_ == nullptr) {
    return system_->nodes_[static_cast<size_t>(id_)].proto->EnsureAccessSpans(std::move(spans));
  }
  return ObservedAccess(ranges, std::move(spans));
}

Task<void> NodeContext::ObservedAccess(std::vector<Range> ranges,
                                       std::vector<ProtocolNode::PageSpan> spans) {
  system_->wobserver_->OnStep(id_);
  co_await system_->nodes_[static_cast<size_t>(id_)].proto->EnsureAccessSpans(std::move(spans));
  // The grant's final pass resumed us synchronously, so the observer sees the
  // freshly granted pages before the program performs a single store.
  system_->wobserver_->OnAccess(id_, ranges);
}

bool NodeContext::NeedsAccess(GlobalAddr addr, int64_t bytes, bool write) const {
  PageTable& pt = *system_->nodes_[static_cast<size_t>(id_)].pages;
  const PageId first = pt.PageOf(addr);
  const PageId last = pt.PageOf(addr + static_cast<GlobalAddr>(bytes) - 1);
  for (PageId p = first; p <= last; ++p) {
    const PageProt prot = pt.State(p).prot();
    if (prot == PageProt::kNone || (write && prot != PageProt::kReadWrite)) {
      return true;
    }
  }
  return false;
}

Task<void> NodeContext::Lock(LockId lock) {
  if (WorkloadObserver* w = system_->wobserver_) {
    w->OnStep(id_);
    w->OnLock(id_, lock);
  }
  return system_->nodes_[static_cast<size_t>(id_)].proto->Acquire(lock);
}

Task<void> NodeContext::Unlock(LockId lock) {
  if (WorkloadObserver* w = system_->wobserver_) {
    w->OnStep(id_);
    w->OnUnlock(id_, lock);
  }
  return system_->nodes_[static_cast<size_t>(id_)].proto->Release(lock);
}

Task<void> NodeContext::Barrier(BarrierId barrier) {
  if (WorkloadObserver* w = system_->wobserver_) {
    w->OnStep(id_);
    w->OnBarrier(id_, barrier);
  }
  return system_->nodes_[static_cast<size_t>(id_)].proto->Barrier(barrier);
}

std::byte* NodeContext::RawPtr(GlobalAddr addr) const {
  return system_->nodes_[static_cast<size_t>(id_)].pages->AddrData(addr);
}

namespace {
void ObserveAccess(System* sys, const ProtocolNode& proto, NodeId node, GlobalAddr addr,
                   uint64_t value, bool is_write, AccessObserver* observer) {
  if (observer == nullptr) {
    return;
  }
  MemoryAccess a;
  a.node = node;
  a.addr = addr;
  a.value = value;
  a.is_write = is_write;
  a.vt = proto.vt();
  a.interval = a.vt.Get(node) + 1;
  a.when = sys->engine().Now();
  observer->OnAccess(a);
}
}  // namespace

Task<uint64_t> NodeContext::LoadWord(GlobalAddr addr) {
  HLRC_CHECK(addr % 8 == 0);
  co_await Read(addr, 8);
  // No suspension between the grant, the load and the observation: the value
  // and the vector timestamp belong to the same instant.
  const uint64_t value = *Ptr<const uint64_t>(addr);
  ObserveAccess(system_, *system_->nodes_[static_cast<size_t>(id_)].proto, id_, addr, value,
                /*is_write=*/false, system_->observer_);
  co_return value;
}

Task<void> NodeContext::StoreWord(GlobalAddr addr, uint64_t value) {
  HLRC_CHECK(addr % 8 == 0);
  co_await Write(addr, 8);
  *Ptr<uint64_t>(addr) = value;
  ObserveAccess(system_, *system_->nodes_[static_cast<size_t>(id_)].proto, id_, addr, value,
                /*is_write=*/true, system_->observer_);
}

void NodeContext::SnapshotPhase(int phase) {
  if (WorkloadObserver* w = system_->wobserver_) {
    w->OnStep(id_);
    w->OnPhase(id_, phase);
  }
  system_->report_.phases[{phase, id_}] = system_->SnapshotNode(id_);
}

// ---------------------------------------------------------------------------
// System.

System::System(const SimConfig& config) : config_(config) {
  HLRC_CHECK(config_.nodes > 0);
  engine_ = std::make_unique<Engine>();
  network_ = std::make_unique<Network>(engine_.get(), config_.nodes, config_.network);
  if (config_.fault.Active()) {
    HLRC_CHECK_MSG(config_.fault.dup_prob == 0 || config_.reliability.enabled,
                   "duplicate injection needs the reliable channel's dedup "
                   "(set reliability.enabled)");
    fault_ = std::make_unique<FaultInjector>(config_.fault);
    network_->SetFaultHook(fault_.get());
  }
  if (config_.reliability.enabled) {
    network_->EnableReliableDelivery(config_.reliability);
  }
  space_ = std::make_unique<SharedSpace>(config_.shared_bytes, config_.page_size);

  nodes_.resize(static_cast<size_t>(config_.nodes));
  for (NodeId n = 0; n < config_.nodes; ++n) {
    Node& node = nodes_[static_cast<size_t>(n)];
    char name[32];
    std::snprintf(name, sizeof(name), "cpu%d", n);
    node.cpu = std::make_unique<Processor>(engine_.get(), name);
    std::snprintf(name, sizeof(name), "cop%d", n);
    node.cop = std::make_unique<Processor>(engine_.get(), name);
    node.pages = std::make_unique<PageTable>(config_.shared_bytes, config_.page_size);

    ProtocolNode::Env env;
    env.engine = engine_.get();
    env.network = network_.get();
    env.cpu = node.cpu.get();
    env.cop = node.cop.get();
    env.pages = node.pages.get();
    env.space = space_.get();
    env.costs = &config_.costs;
    env.options = &config_.protocol;
    env.self = n;
    env.nodes = config_.nodes;
    node.proto = ProtocolNode::Create(env);
    node.ctx = std::make_unique<NodeContext>(this, n);

    network_->SetHandler(
        n, [proto = node.proto.get()](Message msg) { proto->HandleMessage(std::move(msg)); });
  }
}

System::~System() = default;

TraceLog* System::EnableTracing(size_t capacity) {
  HLRC_CHECK_MSG(!ran_, "EnableTracing must precede Run");
  trace_ = std::make_unique<TraceLog>(capacity);
  for (Node& node : nodes_) {
    node.proto->SetTraceLog(trace_.get());
  }
  network_->SetTraceLog(trace_.get());
  return trace_.get();
}

void System::SetWorkloadObserver(WorkloadObserver* observer) {
  HLRC_CHECK_MSG(!ran_, "SetWorkloadObserver must precede Run");
  wobserver_ = observer;
  if (observer == nullptr) {
    space_->SetAllocHook(nullptr);
  } else {
    space_->SetAllocHook([this](GlobalAddr addr, int64_t bytes, bool page_aligned) {
      wobserver_->OnAlloc(addr, bytes, page_aligned);
    });
  }
}

void System::SetCoverageObserver(CoverageObserver* cov) {
  HLRC_CHECK_MSG(!ran_, "SetCoverageObserver must precede Run");
  for (Node& node : nodes_) {
    node.proto->SetCoverageObserver(cov);
  }
  network_->SetCoverageObserver(cov);
}

Metrics* System::EnableMetrics(SimTime sample_interval) {
  HLRC_CHECK_MSG(!ran_, "EnableMetrics must precede Run");
  HLRC_CHECK_MSG(metrics_ == nullptr, "EnableMetrics may only be called once");
  metrics_ = std::make_unique<Metrics>(engine_.get(), config_.nodes,
                                       config_.shared_bytes / config_.page_size,
                                       sample_interval);
  for (NodeId n = 0; n < config_.nodes; ++n) {
    nodes_[static_cast<size_t>(n)].proto->SetMetrics(metrics_->proto(n));
  }
  network_->AttachMetrics(metrics_.get());
  return metrics_.get();
}

SpanTracer* System::EnableSpans(size_t capacity) {
  HLRC_CHECK_MSG(!ran_, "EnableSpans must precede Run");
  HLRC_CHECK_MSG(spans_ == nullptr, "EnableSpans may only be called once");
  spans_ = std::make_unique<SpanTracer>(capacity);
  for (Node& node : nodes_) {
    node.proto->SetSpanTracer(spans_.get());
  }
  network_->SetSpanTracer(spans_.get());
  return spans_.get();
}

void System::Run(const Program& program) {
  HLRC_CHECK_MSG(!ran_, "System::Run may only be called once");
  ran_ = true;
  const std::string overflow = space_->OverflowReason("the program");
  HLRC_CHECK_MSG(overflow.empty(), "%s", overflow.c_str());

  const int used_pages = static_cast<int>(
      (space_->AllocatedBytes() + config_.page_size - 1) / config_.page_size);
  for (NodeId n = 0; n < config_.nodes; ++n) {
    nodes_[static_cast<size_t>(n)].proto->SetUsedPages(std::max(used_pages, 1));
  }

  for (NodeId n = 0; n < config_.nodes; ++n) {
    Node& node = nodes_[static_cast<size_t>(n)];
    SpawnDetached(program(*node.ctx), [this, n] {
      Node& done_node = nodes_[static_cast<size_t>(n)];
      done_node.done = true;
      done_node.finish_time = engine_->Now();
      if (wobserver_ != nullptr) {
        wobserver_->OnFinish(n);
      }
    });
  }

  if (metrics_ != nullptr) {
    // After the programs are spawned so the t=0 tick sees a live queue; the
    // sampler stops rescheduling itself once the rest of the queue drains.
    metrics_->sampler().Start();
  }

  engine_->Run();

  for (NodeId n = 0; n < config_.nodes; ++n) {
    HLRC_CHECK_MSG(nodes_[static_cast<size_t>(n)].done,
                   "deadlock: node %d did not finish (vt stuck, check lock/barrier pairing)",
                   n);
  }

  report_.total_time = 0;
  report_.app_memory_bytes = space_->AllocatedBytes();
  report_.nodes.clear();
  for (NodeId n = 0; n < config_.nodes; ++n) {
    NodeReport r = SnapshotNode(n);
    report_.total_time = std::max(report_.total_time, r.finish_time);
    report_.nodes.push_back(std::move(r));
  }
}

NodeReport System::SnapshotNode(NodeId n) const {
  const Node& node = nodes_[static_cast<size_t>(n)];
  NodeReport r;
  r.finish_time = node.done ? node.finish_time : engine_->Now();
  r.cpu_busy = node.cpu->busy();
  r.cop_busy = node.cop->busy();
  r.proto = node.proto->stats();
  r.waits = r.proto.waits;
  r.traffic = network_->NodeStats(n);
  r.proto_mem_highwater = r.proto.proto_mem_highwater;
  return r;
}

std::byte* System::NodeMemory(NodeId node, GlobalAddr addr) {
  return nodes_[static_cast<size_t>(node)].pages->AddrData(addr);
}

NodeReport RunReport::Average() const {
  NodeReport avg = Totals();
  const int64_t n = static_cast<int64_t>(nodes.size());
  if (n == 0) {
    return avg;
  }
  for (auto& v : avg.cpu_busy.by_cat) {
    v /= n;
  }
  for (auto& v : avg.cop_busy.by_cat) {
    v /= n;
  }
  for (auto& v : avg.waits.by_cat) {
    v /= n;
  }
  avg.finish_time /= n;
  avg.proto.read_misses /= n;
  avg.proto.write_faults /= n;
  avg.proto.page_fetches /= n;
  avg.proto.diffs_created /= n;
  avg.proto.diffs_applied /= n;
  avg.proto.diff_requests_sent /= n;
  avg.proto.lock_acquires /= n;
  avg.proto.remote_acquires /= n;
  avg.proto.barriers /= n;
  avg.proto.intervals_closed /= n;
  avg.proto.write_notices_received /= n;
  avg.proto.pages_invalidated /= n;
  avg.proto.interval_meta_highwater /= n;
  avg.proto_mem_highwater /= n;
  avg.traffic.msgs_sent /= n;
  avg.traffic.update_bytes_sent /= n;
  avg.traffic.protocol_bytes_sent /= n;
  return avg;
}

NodeReport RunReport::Totals() const {
  NodeReport total;
  for (const NodeReport& r : nodes) {
    total.finish_time += r.finish_time;
    total.cpu_busy += r.cpu_busy;
    total.cop_busy += r.cop_busy;
    total.waits += r.waits;
    total.proto.read_misses += r.proto.read_misses;
    total.proto.write_faults += r.proto.write_faults;
    total.proto.page_fetches += r.proto.page_fetches;
    total.proto.diffs_created += r.proto.diffs_created;
    total.proto.diffs_applied += r.proto.diffs_applied;
    total.proto.diff_requests_sent += r.proto.diff_requests_sent;
    total.proto.lock_acquires += r.proto.lock_acquires;
    total.proto.remote_acquires += r.proto.remote_acquires;
    total.proto.barriers += r.proto.barriers;
    total.proto.intervals_closed += r.proto.intervals_closed;
    total.proto.write_notices_received += r.proto.write_notices_received;
    total.proto.pages_invalidated += r.proto.pages_invalidated;
    total.proto.gc_runs += r.proto.gc_runs;
    total.proto.page_replies_combined += r.proto.page_replies_combined;
    total.proto.interval_meta_highwater += r.proto.interval_meta_highwater;
    total.proto_mem_highwater += r.proto_mem_highwater;
    total.traffic.msgs_sent += r.traffic.msgs_sent;
    total.traffic.msgs_received += r.traffic.msgs_received;
    total.traffic.update_bytes_sent += r.traffic.update_bytes_sent;
    total.traffic.protocol_bytes_sent += r.traffic.protocol_bytes_sent;
    total.traffic.msgs_retransmitted += r.traffic.msgs_retransmitted;
    total.traffic.msgs_dropped_in_net += r.traffic.msgs_dropped_in_net;
    total.traffic.msgs_duplicated_dropped += r.traffic.msgs_duplicated_dropped;
    total.traffic.acks_sent += r.traffic.acks_sent;
    total.traffic.frames_coalesced += r.traffic.frames_coalesced;
    total.traffic.msgs_coalesced += r.traffic.msgs_coalesced;
    total.traffic.acks_piggybacked += r.traffic.acks_piggybacked;
    for (size_t i = 0; i < r.traffic.msgs_by_type.size(); ++i) {
      total.traffic.msgs_by_type[i] += r.traffic.msgs_by_type[i];
    }
  }
  return total;
}

}  // namespace hlrc
