// svm::System — the user-facing entry point.
//
// A System builds the simulated multicomputer (engine, network, per-node
// compute + communication processors, page tables, protocol instances), runs
// one coroutine program per node against the shared-memory API, and reports
// per-node statistics in the categories the paper uses.
//
// Programming model (paper §3.2, Splash-2 style): shared memory is carved
// out with G_MALLOC-style allocation; programs synchronize exclusively with
// LOCK/UNLOCK/BARRIER; a program announces its page accesses through
// Read/Write (the software-MMU equivalent of touching the pages) and then
// operates on raw pointers into its node's copy of the space.
#ifndef SRC_SVM_SYSTEM_H_
#define SRC_SVM_SYSTEM_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/fault/fault_injector.h"
#include "src/mem/page_table.h"
#include "src/metrics/metrics.h"
#include "src/mem/shared_space.h"
#include "src/net/network.h"
#include "src/proto/observer.h"
#include "src/proto/protocol.h"
#include "src/sim/engine.h"
#include "src/sim/processor.h"
#include "src/sim/task.h"
#include "src/svm/config.h"
#include "src/svm/workload_observer.h"
#include "src/trace/trace.h"

namespace hlrc {

class System;

// Per-node handle passed to application programs.
class NodeContext {
 public:
  NodeContext(System* system, NodeId id);

  NodeId id() const { return id_; }
  int nodes() const;

  // Charges application computation on the compute processor.
  Task<void> Compute(SimTime duration);
  Task<void> ComputeFlops(int64_t flops);

  // One range of an access grant (shared with the workload-observation
  // layer, src/svm/workload_observer.h).
  using Range = AccessRange;

  // Ensures [addr, addr+bytes) is readable / writable, faulting as needed.
  //
  // Contract (software-MMU equivalent of hardware write protection): a write
  // grant only holds until the program's next co_await — an asynchronous
  // interval close may re-protect pages afterwards. Perform all stores into a
  // granted range before suspending, and use Access() to grant several ranges
  // atomically when stores to multiple arrays are interleaved.
  Task<void> Read(GlobalAddr addr, int64_t bytes);
  Task<void> Write(GlobalAddr addr, int64_t bytes);
  Task<void> Access(const std::vector<Range>& ranges);

  // True if an access would fault (fast path check for hot loops).
  bool NeedsAccess(GlobalAddr addr, int64_t bytes, bool write) const;

  Task<void> Lock(LockId lock);
  Task<void> Unlock(LockId lock);
  Task<void> Barrier(BarrierId barrier);

  // Raw pointer into this node's copy of the shared space. Only valid for
  // ranges previously granted by Read/Write.
  template <typename T>
  T* Ptr(GlobalAddr addr) const {
    return reinterpret_cast<T*>(RawPtr(addr));
  }

  // Observed single-word accesses: grant access, perform the load/store on
  // this node's copy, and report the access (with the node's current vector
  // timestamp) to the System's AccessObserver, if any. The litmus programs
  // (src/apps/litmus.h) route every checked access through these so the
  // consistency oracle sees the exact value each read returned. `addr` must
  // be 8-byte aligned.
  Task<uint64_t> LoadWord(GlobalAddr addr);
  Task<void> StoreWord(GlobalAddr addr, uint64_t value);

  // Snapshots this node's statistics under `phase` (used for the paper's
  // Figure 4 inter-barrier windows).
  void SnapshotPhase(int phase);

  System* system() const { return system_; }

 private:
  std::byte* RawPtr(GlobalAddr addr) const;

  // Grant wrapper used when a WorkloadObserver is installed: reports the
  // grant after it completes, still synchronously with the program's
  // resumption (so the observer's snapshot sees exactly the granted state).
  Task<void> ObservedAccess(std::vector<Range> ranges,
                            std::vector<ProtocolNode::PageSpan> spans);

  System* system_;
  NodeId id_;
};

// Everything measured about one node in one run.
struct NodeReport {
  SimTime finish_time = 0;
  BusyBreakdown cpu_busy;
  BusyBreakdown cop_busy;
  WaitBreakdown waits;
  ProtoStats proto;
  TrafficStats traffic;
  int64_t proto_mem_highwater = 0;

  // The paper's Figure 3 categories.
  SimTime Computation() const { return cpu_busy.Get(BusyCat::kCompute); }
  SimTime DataTransfer() const { return waits.Get(WaitCat::kData); }
  SimTime LockTime() const { return waits.Get(WaitCat::kLock); }
  SimTime BarrierTime() const { return waits.Get(WaitCat::kBarrier); }
  SimTime GcTime() const { return waits.Get(WaitCat::kGc) + cpu_busy.Get(BusyCat::kGc); }
  SimTime ProtocolOverhead() const {
    return cpu_busy.Total() - cpu_busy.Get(BusyCat::kCompute) - cpu_busy.Get(BusyCat::kGc);
  }
};

struct RunReport {
  SimTime total_time = 0;
  int64_t app_memory_bytes = 0;
  std::vector<NodeReport> nodes;
  // Phase snapshots: (phase, node) -> cumulative report at the snapshot.
  std::map<std::pair<int, NodeId>, NodeReport> phases;

  NodeReport Average() const;
  NodeReport Totals() const;
};

class System {
 public:
  using Program = std::function<Task<void>(NodeContext&)>;

  explicit System(const SimConfig& config);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  const SimConfig& config() const { return config_; }
  SharedSpace& space() { return *space_; }
  Engine& engine() { return *engine_; }
  Network& network() { return *network_; }
  // Non-null when config.fault is active (injected-fault counters).
  const FaultInjector* fault_injector() const { return fault_.get(); }

  // Enables structured protocol tracing (see src/trace). Must be called
  // before Run. Returns the log for inspection/dumping after the run.
  TraceLog* EnableTracing(size_t capacity = 1 << 20);
  TraceLog* trace() { return trace_.get(); }

  // Enables the metrics layer (src/metrics): per-node latency histograms in
  // the protocol and network, the per-page heat profile, and a sampler that
  // snapshots gauge series every `sample_interval` of simulated time. Must
  // be called before Run. Recording is pure observation — enabling metrics
  // does not change a single simulated timestamp (tested by
  // test_golden_determinism). Returns the bundle for export/inspection.
  Metrics* EnableMetrics(SimTime sample_interval = Millis(1));
  Metrics* metrics() { return metrics_.get(); }
  const Metrics* metrics() const { return metrics_.get(); }

  // Enables causal span tracing (src/tracing): per-operation cross-node
  // lifecycles — page faults, lock-acquire chains, barrier epochs, retransmit
  // sub-spans — recorded as a span DAG for critical-path attribution
  // (tools/svmtrace). Must be called before Run. Pure observation: enabling
  // spans does not change a single simulated timestamp (tested by
  // test_golden_determinism).
  SpanTracer* EnableSpans(size_t capacity = 1 << 16);
  SpanTracer* spans() { return spans_.get(); }
  const SpanTracer* spans() const { return spans_.get(); }

  // Registers an observer notified of every access made through
  // NodeContext::LoadWord / StoreWord (consistency checking; src/check).
  // Pass nullptr to remove. The observer must outlive Run.
  void SetAccessObserver(AccessObserver* observer) { observer_ = observer; }

  // Registers a workload observer notified of allocations, access grants,
  // synchronization and compute charges (trace recording; src/wkld). Must be
  // installed before App::Setup so it sees the allocations. Pass nullptr to
  // remove. The observer must outlive Run. Pure observation: installing one
  // does not change a single simulated timestamp.
  void SetWorkloadObserver(WorkloadObserver* observer);
  WorkloadObserver* workload_observer() const { return wobserver_; }

  // Installs a coverage observer on every protocol node and the network
  // (src/common/coverage.h): protocol-state coverage points for the fuzzer's
  // feedback signal and the run-summary coverage export. Must be called
  // before Run. Pure observation; pass nullptr to remove. The observer must
  // outlive Run.
  void SetCoverageObserver(CoverageObserver* cov);

  // Runs `program` on every node to completion. Aborts with a diagnostic if
  // the allocations outgrew the shared space, or if the programs deadlock
  // (event queue drained with unfinished programs).
  void Run(const Program& program);

  const RunReport& report() const { return report_; }

  // Direct access to one node's copy of the space (post-run verification).
  std::byte* NodeMemory(NodeId node, GlobalAddr addr);

 private:
  friend class NodeContext;

  struct Node {
    std::unique_ptr<Processor> cpu;
    std::unique_ptr<Processor> cop;
    std::unique_ptr<PageTable> pages;
    std::unique_ptr<ProtocolNode> proto;
    std::unique_ptr<NodeContext> ctx;
    bool done = false;
    SimTime finish_time = 0;
  };

  NodeReport SnapshotNode(NodeId n) const;

  SimConfig config_;
  std::unique_ptr<TraceLog> trace_;
  std::unique_ptr<Metrics> metrics_;
  std::unique_ptr<SpanTracer> spans_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<FaultInjector> fault_;  // Outlives network_ (installed as its hook).
  std::unique_ptr<Network> network_;
  std::unique_ptr<SharedSpace> space_;
  std::vector<Node> nodes_;
  RunReport report_;
  AccessObserver* observer_ = nullptr;
  WorkloadObserver* wobserver_ = nullptr;
  bool ran_ = false;
};

}  // namespace hlrc

#endif  // SRC_SVM_SYSTEM_H_
