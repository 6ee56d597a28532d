// perf_wallclock — host wall-clock benchmarks for the simulator fast path
// (docs/PERFORMANCE.md).
//
// Unlike the table/figure binaries (which measure *virtual* time inside the
// simulated machine), this one measures how fast the simulator itself runs:
//
//   * engine        — events/sec through the slab event engine, against an
//                     in-binary replica of the original binary-heap +
//                     std::function + unordered_map engine;
//   * diff_create   — pages/sec through CreateDiff for clean, sparse, dense
//                     and fully-dirty pages, against CreateDiffReference
//                     (the original word-at-a-time scan, kept as the oracle);
//   * diff_apply    — pages/sec through ApplyDiff;
//   * pack_intervals / apply_intervals
//                   — packs/sec and batches/sec through the shared interval
//                     log, against an in-binary replica of the original
//                     std::map<IntervalKey, IntervalRecord> store that
//                     deep-copied every record into every payload;
//   * end_to_end    — wall seconds and events/sec for whole svmsim-style
//                     application runs.
//   * coalesce      — physical-frame counts for HLRC runs on a reliable
//                     fabric with the coalesced wire plane off vs. on
//                     (--coalesce --barrier-arity=4 in svmsim terms).
//
//   perf_wallclock [--quick] [--json=FILE]
//
// --quick shrinks the iteration counts for CI smoke runs; --json writes the
// results in the hlrc-bench v1 schema (see BENCH_PR4.json and BENCH_PR9.json
// at the repo root for the checked-in reference numbers).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/app.h"
#include "src/common/check.h"
#include "src/common/cli.h"
#include "src/common/rng.h"
#include "src/mem/diff.h"
#include "src/proto/interval_log.h"
#include "src/sim/engine.h"
#include "src/svm/system.h"

namespace hlrc {
namespace bench {
namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Engine microbenchmark.
//
// BaselineEngine replicates the pre-slab engine exactly: a binary
// priority_queue of (time, tiebreak, id) entries next to an
// unordered_map<id, std::function> of pending callbacks. Keeping the replica
// in this binary makes the speedup self-measuring on any machine instead of
// depending on a stored number from some other host.
class BaselineEngine {
 public:
  using EventId = uint64_t;

  SimTime Now() const { return now_; }

  EventId Schedule(SimTime delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  EventId ScheduleAt(SimTime t, std::function<void()> fn) {
    const EventId id = next_id_++;
    pending_.emplace(id, std::move(fn));
    queue_.push(QEntry{t, 0, id});
    return id;
  }

  void Cancel(EventId id) { pending_.erase(id); }

  bool Step() {
    while (!queue_.empty()) {
      const QEntry top = queue_.top();
      queue_.pop();
      auto it = pending_.find(top.id);
      if (it == pending_.end()) {
        continue;
      }
      now_ = top.time;
      std::function<void()> fn = std::move(it->second);
      pending_.erase(it);
      ++events_processed_;
      fn();
      return true;
    }
    return false;
  }

  void Run() {
    while (Step()) {
    }
  }

  int64_t events_processed() const { return events_processed_; }

 private:
  struct QEntry {
    SimTime time;
    uint64_t tiebreak;
    EventId id;
    bool operator>(const QEntry& o) const {
      if (time != o.time) {
        return time > o.time;
      }
      if (tiebreak != o.tiebreak) {
        return tiebreak > o.tiebreak;
      }
      return id > o.id;
    }
  };

  SimTime now_ = 0;
  EventId next_id_ = 1;
  int64_t events_processed_ = 0;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<QEntry>> queue_;
  std::unordered_map<EventId, std::function<void()>> pending_;
};

// Self-rescheduling timer churn with a steady-state pending set and a cancel
// every 8th firing — the schedule/fire/cancel mix a protocol run produces.
// The callbacks capture 24 bytes (an object pointer plus message metadata),
// matching the simulator's hot handlers: network delivery captures
// [this, shared_ptr<WireFrame>] and processor service completion captures a
// whole Service record. Captures past 16 bytes are exactly what the original
// engine's std::function heap-allocated on every Schedule.
//
// Each step is one precomputed schedule decision: the delay of the next
// event and a payload word its callback consumes. Drawing these outside the
// timed region keeps Rng arithmetic out of the measurement and guarantees
// both engines replay the identical workload.
struct ChurnStep {
  SimTime delay;
  uint64_t payload;
};

std::vector<ChurnStep> MakeChurnPlan(int64_t target, uint64_t seed) {
  Rng rng(seed);
  std::vector<ChurnStep> plan(static_cast<size_t>(target));
  for (ChurnStep& s : plan) {
    // Nanosecond-resolution delays up to 150us, like the simulated network's
    // latencies — equal-time ties are rare, as in production schedules.
    s.delay = static_cast<SimTime>(rng.NextBounded(Micros(150)));
    s.payload = rng.NextU64();
  }
  return plan;
}

template <typename E>
struct ChurnLoad {
  E eng;
  const std::vector<ChurnStep>& plan;
  int64_t remaining;
  uint64_t sink = 0;

  explicit ChurnLoad(const std::vector<ChurnStep>& p)
      : plan(p), remaining(static_cast<int64_t>(p.size())) {}

  void Spawn() {
    if (remaining <= 0) {
      return;
    }
    --remaining;
    const ChurnStep step = plan[static_cast<size_t>(remaining)];
    eng.Schedule(step.delay, [this, step] {
      sink += step.payload ^ static_cast<uint64_t>(step.delay);
      if ((remaining & 7) == 0) {
        const auto victim = eng.Schedule(5, [] {});
        eng.Cancel(victim);
      }
      Spawn();
    });
  }
};

template <typename E>
double RunChurn(const std::vector<ChurnStep>& plan, int64_t* processed) {
  ChurnLoad<E> load(plan);
  // Steady-state pending set sized like a real run: a machine of a few dozen
  // nodes keeps hundreds of timers and in-flight messages scheduled at once.
  constexpr int kTimers = 512;
  for (int i = 0; i < kTimers && load.remaining > 0; ++i) {
    load.Spawn();
  }
  const auto start = std::chrono::steady_clock::now();
  load.eng.Run();
  const double wall = Seconds(start);
  *processed = load.eng.events_processed();
  return wall;
}

// The reliable-delivery pattern from the interconnect: every frame schedules a
// delivery event AND a retransmit timeout, and the delivery handler cancels
// the timeout — one Cancel per fired event. This is the production mix of
// Processor::Preempt and ReliableChannel, and it is where slot recycling pays
// most: the original engine's Cancel was a hash erase whose std::function heap
// block was freed under the lock-step of the run loop, while the slab engine's
// Cancel is a generation bump plus a free-list push.
struct TimeoutStep {
  SimTime delay;   // Delivery latency.
  SimTime margin;  // Extra time before the retransmit timeout would fire.
  uint64_t payload;
};

std::vector<TimeoutStep> MakeTimeoutPlan(int64_t target, uint64_t seed) {
  Rng rng(seed);
  std::vector<TimeoutStep> plan(static_cast<size_t>(target));
  for (TimeoutStep& s : plan) {
    s.delay = static_cast<SimTime>(rng.NextBounded(Micros(150)));
    s.margin = Micros(50) + static_cast<SimTime>(rng.NextBounded(Micros(100)));
    s.payload = rng.NextU64();
  }
  return plan;
}

template <typename E>
struct TimeoutLoad {
  E eng;
  const std::vector<TimeoutStep>& plan;
  int64_t remaining;
  uint64_t sink = 0;

  explicit TimeoutLoad(const std::vector<TimeoutStep>& p)
      : plan(p), remaining(static_cast<int64_t>(p.size())) {}

  void Spawn() {
    if (remaining <= 0) {
      return;
    }
    --remaining;
    const TimeoutStep step = plan[static_cast<size_t>(remaining)];
    // Timeout margin > 0, so delivery always fires first and cancels it; the
    // timeout body only runs if cancellation is broken.
    const auto timeout = eng.Schedule(
        step.delay + step.margin,
        [this, p = step.payload, d = step.delay] { sink += p * 3 + static_cast<uint64_t>(d); });
    eng.Schedule(step.delay, [this, timeout, p = step.payload] {
      sink += p;
      eng.Cancel(timeout);
      Spawn();
    });
  }
};

template <typename E>
double RunTimeout(const std::vector<TimeoutStep>& plan, int64_t* processed) {
  TimeoutLoad<E> load(plan);
  constexpr int kFrames = 256;  // ~512 pending entries, like the churn case.
  for (int i = 0; i < kFrames && load.remaining > 0; ++i) {
    load.Spawn();
  }
  const auto start = std::chrono::steady_clock::now();
  load.eng.Run();
  const double wall = Seconds(start);
  *processed = load.eng.events_processed();
  return wall;
}

// Warm both allocators once, then take the best of three measured runs of
// each engine — min-of-N discards scheduler and frequency noise, which on a
// shared machine easily exceeds the per-run spread.
void MeasureEngineCase(const char* name, const std::function<void()>& warm,
                       const std::function<double(int64_t*)>& run_base,
                       const std::function<double(int64_t*)>& run_slab, BenchJson* json) {
  warm();
  int64_t base_events = 0;
  int64_t slab_events = 0;
  double base_s = 1e100;
  double slab_s = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    base_s = std::min(base_s, run_base(&base_events));
    slab_s = std::min(slab_s, run_slab(&slab_events));
  }
  HLRC_CHECK_MSG(base_events == slab_events,
                 "engine %s diverged: baseline fired %lld, slab fired %lld", name,
                 static_cast<long long>(base_events), static_cast<long long>(slab_events));
  const double base_eps = static_cast<double>(base_events) / base_s;
  const double slab_eps = static_cast<double>(slab_events) / slab_s;
  const double speedup = slab_eps / base_eps;
  std::printf("engine      %-10s %7.2fM ev/s  (baseline %7.2fM ev/s, %.2fx)\n", name,
              slab_eps / 1e6, base_eps / 1e6, speedup);
  json->BeginRow();
  json->Add("component", "engine");
  json->Add("case", name);
  json->Add("events", base_events);
  json->Add("baseline_s", base_s);
  json->Add("optimized_s", slab_s);
  json->Add("baseline_events_per_sec", base_eps);
  json->Add("optimized_events_per_sec", slab_eps);
  json->Add("speedup", speedup);
  json->EndRow();
}

void BenchEngine(bool quick, BenchJson* json) {
  const int64_t target = quick ? 300'000 : 3'000'000;
  {
    const std::vector<ChurnStep> plan = MakeChurnPlan(target, 0x9e3779b97f4a7c15ULL);
    const std::vector<ChurnStep> warm = MakeChurnPlan(target / 10, 17);
    MeasureEngineCase(
        "churn",
        [&] {
          int64_t scratch = 0;
          RunChurn<BaselineEngine>(warm, &scratch);
          RunChurn<Engine>(warm, &scratch);
        },
        [&](int64_t* n) { return RunChurn<BaselineEngine>(plan, n); },
        [&](int64_t* n) { return RunChurn<Engine>(plan, n); }, json);
  }
  {
    // Each delivery costs a schedule+cancel pair on top of its own
    // schedule/fire, so half the fired-event target gives a similar runtime.
    const std::vector<TimeoutStep> plan = MakeTimeoutPlan(target / 2, 0x51ed2701u);
    const std::vector<TimeoutStep> warm = MakeTimeoutPlan(target / 20, 29);
    MeasureEngineCase(
        "timeout",
        [&] {
          int64_t scratch = 0;
          RunTimeout<BaselineEngine>(warm, &scratch);
          RunTimeout<Engine>(warm, &scratch);
        },
        [&](int64_t* n) { return RunTimeout<BaselineEngine>(plan, n); },
        [&](int64_t* n) { return RunTimeout<Engine>(plan, n); }, json);
  }
}

// ---------------------------------------------------------------------------
// Diff data-plane benchmark.

struct DiffCase {
  const char* name;
  double dirty_frac;  // Fraction of words rewritten in `current`.
  int word_bytes;
};

void BenchDiff(bool quick, BenchJson* json) {
  constexpr int64_t kPage = 4096;
  const DiffCase cases[] = {
      {"clean", 0.0, 8},
      {"sparse", 0.01, 8},
      {"dense", 0.5, 8},
      {"full", 1.0, 4},
  };
  std::vector<std::byte> twin(kPage);
  std::vector<std::byte> current(kPage);
  std::vector<std::byte> target(kPage);
  for (const DiffCase& c : cases) {
    Rng rng(0x8ae6'1234 + static_cast<uint64_t>(c.word_bytes));
    for (int64_t i = 0; i < kPage; ++i) {
      twin[static_cast<size_t>(i)] = static_cast<std::byte>(rng.NextU64());
    }
    current = twin;
    const int64_t words = kPage / c.word_bytes;
    const int64_t dirty = static_cast<int64_t>(static_cast<double>(words) * c.dirty_frac);
    for (int64_t i = 0; i < dirty; ++i) {
      const int64_t w = static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(words)));
      current[static_cast<size_t>(w * c.word_bytes)] ^= std::byte{0xff};
    }

    const int64_t iters = quick ? 20'000 : 200'000;
    int64_t sink = 0;
    auto start = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < iters; ++i) {
      const Diff d = CreateDiff(1, twin.data(), current.data(), kPage, c.word_bytes);
      sink += static_cast<int64_t>(d.runs.size()) + d.DataBytes();
    }
    const double fast_s = Seconds(start);
    start = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < iters; ++i) {
      const Diff d = CreateDiffReference(1, twin.data(), current.data(), kPage, c.word_bytes);
      sink -= static_cast<int64_t>(d.runs.size()) + d.DataBytes();
    }
    const double ref_s = Seconds(start);
    HLRC_CHECK_MSG(sink == 0, "optimized and reference diffs disagree on %s", c.name);

    const double fast_pps = static_cast<double>(iters) / fast_s;
    const double ref_pps = static_cast<double>(iters) / ref_s;
    const double speedup = fast_pps / ref_pps;
    std::printf("diff_create %-10s %7.2fK pages/s (baseline %7.2fK pages/s, %.2fx, word=%d)\n",
                c.name, fast_pps / 1e3, ref_pps / 1e3, speedup, c.word_bytes);
    json->BeginRow();
    json->Add("component", "diff_create");
    json->Add("case", c.name);
    json->Add("word_bytes", c.word_bytes);
    json->Add("page_bytes", kPage);
    json->Add("pages", iters);
    json->Add("baseline_s", ref_s);
    json->Add("optimized_s", fast_s);
    json->Add("baseline_pages_per_sec", ref_pps);
    json->Add("optimized_pages_per_sec", fast_pps);
    json->Add("speedup", speedup);
    json->EndRow();

    if (std::strcmp(c.name, "dense") == 0) {
      const Diff d = CreateDiff(1, twin.data(), current.data(), kPage, c.word_bytes);
      target = twin;
      const int64_t apply_iters = iters;
      start = std::chrono::steady_clock::now();
      for (int64_t i = 0; i < apply_iters; ++i) {
        ApplyDiff(d, target.data(), kPage);
      }
      const double apply_s = Seconds(start);
      HLRC_CHECK(std::memcmp(target.data(), current.data(), kPage) == 0);
      const double apply_pps = static_cast<double>(apply_iters) / apply_s;
      std::printf("diff_apply  %-10s %7.2fK pages/s\n", c.name, apply_pps / 1e3);
      json->BeginRow();
      json->Add("component", "diff_apply");
      json->Add("case", c.name);
      json->Add("word_bytes", c.word_bytes);
      json->Add("page_bytes", kPage);
      json->Add("pages", apply_iters);
      json->Add("pages_per_sec", apply_pps);
      json->EndRow();
    }
  }
}

// ---------------------------------------------------------------------------
// Interval metadata-plane benchmark (docs/PERFORMANCE.md, metadata fast
// path).
//
// BaselineIntervalStore replicates the pre-log representation exactly: one
// std::map<IntervalKey, IntervalRecord> per node, with PackFor walking the
// whole map and deep-copying every unseen record into the outgoing payload
// (what lock grants and barrier releases used to carry) and ApplyBatch
// deep-copying every received record back into the map. The shipped
// IntervalLog packs shared handles off per-writer sorted tails instead, so an
// N-receiver fan-out shares one record N ways.

struct IntervalWorkload {
  int writers = 0;
  std::vector<IntervalRecord> records;    // Writer-major, id-ascending.
  IntervalBatch handles;                  // Sealed shared twins of `records`.
  std::vector<VectorClock> receiver_vts;  // Lagged receivers to pack for.
};

// A barrier-epoch's worth of metadata on a mid-size machine: every writer has
// closed a couple dozen intervals of 6–16 write notices, and every other node
// is a receiver that has seen a random prefix of each writer's log (the state
// lock hand-offs leave behind).
IntervalWorkload MakeIntervalWorkload(uint64_t seed) {
  constexpr int kWriters = 32;
  constexpr uint32_t kIntervalsPerWriter = 24;
  IntervalWorkload w;
  w.writers = kWriters;
  Rng rng(seed);
  for (NodeId writer = 0; writer < kWriters; ++writer) {
    VectorClock vt(kWriters);
    for (uint32_t id = 1; id <= kIntervalsPerWriter; ++id) {
      IntervalRecord rec;
      rec.writer = writer;
      rec.id = id;
      vt.Set(writer, id);
      // Observed progress of other writers advances loosely, as it does under
      // lock hand-offs.
      for (NodeId other = 0; other < kWriters; ++other) {
        if (other != writer && (rng.NextU64() & 3) == 0 &&
            vt.Get(other) < kIntervalsPerWriter) {
          vt.Set(other, vt.Get(other) + 1);
        }
      }
      rec.vt = vt;
      const int64_t pages = rng.NextInt(6, 16);
      for (int64_t i = 0; i < pages; ++i) {
        rec.pages.push_back(static_cast<PageId>(rng.NextBounded(4096)));
      }
      rec.Seal();
      w.records.push_back(rec);
      w.handles.push_back(std::make_shared<IntervalRecord>(std::move(rec)));
    }
  }
  for (int r = 1; r < kWriters; ++r) {
    VectorClock vt(kWriters);
    for (NodeId n = 0; n < kWriters; ++n) {
      vt.Set(n, static_cast<uint32_t>(rng.NextBounded(kIntervalsPerWriter + 1)));
    }
    w.receiver_vts.push_back(vt);
  }
  return w;
}

class BaselineIntervalStore {
 public:
  explicit BaselineIntervalStore(int nodes) : vt_(nodes) {}

  // Mirrors the old HlrcProtocol::ApplyIntervals bookkeeping.
  void ApplyBatch(const std::vector<IntervalRecord>& recs) {
    for (const IntervalRecord& rec : recs) {
      if (rec.id <= vt_.Get(rec.writer)) {
        continue;
      }
      intervals_[IntervalKey{rec.writer, rec.id}] = rec;  // Deep copy.
      vt_.Set(rec.writer, rec.id);
    }
  }

  // Mirrors the old HlrcProtocol::PackIntervalsFor: full-map walk, one deep
  // copy per unseen record.
  std::vector<IntervalRecord> PackFor(const VectorClock& vt) const {
    std::vector<IntervalRecord> out;
    for (const auto& [key, rec] : intervals_) {
      if (key.id > vt.Get(key.writer)) {
        out.push_back(rec);
      }
    }
    return out;
  }

  size_t size() const { return intervals_.size(); }

 private:
  VectorClock vt_;
  std::map<IntervalKey, IntervalRecord> intervals_;
};

class LogIntervalStore {
 public:
  explicit LogIntervalStore(int nodes) : vt_(nodes), log_(nodes) {}

  void ApplyBatch(const IntervalBatch& recs) {
    for (const IntervalPtr& rec : recs) {
      if (rec->id <= vt_.Get(rec->writer)) {
        continue;
      }
      log_.Append(rec);  // Shares the handle; no record copy.
      vt_.Set(rec->writer, rec->id);
    }
  }

  const IntervalLog& log() const { return log_; }

  size_t size() const { return static_cast<size_t>(log_.size()); }

 private:
  VectorClock vt_;
  IntervalLog log_;
};

void BenchIntervals(bool quick, BenchJson* json) {
  const IntervalWorkload w = MakeIntervalWorkload(0x1f7a'33d1);

  BaselineIntervalStore base(w.writers);
  base.ApplyBatch(w.records);
  LogIntervalStore opt(w.writers);
  opt.ApplyBatch(w.handles);
  HLRC_CHECK(base.size() == opt.size());

  // One untimed correctness pass: both representations must pack the same
  // interval sequence with the same encoded bytes for every receiver.
  int64_t check_bytes = 0;
  for (const VectorClock& vt : w.receiver_vts) {
    const std::vector<IntervalRecord> b = base.PackFor(vt);
    const IntervalBatch o = opt.log().PackFor(vt);
    HLRC_CHECK_MSG(b.size() == o.size(), "pack diverged: baseline %zu, log %zu", b.size(),
                   o.size());
    for (size_t i = 0; i < b.size(); ++i) {
      HLRC_CHECK(b[i].writer == o[i]->writer && b[i].id == o[i]->id);
      HLRC_CHECK(b[i].EncodedSize(true) == o[i]->EncodedSize(true));
      check_bytes += o[i]->EncodedSize(true);
    }
  }

  // pack_intervals: the barrier-release fan-out. Each iteration packs the
  // full log once per receiver and charges the encoded payload bytes, exactly
  // what SendBarrierReleases does per epoch.
  {
    const int64_t iters = quick ? 80 : 800;
    const int64_t packs = iters * static_cast<int64_t>(w.receiver_vts.size());
    auto run_base = [&](int64_t* bytes) {
      int64_t sum = 0;
      const auto start = std::chrono::steady_clock::now();
      for (int64_t i = 0; i < iters; ++i) {
        for (const VectorClock& vt : w.receiver_vts) {
          const std::vector<IntervalRecord> out = base.PackFor(vt);
          for (const IntervalRecord& rec : out) {
            sum += rec.EncodedSize(true);
          }
        }
      }
      const double wall = Seconds(start);
      *bytes = sum;
      return wall;
    };
    auto run_opt = [&](int64_t* bytes) {
      int64_t sum = 0;
      IntervalBatch out;
      const auto start = std::chrono::steady_clock::now();
      for (int64_t i = 0; i < iters; ++i) {
        for (const VectorClock& vt : w.receiver_vts) {
          out.clear();
          opt.log().PackInto(vt, &out);
          for (const IntervalPtr& rec : out) {
            sum += rec->EncodedSize(true);
          }
        }
      }
      const double wall = Seconds(start);
      *bytes = sum;
      return wall;
    };
    int64_t base_bytes = 0;
    int64_t opt_bytes = 0;
    run_base(&base_bytes);  // Warm.
    run_opt(&opt_bytes);
    double base_s = 1e100;
    double opt_s = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      base_s = std::min(base_s, run_base(&base_bytes));
      opt_s = std::min(opt_s, run_opt(&opt_bytes));
    }
    HLRC_CHECK(base_bytes == opt_bytes);
    HLRC_CHECK(base_bytes == check_bytes * iters);
    const double base_pps = static_cast<double>(packs) / base_s;
    const double opt_pps = static_cast<double>(packs) / opt_s;
    const double speedup = opt_pps / base_pps;
    std::printf(
        "pack_intervals %-7s %7.2fK packs/s (baseline %7.2fK packs/s, %.2fx)\n", "fanout",
        opt_pps / 1e3, base_pps / 1e3, speedup);
    json->BeginRow();
    json->Add("component", "pack_intervals");
    json->Add("case", "fanout");
    json->Add("writers", static_cast<int64_t>(w.writers));
    json->Add("records", static_cast<int64_t>(w.records.size()));
    json->Add("receivers", static_cast<int64_t>(w.receiver_vts.size()));
    json->Add("packs", packs);
    json->Add("payload_bytes", check_bytes);
    json->Add("baseline_s", base_s);
    json->Add("optimized_s", opt_s);
    json->Add("baseline_packs_per_sec", base_pps);
    json->Add("optimized_packs_per_sec", opt_pps);
    json->Add("speedup", speedup);
    json->EndRow();
  }

  // apply_intervals: receiving one whole epoch. Each iteration replays the
  // full batch into a fresh store, as a node does when a barrier release (or
  // the burst of grants after a lock convoy) lands after GC truncation.
  {
    const int64_t iters = quick ? 200 : 2000;
    auto run_base = [&](size_t* final_size) {
      const auto start = std::chrono::steady_clock::now();
      for (int64_t i = 0; i < iters; ++i) {
        BaselineIntervalStore store(w.writers);
        store.ApplyBatch(w.records);
        *final_size = store.size();
      }
      return Seconds(start);
    };
    auto run_opt = [&](size_t* final_size) {
      const auto start = std::chrono::steady_clock::now();
      for (int64_t i = 0; i < iters; ++i) {
        LogIntervalStore store(w.writers);
        store.ApplyBatch(w.handles);
        *final_size = store.size();
      }
      return Seconds(start);
    };
    size_t base_size = 0;
    size_t opt_size = 0;
    run_base(&base_size);  // Warm.
    run_opt(&opt_size);
    double base_s = 1e100;
    double opt_s = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      base_s = std::min(base_s, run_base(&base_size));
      opt_s = std::min(opt_s, run_opt(&opt_size));
    }
    HLRC_CHECK(base_size == opt_size && base_size == w.records.size());
    const double base_bps = static_cast<double>(iters) / base_s;
    const double opt_bps = static_cast<double>(iters) / opt_s;
    const double speedup = opt_bps / base_bps;
    std::printf(
        "apply_intervals %-6s %7.2fK batches/s (baseline %7.2fK batches/s, %.2fx)\n",
        "batch", opt_bps / 1e3, base_bps / 1e3, speedup);
    json->BeginRow();
    json->Add("component", "apply_intervals");
    json->Add("case", "batch");
    json->Add("writers", static_cast<int64_t>(w.writers));
    json->Add("records", static_cast<int64_t>(w.records.size()));
    json->Add("batches", iters);
    json->Add("baseline_s", base_s);
    json->Add("optimized_s", opt_s);
    json->Add("baseline_batches_per_sec", base_bps);
    json->Add("optimized_batches_per_sec", opt_bps);
    json->Add("speedup", speedup);
    json->EndRow();
  }
}

// ---------------------------------------------------------------------------
// End-to-end runs: the whole simulator (engine + protocol + diff plane).

void BenchEndToEnd(bool quick, BenchJson* json) {
  struct Run {
    const char* app;
    ProtocolKind proto;
    int nodes;
  };
  const Run runs[] = {
      {"sor", ProtocolKind::kHlrc, 8},
      {"lu", ProtocolKind::kLrc, 8},
  };
  const AppScale scale = quick ? AppScale::kTiny : AppScale::kDefault;
  for (const Run& r : runs) {
    SimConfig cfg;
    cfg.nodes = r.nodes;
    cfg.page_size = 4096;
    cfg.shared_bytes = 256ll << 20;
    cfg.protocol.kind = r.proto;
    auto app = MakeApp(r.app, scale);
    System sys(cfg);
    app->Setup(sys);
    const auto start = std::chrono::steady_clock::now();
    sys.Run(app->Program());
    const double wall = Seconds(start);
    std::string why;
    HLRC_CHECK_MSG(app->Verify(sys, &why), "%s failed verification: %s", r.app, why.c_str());
    const int64_t events = sys.engine().events_processed();
    const double eps = static_cast<double>(events) / wall;
    std::printf("end_to_end  %-10s %s/%d: %.3f s wall, %lld events (%.2fM ev/s)\n", r.app,
                ProtocolName(r.proto), r.nodes, wall, static_cast<long long>(events),
                eps / 1e6);
    json->BeginRow();
    json->Add("component", "end_to_end");
    json->Add("app", r.app);
    json->Add("protocol", ProtocolName(r.proto));
    json->Add("nodes", r.nodes);
    json->Add("scale", quick ? "tiny" : "default");
    json->Add("wall_s", wall);
    json->Add("events", events);
    json->Add("events_per_sec", eps);
    json->Add("virtual_s", ToSeconds(sys.report().total_time));
    json->EndRow();
  }
}

// ---------------------------------------------------------------------------
// Coalesced wire plane: physical frames with and without --coalesce
// --barrier-arity=4 on a reliable fabric. The interesting number is the frame
// cut — protocol messages repacked into multi-part bundles plus acks riding
// reverse-direction data — while the logical message count stays within the
// timing-drift noise (delayed acks shift fault timing slightly).

int64_t LogicalMsgs(const NodeReport& t) {
  int64_t n = 0;
  for (size_t i = 0; i < t.traffic.msgs_by_type.size(); ++i) {
    if (i == static_cast<size_t>(MsgType::kAck) ||
        i == static_cast<size_t>(MsgType::kBundle)) {
      continue;
    }
    n += t.traffic.msgs_by_type[i];
  }
  return n;
}

void BenchCoalesce(bool quick, BenchJson* json) {
  const std::vector<std::string> apps =
      quick ? std::vector<std::string>{"sor", "raytrace"}
            : std::vector<std::string>{"sor", "water-nsq", "water-sp", "raytrace"};
  constexpr int kNodes = 8;
  for (const std::string& app_name : apps) {
    auto run_once = [&](bool coalesce, NodeReport* totals, double* wall) {
      SimConfig cfg;
      cfg.nodes = kNodes;
      cfg.page_size = 4096;
      cfg.shared_bytes = 256ll << 20;
      cfg.protocol.kind = ProtocolKind::kHlrc;
      cfg.reliability.enabled = true;
      if (coalesce) {
        cfg.network.coalesce = true;
        cfg.protocol.coalesce = true;
        cfg.protocol.barrier_arity = 4;
        cfg.reliability.piggyback_acks = true;
      }
      auto app = MakeApp(app_name, AppScale::kDefault);
      System sys(cfg);
      app->Setup(sys);
      const auto start = std::chrono::steady_clock::now();
      sys.Run(app->Program());
      *wall = Seconds(start);
      std::string why;
      HLRC_CHECK_MSG(app->Verify(sys, &why), "%s failed verification: %s",
                     app_name.c_str(), why.c_str());
      *totals = sys.report().Totals();
    };
    NodeReport base;
    NodeReport co;
    double base_wall = 0;
    double co_wall = 0;
    run_once(false, &base, &base_wall);
    run_once(true, &co, &co_wall);
    const double cut = 1.0 - static_cast<double>(co.traffic.msgs_sent) /
                                 static_cast<double>(base.traffic.msgs_sent);
    std::printf(
        "coalesce    %-10s HLRC/%d: frames %lld -> %lld (%.1f%% cut), "
        "%lld acks piggybacked, %lld msgs packed into %lld bundles\n",
        app_name.c_str(), kNodes, static_cast<long long>(base.traffic.msgs_sent),
        static_cast<long long>(co.traffic.msgs_sent), 100.0 * cut,
        static_cast<long long>(co.traffic.acks_piggybacked),
        static_cast<long long>(co.traffic.msgs_coalesced),
        static_cast<long long>(co.traffic.frames_coalesced));
    json->BeginRow();
    json->Add("component", "coalesce");
    json->Add("app", app_name);
    json->Add("protocol", "HLRC");
    json->Add("nodes", kNodes);
    json->Add("frames_base", base.traffic.msgs_sent);
    json->Add("frames_coalesce", co.traffic.msgs_sent);
    json->Add("frame_cut", cut);
    json->Add("logical_base", LogicalMsgs(base));
    json->Add("logical_coalesce", LogicalMsgs(co));
    json->Add("acks_piggybacked", co.traffic.acks_piggybacked);
    json->Add("msgs_coalesced", co.traffic.msgs_coalesced);
    json->Add("frames_coalesced", co.traffic.frames_coalesced);
    json->Add("page_replies_combined", co.proto.page_replies_combined);
    json->Add("base_wall_s", base_wall);
    json->Add("coalesce_wall_s", co_wall);
    json->EndRow();
  }
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string json_out;
  FlagTable flags(ToolInfo{"perf_wallclock",
                           "Simulator fast-path throughput against in-binary baselines."});
  flags.Bool("--quick", &quick, "smaller problems (CI smoke)")
      .String("--json", "FILE", &json_out, "also write the results as hlrc-bench JSON");
  flags.ParseOrExit(argc, argv);

  std::printf("=== perf_wallclock: simulator fast-path throughput (%s) ===\n",
              quick ? "quick" : "full");
  BenchJson json("perf_wallclock");
  BenchEngine(quick, &json);
  BenchDiff(quick, &json);
  BenchIntervals(quick, &json);
  BenchEndToEnd(quick, &json);
  BenchCoalesce(quick, &json);
  if (!json_out.empty()) {
    json.WriteFile(json_out);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::bench::Main(argc, argv); }
