// svmsim — command-line driver for the HLRC shared-virtual-memory simulator.
//
// Runs one benchmark application under one protocol and prints the full
// paper-style report: time breakdown, operation counts, traffic, protocol
// memory, and optionally a Chrome trace. `svmsim --help` lists the flags
// (declared in tools/tool_flags.cc).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "src/common/table.h"
#include "src/fuzz/coverage.h"
#include "src/metrics/sampler.h"
#include "src/svm/run_summary.h"
#include "src/tracing/span.h"
#include "src/wkld/recorder.h"
#include "src/wkld/trace_file.h"
#include "tools/tool_flags.h"

namespace hlrc {
namespace {

// Peak resident set size of this process, in bytes (0 when unavailable).
int64_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) {
    return 0;
  }
#if defined(__APPLE__)
  return static_cast<int64_t>(ru.ru_maxrss);  // Bytes on macOS.
#else
  return static_cast<int64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux.
#endif
#else
  return 0;
#endif
}

int Main(int argc, char** argv) {
  SimOptions o;
  FlagTable flags(kSimTool);
  AddSimFlags(&flags, &o);
  flags.ParseOrExit(argc, argv);
  SimRun run;
  if (const std::string why = PrepareSimRun(o, &run); !why.empty()) {
    std::fprintf(stderr, "svmsim: %s\n", why.c_str());
    return 2;
  }
  const SimConfig& cfg = run.cfg;
  App* app = run.app.get();
  System sys(cfg);
  TraceLog* trace = o.trace_path.empty() ? nullptr : sys.EnableTracing();
  // Metrics ride along whenever a run summary is requested, and also when a
  // trace is: the Perfetto counter tracks come from the sampler. Causal spans
  // ride along too — they feed the run summary's "spans" section (svmtrace)
  // and the execution trace's flow events.
  Metrics* metrics = (o.metrics_path.empty() && o.trace_path.empty())
                         ? nullptr
                         : sys.EnableMetrics(Micros(o.sample_interval_us));
  if (metrics != nullptr) {
    // 256K spans covers the paper apps at 8 nodes; beyond that the tracer
    // drops monotonically (newest first), which keeps the DAG closed.
    sys.EnableSpans(1 << 18);
  }
  // Workload recording attaches before Setup so the allocation table is
  // captured. Pure observation: the recorded run's timing is unchanged.
  // Coverage observation, like metrics, attaches before the run and never
  // charges simulated time.
  std::unique_ptr<fuzz::CoverageMap> coverage;
  if (o.coverage) {
    coverage = std::make_unique<fuzz::CoverageMap>(
        static_cast<uint64_t>(cfg.protocol.kind) + 1);
    sys.SetCoverageObserver(coverage.get());
  }
  std::unique_ptr<wkld::TraceWriter> trace_writer;
  std::unique_ptr<wkld::TraceRecorder> recorder;
  if (!o.record_trace_path.empty()) {
    const std::string meta = std::string("protocol=") + ProtocolName(cfg.protocol.kind) +
                             " seed=" + std::to_string(cfg.seed);
    trace_writer = std::make_unique<wkld::TraceWriter>(
        o.record_trace_path, wkld::MakeTraceInfo(cfg, app->name(), meta));
    recorder = std::make_unique<wkld::TraceRecorder>(&sys, trace_writer.get());
    sys.SetWorkloadObserver(recorder.get());
  }
  app->Setup(sys);
  const auto wall_start = std::chrono::steady_clock::now();
  sys.Run(app->Program());
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  if (trace_writer != nullptr) {
    trace_writer->Finish();
    std::printf("workload trace written to %s\n", o.record_trace_path.c_str());
  }

  std::string why;
  const bool verified = !o.verify || app->Verify(sys, &why);

  const RunReport& report = sys.report();
  const NodeReport avg = report.Average();
  const NodeReport totals = report.Totals();

  std::printf("%s under %s on %d nodes (%s scale, %lld B pages, %s homes)\n",
              app->name().c_str(), ProtocolName(cfg.protocol.kind), cfg.nodes,
              NameOf(kAppScaleNames, o.scale), static_cast<long long>(cfg.page_size),
              HomePolicyName(cfg.protocol.home_policy));
  char app_seed_str[32] = "builtin";  // No --seed: apps keep their fixed inputs.
  if (o.seed_given) {
    std::snprintf(app_seed_str, sizeof(app_seed_str), "%llu",
                  static_cast<unsigned long long>(run.app_seed));
  }
  std::printf("seed: %llu%s (app=%s, fault=%llu)\n",
              static_cast<unsigned long long>(cfg.seed), o.seed_given ? "" : " [default]",
              app_seed_str, static_cast<unsigned long long>(cfg.fault.seed));
  if (cfg.fault.Active()) {
    std::printf("faults: %s\n", FaultPlanSummary(cfg.fault).c_str());
  }
  if (cfg.reliability.enabled) {
    std::printf("reliable delivery: timeout=%lldus backoff=%.1f max-retries=%d\n",
                static_cast<long long>(cfg.reliability.retry_timeout / 1000),
                cfg.reliability.retry_backoff, cfg.reliability.max_retries);
  }
  if (o.coalesce || cfg.protocol.barrier_arity >= 2) {
    std::printf("wire plane: coalesce=%s piggyback=%s barrier-arity=%d\n",
                o.coalesce ? "on" : "off",
                cfg.reliability.piggyback_acks ? "on" : "off", cfg.protocol.barrier_arity);
  }
  std::printf("verification: %s%s\n\n", verified ? "OK" : "FAILED ",
              verified ? "" : why.c_str());

  Table summary("Run summary");
  summary.SetHeader({"Metric", "Value"});
  summary.AddRow({"Virtual time", Table::Fmt(ToSeconds(report.total_time), 3) + " s"});
  summary.AddRow({"Computation (avg/node)", Table::Fmt(ToSeconds(avg.Computation()), 3) + " s"});
  summary.AddRow({"Data transfer wait (avg)", Table::Fmt(ToSeconds(avg.DataTransfer()), 3) + " s"});
  summary.AddRow({"Lock wait (avg)", Table::Fmt(ToSeconds(avg.LockTime()), 3) + " s"});
  summary.AddRow({"Barrier wait (avg)", Table::Fmt(ToSeconds(avg.BarrierTime()), 3) + " s"});
  summary.AddRow({"GC time (avg)", Table::Fmt(ToSeconds(avg.GcTime()), 3) + " s"});
  summary.AddRow({"Protocol overhead (avg)",
                  Table::Fmt(ToSeconds(avg.ProtocolOverhead()), 3) + " s"});
  summary.AddSeparator();
  summary.AddRow({"Messages", Table::Fmt(totals.traffic.msgs_sent)});
  summary.AddRow({"Update traffic", Table::FmtBytes(totals.traffic.update_bytes_sent)});
  summary.AddRow({"Protocol traffic", Table::FmtBytes(totals.traffic.protocol_bytes_sent)});
  if (cfg.reliability.enabled || cfg.fault.Active()) {
    summary.AddRow({"Retransmissions", Table::Fmt(totals.traffic.msgs_retransmitted)});
    summary.AddRow({"Dropped in net", Table::Fmt(totals.traffic.msgs_dropped_in_net)});
    summary.AddRow({"Duplicates dropped", Table::Fmt(totals.traffic.msgs_duplicated_dropped)});
    summary.AddRow({"Acks", Table::Fmt(totals.traffic.acks_sent)});
  }
  if (o.coalesce || cfg.protocol.barrier_arity >= 2) {
    summary.AddRow({"Coalesced frames", Table::Fmt(totals.traffic.frames_coalesced)});
    summary.AddRow({"Messages coalesced", Table::Fmt(totals.traffic.msgs_coalesced)});
    summary.AddRow({"Acks piggybacked", Table::Fmt(totals.traffic.acks_piggybacked)});
    summary.AddRow({"Page replies combined", Table::Fmt(totals.proto.page_replies_combined)});
  }
  summary.AddSeparator();
  summary.AddRow({"Read misses (avg/node)", Table::Fmt(avg.proto.read_misses)});
  summary.AddRow({"Page fetches (avg/node)", Table::Fmt(avg.proto.page_fetches)});
  summary.AddRow({"Diffs created (avg/node)", Table::Fmt(avg.proto.diffs_created)});
  summary.AddRow({"Diffs applied (avg/node)", Table::Fmt(avg.proto.diffs_applied)});
  summary.AddRow({"Lock acquires (avg/node)", Table::Fmt(avg.proto.lock_acquires)});
  summary.AddRow({"Barriers (avg/node)", Table::Fmt(avg.proto.barriers)});
  summary.AddRow({"GC runs", Table::Fmt(totals.proto.gc_runs)});
  int64_t max_proto_mem = 0;
  for (const NodeReport& n : report.nodes) {
    max_proto_mem = std::max(max_proto_mem, n.proto_mem_highwater);
  }
  summary.AddRow({"Protocol memory (avg/node)", Table::FmtBytes(avg.proto_mem_highwater)});
  summary.AddRow({"Protocol memory (max/node)", Table::FmtBytes(max_proto_mem)});
  summary.AddRow({"App memory", Table::FmtBytes(report.app_memory_bytes)});
  summary.Print();

  if (o.per_node) {
    std::printf("\n");
    Table per("Per-node breakdown");
    per.SetHeader({"Node", "Finish(s)", "Compute(s)", "Data(s)", "Lock(s)", "Barrier(s)",
                   "Proto(s)"});
    for (size_t n = 0; n < report.nodes.size(); ++n) {
      const NodeReport& r = report.nodes[n];
      per.AddRow({Table::Fmt(static_cast<int64_t>(n)), Table::Fmt(ToSeconds(r.finish_time), 3),
                  Table::Fmt(ToSeconds(r.Computation()), 3),
                  Table::Fmt(ToSeconds(r.DataTransfer()), 3),
                  Table::Fmt(ToSeconds(r.LockTime()), 3),
                  Table::Fmt(ToSeconds(r.BarrierTime()), 3),
                  Table::Fmt(ToSeconds(r.ProtocolOverhead()), 3)});
    }
    per.Print();
  }

  if (trace != nullptr) {
    // Splice the sampler's counter tracks and the span slices/flow arrows
    // into the execution trace.
    std::string extra = ChromeCounterEvents(metrics->sampler());
    if (sys.spans() != nullptr) {
      const std::string span_events = ChromeSpanEvents(*sys.spans());
      if (!span_events.empty()) {
        if (!extra.empty()) {
          extra += ",\n";
        }
        extra += span_events;
      }
    }
    trace->DumpChromeJson(o.trace_path, extra);
    std::printf("\nexecution trace written to %s (%lld events, %lld dropped)\n",
                o.trace_path.c_str(), static_cast<long long>(trace->recorded()),
                static_cast<long long>(trace->dropped()));
  }
  if (coverage != nullptr) {
    std::printf("\nprotocol-state coverage (%s):\n%s", ProtocolName(cfg.protocol.kind),
                coverage->Report().c_str());
  }
  if (!o.metrics_path.empty()) {
    RunSummaryMeta meta;
    meta.app = app->name();
    meta.scale = NameOf(kAppScaleNames, o.scale);
    meta.verified = verified;
    if (coverage != nullptr) {
      meta.coverage.enabled = true;
      meta.coverage.points = static_cast<int64_t>(coverage->points());
      meta.coverage.hits = coverage->hits();
      for (int d = 0; d < CoverageObserver::kDomains; ++d) {
        meta.coverage.domain_points[static_cast<size_t>(d)] = static_cast<int64_t>(
            coverage->DomainPoints(static_cast<CoverageObserver::Domain>(d)));
      }
    }
    std::string err;
    if (!WriteRunSummaryJson(o.metrics_path, sys, meta, &err)) {
      std::fprintf(stderr, "metrics: %s\n", err.c_str());
      return 1;
    }
    std::printf("run summary written to %s (inspect with svmprof / svmtrace)\n",
                o.metrics_path.c_str());
  }
  if (o.verbose) {
    const int64_t events = sys.engine().events_processed();
    const double rate = wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0.0;
    std::printf("\nwall clock: %.3f s, %lld events (%.2fM events/s), peak RSS %.1f MiB\n",
                wall_seconds, static_cast<long long>(events), rate / 1e6,
                static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0));
  }
  return verified ? 0 : 1;
}

}  // namespace
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::Main(argc, argv); }
