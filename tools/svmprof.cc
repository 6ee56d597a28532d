// svmprof — offline analyzer for svmsim run-summary JSON files.
//
// Reads the versioned "hlrc-run-summary" JSON that `svmsim --metrics-out=`
// writes (schema: docs/OBSERVABILITY.md) and renders it for humans: run
// configuration, per-phase time breakdown, latency percentile tables, the
// hottest shared pages, and the traffic totals. Every file is validated
// against the schema on load; a malformed or schema-violating file is a
// hard error so CI can use `svmprof --check` as a smoke gate.
//
//   svmprof run.json                  full report
//   svmprof run.json --top=40         widen the hot-page table
//   svmprof --check run.json          validate only (exit 0/1)
//   svmprof --diff a.json b.json      A/B comparison with percent deltas
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/cli.h"
#include "src/common/table.h"
#include "src/metrics/json.h"
#include "src/metrics/run_summary_schema.h"

namespace hlrc {
namespace {

const ToolInfo kTool = {
    "svmprof",
    "Renders svmsim \"hlrc-run-summary\" JSON files for humans: run\n"
    "configuration, per-phase time breakdown, latency percentiles, hot\n"
    "pages and traffic totals. Files are schema-validated on load.",
    "RUN.json [flags] | --check RUN.json | --diff A.json B.json",
};

// Loads, parses, and schema-validates one run summary. Exits with
// `fail_exit` on failure so every code path downstream can assume a
// well-formed document. --diff passes 2: an invalid input there is a bad
// invocation, not a run-quality finding.
JsonValue LoadSummary(const std::string& path, int fail_exit = 1) {
  std::string err;
  JsonValue v;
  if (!LoadRunSummary(path, &v, &err)) {
    std::fprintf(stderr, "svmprof: %s\n", err.c_str());
    std::exit(fail_exit);
  }
  return v;
}

double NsToUs(double ns) { return ns / 1000.0; }
double NsToS(double ns) { return ns / 1e9; }

std::string Pct(double part, double whole) {
  if (whole <= 0.0) {
    return "-";
  }
  return Table::Fmt(100.0 * part / whole, 1) + "%";
}

// Average over the per_node array of one int field, in ns.
double PerNodeAvg(const JsonValue& run, const char* field) {
  const JsonValue* per_node = run.Find("per_node");
  if (per_node == nullptr || per_node->arr.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const JsonValue& n : per_node->arr) {
    sum += static_cast<double>(n.GetInt(field));
  }
  return sum / static_cast<double>(per_node->arr.size());
}

void PrintHeader(const JsonValue& run) {
  const JsonValue* cfg = run.Find("config");
  const JsonValue* totals = run.Find("totals");
  std::printf("%s under %s on %lld nodes (%s scale, %lld B pages, seed %lld)\n",
              cfg->GetString("app").c_str(), cfg->GetString("protocol").c_str(),
              static_cast<long long>(cfg->GetInt("nodes")), cfg->GetString("scale").c_str(),
              static_cast<long long>(cfg->GetInt("page_size")),
              static_cast<long long>(cfg->GetInt("seed")));
  std::printf("virtual time: %s s   verified: %s",
              Table::Fmt(NsToS(static_cast<double>(totals->GetInt("virtual_time_ns"))), 3).c_str(),
              run.GetBool("verified") ? "yes" : "NO");
  if (cfg->GetBool("faults_active")) {
    std::printf("   faults: active");
  }
  if (cfg->GetBool("migrate_homes")) {
    std::printf("   migrate-homes: on");
  }
  std::printf("\n\n");
}

void PrintPhases(const JsonValue& run) {
  const double total = static_cast<double>(run.Find("totals")->GetInt("virtual_time_ns"));
  Table t("Per-phase time (average per node)");
  t.SetHeader({"Phase", "Avg (s)", "Of run"});
  const struct {
    const char* label;
    const char* field;
  } kPhases[] = {
      {"Computation", "compute_ns"},       {"Data transfer wait", "data_wait_ns"},
      {"Lock wait", "lock_wait_ns"},       {"Barrier wait", "barrier_wait_ns"},
      {"Garbage collection", "gc_ns"},     {"Protocol overhead", "proto_overhead_ns"},
  };
  for (const auto& p : kPhases) {
    const double ns = PerNodeAvg(run, p.field);
    t.AddRow({p.label, Table::Fmt(NsToS(ns), 3), Pct(ns, total)});
  }
  t.Print();
  std::printf("\n");
}

void PrintHistograms(const JsonValue& run) {
  const JsonValue* histos = run.Find("histograms");
  if (histos == nullptr || histos->obj.empty()) {
    std::printf("(no latency histograms recorded)\n\n");
    return;
  }
  Table t("Latency histograms (us)");
  t.SetHeader({"Metric", "Count", "Mean", "p50", "p90", "p99", "p99.9", "Max"});
  for (const auto& [name, h] : histos->obj) {
    const JsonValue* p = h.Find("percentiles");
    t.AddRow({name, Table::Fmt(h.GetInt("count")),
              Table::Fmt(NsToUs(h.GetDouble("mean")), 1),
              Table::Fmt(NsToUs(p->GetDouble("p50")), 1),
              Table::Fmt(NsToUs(p->GetDouble("p90")), 1),
              Table::Fmt(NsToUs(p->GetDouble("p99")), 1),
              Table::Fmt(NsToUs(p->GetDouble("p999")), 1),
              Table::Fmt(NsToUs(static_cast<double>(h.GetInt("max"))), 1)});
  }
  t.Print();
  std::printf("\n");
}

void PrintHotPages(const JsonValue& run, int64_t top) {
  const JsonValue* pages = run.Find("hot_pages");
  if (pages == nullptr || pages->arr.empty()) {
    std::printf("(no page heat recorded)\n\n");
    return;
  }
  Table t("Hottest shared pages");
  t.SetHeader({"Page", "Score", "RdFaults", "WrFaults", "Fetches", "FetchB", "DiffB", "Writers"});
  int64_t shown = 0;
  for (const JsonValue& p : pages->arr) {
    if (shown++ >= top) {
      break;
    }
    t.AddRow({Table::Fmt(p.GetInt("page")), Table::Fmt(p.GetInt("score")),
              Table::Fmt(p.GetInt("read_faults")), Table::Fmt(p.GetInt("write_faults")),
              Table::Fmt(p.GetInt("fetches")), Table::FmtBytes(p.GetInt("fetch_bytes")),
              Table::FmtBytes(p.GetInt("diff_bytes_applied")), Table::Fmt(p.GetInt("writers"))});
  }
  t.Print();
  if (static_cast<int64_t>(pages->arr.size()) > top) {
    std::printf("(%lld more hot pages in the file)\n",
                static_cast<long long>(static_cast<int64_t>(pages->arr.size()) - top));
  }
  std::printf("\n");
}

void PrintTraffic(const JsonValue& run) {
  const JsonValue* tr = run.Find("totals")->Find("traffic");
  Table t("Traffic totals");
  t.SetHeader({"Metric", "Value"});
  t.AddRow({"Messages sent", Table::Fmt(tr->GetInt("msgs_sent"))});
  t.AddRow({"Update traffic", Table::FmtBytes(tr->GetInt("update_bytes_sent"))});
  t.AddRow({"Protocol traffic", Table::FmtBytes(tr->GetInt("protocol_bytes_sent"))});
  if (tr->GetInt("msgs_retransmitted") > 0 || tr->GetInt("msgs_dropped_in_net") > 0) {
    t.AddRow({"Retransmissions", Table::Fmt(tr->GetInt("msgs_retransmitted"))});
    t.AddRow({"Dropped in net", Table::Fmt(tr->GetInt("msgs_dropped_in_net"))});
    t.AddRow({"Duplicates dropped", Table::Fmt(tr->GetInt("msgs_duplicated_dropped"))});
    t.AddRow({"Acks", Table::Fmt(tr->GetInt("acks_sent"))});
  }
  t.Print();
  std::printf("\n");
}

void PrintTimeseries(const JsonValue& run) {
  const JsonValue* ts = run.Find("timeseries");
  const size_t series = ts->Find("series")->arr.size();
  const size_t samples = ts->Find("samples")->arr.size();
  std::printf("time-series: %zu series x %zu samples every %s ms%s\n", series, samples,
              Table::Fmt(static_cast<double>(ts->GetInt("interval_ns")) / 1e6, 3).c_str(),
              ts->GetBool("truncated") ? " (truncated)" : "");
}

int Report(const std::string& path, int64_t top) {
  const JsonValue run = LoadSummary(path);
  PrintHeader(run);
  PrintPhases(run);
  PrintHistograms(run);
  PrintHotPages(run, top);
  PrintTraffic(run);
  PrintTimeseries(run);
  return 0;
}

// ---------------------------------------------------------------------------
// A/B diff.

std::string Delta(double a, double b) {
  if (a == 0.0 && b == 0.0) {
    return "-";
  }
  if (a == 0.0) {
    return "new";
  }
  const double pct = 100.0 * (b - a) / a;
  return (pct >= 0 ? "+" : "") + Table::Fmt(pct, 1) + "%";
}

int Diff(const std::string& path_a, const std::string& path_b) {
  const JsonValue a = LoadSummary(path_a, /*fail_exit=*/2);
  const JsonValue b = LoadSummary(path_b, /*fail_exit=*/2);

  const JsonValue* ca = a.Find("config");
  const JsonValue* cb = b.Find("config");
  std::printf("A: %s  (%s/%s, %lld nodes)\n", path_a.c_str(), ca->GetString("app").c_str(),
              ca->GetString("protocol").c_str(), static_cast<long long>(ca->GetInt("nodes")));
  std::printf("B: %s  (%s/%s, %lld nodes)\n\n", path_b.c_str(), cb->GetString("app").c_str(),
              cb->GetString("protocol").c_str(), static_cast<long long>(cb->GetInt("nodes")));

  Table t("Run comparison (B vs A)");
  t.SetHeader({"Metric", "A", "B", "Delta"});

  auto row_s = [&](const char* label, double va, double vb) {
    t.AddRow({label, Table::Fmt(NsToS(va), 3), Table::Fmt(NsToS(vb), 3), Delta(va, vb)});
  };
  auto row_i = [&](const char* label, int64_t va, int64_t vb) {
    t.AddRow({label, Table::Fmt(va), Table::Fmt(vb),
              Delta(static_cast<double>(va), static_cast<double>(vb))});
  };

  row_s("Virtual time (s)", static_cast<double>(a.Find("totals")->GetInt("virtual_time_ns")),
        static_cast<double>(b.Find("totals")->GetInt("virtual_time_ns")));
  const struct {
    const char* label;
    const char* field;
  } kPhases[] = {
      {"Computation (avg s)", "compute_ns"},     {"Data wait (avg s)", "data_wait_ns"},
      {"Lock wait (avg s)", "lock_wait_ns"},     {"Barrier wait (avg s)", "barrier_wait_ns"},
      {"GC (avg s)", "gc_ns"},                   {"Proto overhead (avg s)", "proto_overhead_ns"},
  };
  for (const auto& p : kPhases) {
    row_s(p.label, PerNodeAvg(a, p.field), PerNodeAvg(b, p.field));
  }
  t.AddSeparator();
  const JsonValue* ta = a.Find("totals")->Find("traffic");
  const JsonValue* tb = b.Find("totals")->Find("traffic");
  row_i("Messages", ta->GetInt("msgs_sent"), tb->GetInt("msgs_sent"));
  row_i("Update bytes", ta->GetInt("update_bytes_sent"), tb->GetInt("update_bytes_sent"));
  row_i("Protocol bytes", ta->GetInt("protocol_bytes_sent"), tb->GetInt("protocol_bytes_sent"));
  const JsonValue* pa = a.Find("totals")->Find("proto");
  const JsonValue* pb = b.Find("totals")->Find("proto");
  row_i("Page fetches", pa->GetInt("page_fetches"), pb->GetInt("page_fetches"));
  row_i("Diffs created", pa->GetInt("diffs_created"), pb->GetInt("diffs_created"));
  row_i("Diffs applied", pa->GetInt("diffs_applied"), pb->GetInt("diffs_applied"));
  t.Print();
  std::printf("\n");

  // Histogram tails for metrics present in both runs.
  const JsonValue* ha = a.Find("histograms");
  const JsonValue* hb = b.Find("histograms");
  Table h("Latency deltas, us (B vs A)");
  h.SetHeader({"Metric", "p50 A", "p50 B", "d p50", "p99 A", "p99 B", "d p99"});
  bool any = false;
  for (const auto& [name, va] : ha->obj) {
    const JsonValue* vb = hb->Find(name);
    if (vb == nullptr) {
      continue;
    }
    any = true;
    const JsonValue* qa = va.Find("percentiles");
    const JsonValue* qb = vb->Find("percentiles");
    h.AddRow({name, Table::Fmt(NsToUs(qa->GetDouble("p50")), 1),
              Table::Fmt(NsToUs(qb->GetDouble("p50")), 1),
              Delta(qa->GetDouble("p50"), qb->GetDouble("p50")),
              Table::Fmt(NsToUs(qa->GetDouble("p99")), 1),
              Table::Fmt(NsToUs(qb->GetDouble("p99")), 1),
              Delta(qa->GetDouble("p99"), qb->GetDouble("p99"))});
  }
  if (any) {
    h.Print();
  } else {
    std::printf("(no histogram present in both runs)\n");
  }
  return 0;
}

int Main(int argc, char** argv) {
  std::vector<std::string> positional;
  bool check_only = false;
  bool diff = false;
  int64_t top = 20;
  FlagTable flags(kTool);
  flags.Value("--top", "N", &top, "widen the hot-page table (default 20)", Range<int64_t>{1})
      .Bool("--check", &check_only, "validate only (exit 0/1), no report")
      .Bool("--diff", &diff,
            "compare two runs with percent deltas; exits 2\n"
            "when either input fails schema validation");
  flags.ParseOrExit(argc, argv, 1, &positional);
  if (diff) {
    if (check_only || positional.size() != 2) {
      flags.UsageError("--diff takes exactly two run files");
    }
    return Diff(positional[0], positional[1]);
  }
  if (positional.size() != 1) {
    flags.UsageError("exactly one run file required");
  }
  if (check_only) {
    LoadSummary(positional[0]);  // Exits nonzero on parse/schema failure.
    std::printf("%s: OK (schema %s v%d)\n", positional[0].c_str(), kRunSummarySchemaName,
                kRunSummarySchemaVersion);
    return 0;
  }
  return Report(positional[0], top);
}

}  // namespace
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::Main(argc, argv); }
