// svmtrace — causal span analyzer for svmsim run-summary JSON files.
//
// Reads the versioned "hlrc-spans" section that `svmsim --metrics-out=`
// records (schema: docs/OBSERVABILITY.md) and answers the question flat
// counters cannot: *what was each blocked operation actually waiting for?*
// Every page fault, lock acquire and barrier is a root span whose causal
// descendants — wire time, send queueing, retransmit stretches, home
// service, diff creation/application — are swept to attribute the root's
// wait, category by category, with the residue counted as protocol
// bookkeeping. The per-root categories sum exactly to the root's duration.
//
//   svmtrace critpath run.json            per-category / per-kind rollups
//   svmtrace critpath run.json --per-page widen with the per-page table
//   svmtrace slowest run.json --top=10    slowest root operations
//   svmtrace --check run.json             schema + DAG well-formedness (0/1)
//   svmtrace --diff a.json b.json         compare two runs' attributions
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/cli.h"
#include "src/common/table.h"
#include "src/metrics/json.h"
#include "src/metrics/run_summary_schema.h"
#include "src/tracing/critpath.h"
#include "src/tracing/span.h"
#include "src/tracing/span_check.h"

namespace hlrc {
namespace {

const ToolInfo kTool = {
    "svmtrace",
    "Attributes each blocked operation's wait (page faults, lock acquires,\n"
    "barriers) across the causal span DAG an svmsim run records: wire time,\n"
    "queueing, retransmits, home service, diff work, bookkeeping, compute.",
    "COMMAND RUN.json [flags] | --check RUN.json | --diff A.json B.json",
};

struct LoadedSpans {
  std::vector<Span> spans;
  int64_t dropped = 0;
  std::string app, protocol;
  int64_t nodes = 0;
};

// Loads a run summary, validates it against the run-summary schema, and
// extracts + DAG-checks the spans section. Exits with `fail_exit` on any
// failure (--diff passes 2: an invalid input is a bad invocation).
LoadedSpans LoadSpans(const std::string& path, int fail_exit = 1) {
  std::string err;
  JsonValue v;
  if (!LoadRunSummary(path, &v, &err)) {
    std::fprintf(stderr, "svmtrace: %s\n", err.c_str());
    std::exit(fail_exit);
  }
  LoadedSpans out;
  if (!ParseSpans(v, &out.spans, &out.dropped, &err)) {
    std::fprintf(stderr, "svmtrace: %s: %s\n", path.c_str(), err.c_str());
    std::exit(fail_exit);
  }
  if (!CheckSpanDag(out.spans, &err)) {
    std::fprintf(stderr, "svmtrace: %s: span DAG violation: %s\n", path.c_str(), err.c_str());
    std::exit(fail_exit);
  }
  const JsonValue* cfg = v.Find("config");
  out.app = cfg->GetString("app");
  out.protocol = cfg->GetString("protocol");
  out.nodes = cfg->GetInt("nodes");
  return out;
}

double NsToUs(double ns) { return ns / 1000.0; }
double NsToMs(double ns) { return ns / 1e6; }

std::string Pct(double part, double whole) {
  if (whole <= 0.0) {
    return "-";
  }
  return Table::Fmt(100.0 * part / whole, 1) + "%";
}

const char* RootKindLabel(SpanKind k) {
  switch (k) {
    case SpanKind::kFault:
      return "fault";
    case SpanKind::kLock:
      return "lock";
    case SpanKind::kBarrier:
      return "barrier";
    default:
      return SpanKindName(k);
  }
}

void PrintHeader(const LoadedSpans& run, const std::string& path) {
  int64_t root_count = 0;
  for (const Span& s : run.spans) {
    if (RootKindIndex(s.kind) >= 0) {
      ++root_count;
    }
  }
  std::printf("%s: %s under %s on %lld nodes — %zu spans (%lld blocking roots",
              path.c_str(), run.app.c_str(), run.protocol.c_str(),
              static_cast<long long>(run.nodes), run.spans.size(),
              static_cast<long long>(root_count));
  if (run.dropped > 0) {
    std::printf(", %lld dropped at capacity", static_cast<long long>(run.dropped));
  }
  std::printf(")\n\n");
}

int CritPath(const std::string& path, bool per_page, int64_t top) {
  const LoadedSpans run = LoadSpans(path);
  PrintHeader(run, path);
  const CritPathSummary sum = AttributeCriticalPaths(run.spans);
  if (sum.roots.empty()) {
    std::printf("(no blocking roots recorded)\n");
    return 0;
  }

  Table t("Critical-path attribution (all blocking roots)");
  t.SetHeader({"Category", "Total (ms)", "Of wait", "Fault (ms)", "Lock (ms)", "Barrier (ms)"});
  for (size_t c = 0; c < kCritCatCount; ++c) {
    t.AddRow({CritCatName(static_cast<CritCat>(c)),
              Table::Fmt(NsToMs(static_cast<double>(sum.total[c])), 3),
              Pct(static_cast<double>(sum.total[c]), static_cast<double>(sum.total_wait)),
              Table::Fmt(NsToMs(static_cast<double>(sum.by_kind[0][c])), 3),
              Table::Fmt(NsToMs(static_cast<double>(sum.by_kind[1][c])), 3),
              Table::Fmt(NsToMs(static_cast<double>(sum.by_kind[2][c])), 3)});
  }
  t.AddSeparator();
  SimTime fault_wait = 0, lock_wait = 0, barrier_wait = 0;
  for (size_t c = 0; c < kCritCatCount; ++c) {
    fault_wait += sum.by_kind[0][c];
    lock_wait += sum.by_kind[1][c];
    barrier_wait += sum.by_kind[2][c];
  }
  t.AddRow({"total wait", Table::Fmt(NsToMs(static_cast<double>(sum.total_wait)), 3), "100%",
            Table::Fmt(NsToMs(static_cast<double>(fault_wait)), 3),
            Table::Fmt(NsToMs(static_cast<double>(lock_wait)), 3),
            Table::Fmt(NsToMs(static_cast<double>(barrier_wait)), 3)});
  t.Print();
  std::printf("\n");

  if (per_page) {
    // Pages ordered by total fault wait, widest first.
    std::vector<std::pair<int64_t, SimTime>> pages(sum.page_wait.begin(), sum.page_wait.end());
    std::sort(pages.begin(), pages.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    Table p("Per-page fault wait");
    p.SetHeader({"Page", "Wait (ms)", "Wire", "Queue", "Retx", "HomeSvc", "DiffC", "DiffA",
                 "Bookkeep"});
    int64_t shown = 0;
    for (const auto& [page, wait] : pages) {
      if (shown++ >= top) {
        break;
      }
      const CatTimes& c = sum.by_page.at(page);
      auto pc = [&](CritCat cat) {
        return Pct(static_cast<double>(c[static_cast<size_t>(cat)]), static_cast<double>(wait));
      };
      p.AddRow({Table::Fmt(page), Table::Fmt(NsToMs(static_cast<double>(wait)), 3),
                pc(CritCat::kWire), pc(CritCat::kQueueing), pc(CritCat::kRetransmit),
                pc(CritCat::kHomeService), pc(CritCat::kDiffCreate), pc(CritCat::kDiffApply),
                pc(CritCat::kBookkeeping)});
    }
    p.Print();
    if (static_cast<int64_t>(pages.size()) > top) {
      std::printf("(%lld more pages; raise --top)\n",
                  static_cast<long long>(static_cast<int64_t>(pages.size()) - top));
    }
    std::printf("\n");
  }
  return 0;
}

int Slowest(const std::string& path, int64_t top) {
  const LoadedSpans run = LoadSpans(path);
  PrintHeader(run, path);
  CritPathSummary sum = AttributeCriticalPaths(run.spans);
  std::sort(sum.roots.begin(), sum.roots.end(), [](const RootAttribution& a,
                                                   const RootAttribution& b) {
    return (a.t1 - a.t0) != (b.t1 - b.t0) ? (a.t1 - a.t0) > (b.t1 - b.t0) : a.id < b.id;
  });
  Table t("Slowest blocking operations");
  t.SetHeader({"Span", "Kind", "Node", "Arg", "Start (ms)", "Wait (us)", "Top category"});
  int64_t shown = 0;
  for (const RootAttribution& r : sum.roots) {
    if (shown++ >= top) {
      break;
    }
    size_t best = static_cast<size_t>(CritCat::kBookkeeping);
    for (size_t c = 0; c < kCritCatCount; ++c) {
      if (r.by_cat[c] > r.by_cat[best]) {
        best = c;
      }
    }
    const SimTime wait = r.t1 - r.t0;
    t.AddRow({Table::Fmt(r.id), RootKindLabel(r.kind), Table::Fmt(static_cast<int64_t>(r.node)),
              Table::Fmt(r.a0), Table::Fmt(NsToMs(static_cast<double>(r.t0)), 3),
              Table::Fmt(NsToUs(static_cast<double>(wait)), 1),
              std::string(CritCatName(static_cast<CritCat>(best))) + " (" +
                  Pct(static_cast<double>(r.by_cat[best]), static_cast<double>(wait)) + ")"});
  }
  t.Print();
  if (static_cast<int64_t>(sum.roots.size()) > top) {
    std::printf("(%lld more roots; raise --top)\n",
                static_cast<long long>(static_cast<int64_t>(sum.roots.size()) - top));
  }
  return 0;
}

int Check(const std::string& path) {
  const LoadedSpans run = LoadSpans(path);  // Exits nonzero on any violation.
  int64_t roots = 0;
  for (const Span& s : run.spans) {
    if (RootKindIndex(s.kind) >= 0) {
      ++roots;
    }
  }
  std::printf("%s: OK (schema %s v%d, %zu spans, %lld blocking roots, %lld dropped)\n",
              path.c_str(), kSpansSchemaName, kSpansSchemaVersion, run.spans.size(),
              static_cast<long long>(roots), static_cast<long long>(run.dropped));
  return 0;
}

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
  const LoadedSpans a = LoadSpans(path_a, /*fail_exit=*/2);
  const LoadedSpans b = LoadSpans(path_b, /*fail_exit=*/2);
  std::printf("A: %s  (%s/%s, %lld nodes, %zu spans)\n", path_a.c_str(), a.app.c_str(),
              a.protocol.c_str(), static_cast<long long>(a.nodes), a.spans.size());
  std::printf("B: %s  (%s/%s, %lld nodes, %zu spans)\n\n", path_b.c_str(), b.app.c_str(),
              b.protocol.c_str(), static_cast<long long>(b.nodes), b.spans.size());

  const CritPathSummary sa = AttributeCriticalPaths(a.spans);
  const CritPathSummary sb = AttributeCriticalPaths(b.spans);
  Table t("Critical-path comparison (B vs A, ms)");
  t.SetHeader({"Category", "A", "B", "Delta"});
  for (size_t c = 0; c < kCritCatCount; ++c) {
    const double va = static_cast<double>(sa.total[c]);
    const double vb = static_cast<double>(sb.total[c]);
    t.AddRow({CritCatName(static_cast<CritCat>(c)), Table::Fmt(NsToMs(va), 3),
              Table::Fmt(NsToMs(vb), 3), Delta(va, vb)});
  }
  t.AddSeparator();
  t.AddRow({"total wait", Table::Fmt(NsToMs(static_cast<double>(sa.total_wait)), 3),
            Table::Fmt(NsToMs(static_cast<double>(sb.total_wait)), 3),
            Delta(static_cast<double>(sa.total_wait), static_cast<double>(sb.total_wait))});
  t.AddRow({"blocking roots", Table::Fmt(static_cast<int64_t>(sa.roots.size())),
            Table::Fmt(static_cast<int64_t>(sb.roots.size())),
            Delta(static_cast<double>(sa.roots.size()), static_cast<double>(sb.roots.size()))});
  t.Print();
  return 0;
}

int Main(int argc, char** argv) {
  std::vector<std::string> positional;
  bool check_only = false;
  bool diff = false;
  bool per_page = false;
  int64_t top = 10;
  FlagTable flags(kTool);
  flags.Value("--top", "N", &top, "rows in the slowest/per-page tables (default 10)",
              Range<int64_t>{1})
      .Bool("--per-page", &per_page, "critpath: include the per-page fault table")
      .Bool("--check", &check_only, "validate spans (schema + DAG shape), exit 0/1")
      .Bool("--diff", &diff,
            "compare two runs' attributions; exits 2 when\n"
            "either input fails schema validation");
  flags.ParseOrExit(argc, argv, 1, &positional);
  if (diff) {
    if (check_only || positional.size() != 2) {
      flags.UsageError("--diff takes exactly two run files");
    }
    return Diff(positional[0], positional[1]);
  }
  if (check_only) {
    if (positional.size() != 1) {
      flags.UsageError("--check takes exactly one run file");
    }
    return Check(positional[0]);
  }
  if (positional.empty()) {
    flags.UsageError("command required: critpath | slowest (or --check / --diff)");
  }
  const std::string cmd = positional[0];
  if (positional.size() != 2) {
    flags.UsageError(cmd + " takes exactly one run file");
  }
  if (cmd == "critpath") {
    return CritPath(positional[1], per_page, top);
  }
  if (cmd == "slowest") {
    return Slowest(positional[1], top);
  }
  flags.UsageError("unknown command '" + cmd + "' (critpath | slowest)");
}

}  // namespace
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::Main(argc, argv); }
