// Reproduces paper Table 5: communication traffic of LRC vs HLRC — message
// counts, update-related traffic (diff/page payloads) and protocol traffic
// (write notices, requests, headers).
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace hlrc {
namespace bench {
namespace {

// Protocol-level message count: every logical message the protocols
// exchanged, regardless of how the wire plane framed it. Excludes acks
// (reliable-delivery bookkeeping, not protocol traffic) and bundle frames
// (counted once per carried part instead). Invariant under --coalesce: the
// coalesced plane repacks frames but never adds or removes protocol
// messages.
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

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  // The table compares LRC with HLRC; --protocols may narrow it to one.
  std::vector<ProtocolKind> protocols;
  if (const std::string why =
          SelectProtocols(opts, {ProtocolKind::kLrc, ProtocolKind::kHlrc}, &protocols);
      !why.empty()) {
    UsageError(argv[0], why);
  }

  // Under fault injection the reliable-delivery layer adds traffic of its
  // own; report it so degraded-fabric runs stay interpretable.
  const bool faulty = opts.fault_drop > 0;

  std::printf("=== Table 5: Communication traffic (totals across nodes) ===\n\n");
  Table table("");
  // One column per (quantity, protocol), protocols innermost.
  auto columns = [&protocols](std::initializer_list<const char*> quantities) {
    std::vector<std::string> out;
    for (const char* q : quantities) {
      for (ProtocolKind kind : protocols) {
        out.push_back(std::string(q) + " " + ProtocolName(kind));
      }
    }
    return out;
  };
  std::vector<std::string> header = {"Application", "Nodes"};
  for (const std::string& c : columns({"Msgs", "Update", "Protocol"})) {
    header.push_back(c);
  }
  if (faulty) {
    for (const std::string& c : columns({"Retx", "DupDrop", "Acks"})) {
      header.push_back(c);
    }
  }
  table.SetHeader(header);

  BenchJson json("table5_traffic");
  auto add_row = [&json](const std::string& app, int nodes, const char* protocol,
                         const NodeReport& t) {
    json.BeginRow();
    json.Add("app", app);
    json.Add("protocol", protocol);
    json.Add("nodes", nodes);
    json.Add("msgs", t.traffic.msgs_sent);
    json.Add("update_bytes", t.traffic.update_bytes_sent);
    json.Add("protocol_bytes", t.traffic.protocol_bytes_sent);
    json.Add("retransmissions", t.traffic.msgs_retransmitted);
    json.Add("dup_dropped", t.traffic.msgs_duplicated_dropped);
    json.Add("acks", t.traffic.acks_sent);
    // Frames vs. logical messages: "msgs" above counts physical frames (a
    // coalesced bundle is one frame); "logical_msgs" counts the protocol
    // messages inside them and must not change under --coalesce.
    json.Add("logical_msgs", LogicalMsgs(t));
    json.Add("frames_coalesced", t.traffic.frames_coalesced);
    json.Add("msgs_coalesced", t.traffic.msgs_coalesced);
    json.Add("acks_piggybacked", t.traffic.acks_piggybacked);
    json.Add("page_replies_combined", t.proto.page_replies_combined);
    json.EndRow();
  };

  for (const std::string& app : opts.apps) {
    for (int nodes : opts.node_counts) {
      std::vector<NodeReport> totals;
      for (ProtocolKind kind : protocols) {
        const AppRunResult run = RunVerified(app, opts, BaseConfig(opts, kind, nodes));
        totals.push_back(run.report.Totals());
        add_row(app, nodes, ProtocolName(kind), totals.back());
      }
      std::vector<std::string> row = {app, Table::Fmt(static_cast<int64_t>(nodes))};
      auto add = [&row, &totals](auto cell) {
        for (const NodeReport& t : totals) {
          row.push_back(cell(t));
        }
      };
      add([](const NodeReport& t) { return Table::Fmt(t.traffic.msgs_sent); });
      add([](const NodeReport& t) { return Table::FmtBytes(t.traffic.update_bytes_sent); });
      add([](const NodeReport& t) { return Table::FmtBytes(t.traffic.protocol_bytes_sent); });
      if (faulty) {
        add([](const NodeReport& t) { return Table::Fmt(t.traffic.msgs_retransmitted); });
        add([](const NodeReport& t) { return Table::Fmt(t.traffic.msgs_duplicated_dropped); });
        add([](const NodeReport& t) { return Table::Fmt(t.traffic.acks_sent); });
      }
      table.AddRow(row);
      std::fflush(stdout);
    }
    table.AddSeparator();
  }
  table.Print();
  if (!opts.json_out.empty()) {
    json.WriteFile(opts.json_out);
  }
  if (faulty) {
    std::printf("\nFault injection active: drop=%.4f seed=%llu (reliable delivery on).\n",
                opts.fault_drop, static_cast<unsigned long long>(opts.fault_seed));
  }
  std::printf(
      "\nPaper §4.6 shapes: HLRC sends one message per diff (to the home) and exactly one\n"
      "round trip per page miss; LRC needs a message per writer per miss. Homeless\n"
      "protocol traffic grows with node count because write notices carry full vector\n"
      "timestamps. For fine-grain sharing (Raytrace) HLRC moves more bytes (whole pages)\n"
      "but fewer messages.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace hlrc

int main(int argc, char** argv) { return hlrc::bench::Main(argc, argv); }
