// The shared flag table (src/common/cli.h), the enum name tables, and
// ValidateConfig: every kind accepts its whole range and rejects malformed,
// overflowing and out-of-range text; usage is rendered from the same table;
// bad configs are rejected with a reason naming the field.
#include "src/common/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/sweep.h"
#include "tools/tool_flags.h"

namespace hlrc {
namespace {

const ToolInfo kTestTool = {"test", "A test tool."};

// Parses `args` (program name prepended) and returns the error, "" if none.
std::string ParseArgv(const FlagTable& flags, std::vector<std::string> args,
                std::vector<std::string>* positional = nullptr) {
  std::vector<const char*> argv = {"prog"};
  for (const std::string& a : args) {
    argv.push_back(a.c_str());
  }
  return flags.Parse(static_cast<int>(argv.size()), argv.data(), 1, positional);
}

std::string Usage(const FlagTable& flags) {
  std::FILE* f = std::tmpfile();
  flags.PrintUsage(f);
  std::rewind(f);
  std::string text;
  char buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(f);
  return text;
}

TEST(Cli, IntRangeEdges) {
  int v = 7;
  FlagTable flags(kTestTool);
  flags.Value("--n", "N", &v, "n", Range<int>{1, 64});
  EXPECT_EQ(ParseArgv(flags, {"--n=1"}), "");
  EXPECT_EQ(v, 1);
  EXPECT_EQ(ParseArgv(flags, {"--n=64"}), "");
  EXPECT_EQ(v, 64);
  for (const char* bad : {"--n=0", "--n=65", "--n=-1", "--n=", "--n=abc", "--n=10abc",
                          "--n= 8", "--n=+8", "--n=8.0", "--n=0x10"}) {
    const std::string err = ParseArgv(flags, {bad});
    EXPECT_NE(err.find("--n: expected an integer in [1, 64]"), std::string::npos) << bad << err;
    EXPECT_EQ(v, 64) << "a rejected value must leave the target untouched";
  }
}

TEST(Cli, Int64AndUint64Overflow) {
  int64_t i = 0;
  uint64_t u = 0;
  int narrow = 0;
  FlagTable flags(kTestTool);
  flags.Value("--i", "N", &i, "i", Range<int64_t>{})
      .Value("--u", "N", &u, "u", Range<uint64_t>{})
      .Value("--narrow", "N", &narrow, "narrow", Range<int>{0});
  EXPECT_EQ(ParseArgv(flags, {"--i=9223372036854775807"}), "");
  EXPECT_EQ(i, INT64_MAX);
  EXPECT_EQ(ParseArgv(flags, {"--i=-9223372036854775808"}), "");
  EXPECT_EQ(i, INT64_MIN);
  EXPECT_NE(ParseArgv(flags, {"--i=9223372036854775808"}), "");
  EXPECT_NE(ParseArgv(flags, {"--i=99999999999999999999"}), "");
  EXPECT_EQ(ParseArgv(flags, {"--u=18446744073709551615"}), "");
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_NE(ParseArgv(flags, {"--u=18446744073709551616"}), "");
  EXPECT_NE(ParseArgv(flags, {"--u=-1"}), "") << "no silent wrap to 2^64-1";
  EXPECT_NE(ParseArgv(flags, {"--u=xyz"}), "") << "no silent seed 0";
  EXPECT_EQ(ParseArgv(flags, {"--narrow=2147483647"}), "");
  EXPECT_NE(ParseArgv(flags, {"--narrow=2147483648"}), "") << "int flags reject int64 values";
}

TEST(Cli, DoubleRange) {
  double p = 0.25;
  double s = 0;
  FlagTable flags(kTestTool);
  flags.Value("--p", "P", &p, "p", kProbability).Value("--s", "S", &s, "s", Range<double>{0.0});
  for (const char* ok : {"--p=0", "--p=1", "--p=0.5", "--p=1e-3", "--p=1.0"}) {
    EXPECT_EQ(ParseArgv(flags, {ok}), "") << ok;
  }
  EXPECT_DOUBLE_EQ(p, 1.0);
  for (const char* bad : {"--p=1.5", "--p=-0.1", "--p=banana", "--p=", "--p=nan", "--p=inf",
                          "--p=0.5x", "--p=2"}) {
    EXPECT_NE(ParseArgv(flags, {bad}).find("--p: expected a number in [0, 1]"), std::string::npos)
        << bad;
  }
  EXPECT_EQ(ParseArgv(flags, {"--s=1e300"}), "");
  EXPECT_NE(ParseArgv(flags, {"--s=inf"}), "");
  EXPECT_NE(ParseArgv(flags, {"--s=-1"}).find(">= 0"), std::string::npos);
}

TEST(Cli, BoolStringAndValueShape) {
  bool on = false;
  bool verify = true;
  std::string path = "x";
  FlagTable flags(kTestTool);
  flags.Bool("--on", &on, "on")
      .Bool("--no-verify", &verify, "verify", false)
      .String("--out", "FILE", &path, "out");
  EXPECT_EQ(ParseArgv(flags, {"--on", "--no-verify", "--out="}), "");
  EXPECT_TRUE(on);
  EXPECT_FALSE(verify);
  EXPECT_EQ(path, "") << "a string flag accepts the empty value";
  EXPECT_EQ(ParseArgv(flags, {"--on=1"}), "--on takes no value");
  EXPECT_EQ(ParseArgv(flags, {"--out"}), "--out needs a value (--out=FILE)");
}

TEST(Cli, UnknownFlagsAndPositionals) {
  bool on = false;
  FlagTable flags(kTestTool);
  flags.Bool("--on", &on, "on");
  EXPECT_EQ(ParseArgv(flags, {"--bogus"}), "unknown flag: --bogus");
  EXPECT_EQ(ParseArgv(flags, {"--on-x"}), "unknown flag: --on-x");
  EXPECT_EQ(ParseArgv(flags, {"-x"}), "unknown flag: -x");
  EXPECT_EQ(ParseArgv(flags, {"file.json"}), "unexpected argument 'file.json'");
  std::vector<std::string> positional;
  EXPECT_EQ(ParseArgv(flags, {"a.json", "--on", "b.json"}, &positional), "");
  EXPECT_EQ(positional, (std::vector<std::string>{"a.json", "b.json"}));
}

TEST(Cli, EnumFlags) {
  ProtocolKind p = ProtocolKind::kLrc;
  FlagTable flags(kTestTool);
  flags.Value("--protocol", "NAME", &p, "protocol", OneOf<ProtocolKind>{kProtocolNames});
  EXPECT_EQ(ParseArgv(flags, {"--protocol=ohlrc"}), "");
  EXPECT_EQ(p, ProtocolKind::kOhlrc);
  for (const char* bad :
       {"--protocol=bogus", "--protocol=HLRC", "--protocol=", "--protocol=hlrc "}) {
    const std::string err = ParseArgv(flags, {bad});
    EXPECT_NE(err.find("expected one of lrc | olrc | hlrc | ohlrc | erc | aurc"),
              std::string::npos)
        << bad;
  }
  EXPECT_EQ(p, ProtocolKind::kOhlrc);
}

TEST(Cli, SplitListDropsEmptyItems) {
  EXPECT_EQ(SplitList("a,b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitList("a,,b,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitList(",a"), (std::vector<std::string>{"a"}));
  EXPECT_TRUE(SplitList("").empty());
  EXPECT_TRUE(SplitList(",,").empty());
}

TEST(Cli, ListFlags) {
  std::vector<int> nodes = {8};
  std::vector<ProtocolKind> protocols;
  std::vector<std::string> apps;
  FlagTable flags(kTestTool);
  flags.List("--nodes", "LIST", &nodes, "nodes", Range<int>{1, 64})
      .List("--protocols", "LIST", &protocols, "protocols", OneOf<ProtocolKind>{kProtocolNames})
      .List("--apps", "LIST", &apps, "apps", Word{{"lu", "sor"}});
  EXPECT_EQ(ParseArgv(flags, {"--nodes=4,,16,", "--protocols=lrc,aurc", "--apps=sor"}), "");
  EXPECT_EQ(nodes, (std::vector<int>{4, 16}));
  EXPECT_EQ(protocols, (std::vector<ProtocolKind>{ProtocolKind::kLrc, ProtocolKind::kAurc}));
  EXPECT_EQ(apps, (std::vector<std::string>{"sor"}));
  // A bad item or an empty list rejects the whole flag and keeps the target.
  EXPECT_NE(ParseArgv(flags, {"--nodes=4,x"}).find("got 'x'"), std::string::npos);
  EXPECT_NE(ParseArgv(flags, {"--nodes=4,0"}), "");
  EXPECT_NE(ParseArgv(flags, {"--nodes="}).find("non-empty"), std::string::npos);
  EXPECT_NE(ParseArgv(flags, {"--nodes=,,"}).find("non-empty"), std::string::npos);
  EXPECT_EQ(nodes, (std::vector<int>{4, 16}));
  EXPECT_NE(ParseArgv(flags, {"--apps=lu,bogus"}).find("expected one of lu | sor, got 'bogus'"),
            std::string::npos);
  // Lists replace, they do not append.
  EXPECT_EQ(ParseArgv(flags, {"--nodes=2", "--nodes=3"}), "");
  EXPECT_EQ(nodes, (std::vector<int>{3}));
}

TEST(Cli, CallbackAndMarks) {
  SimOptions o;
  FlagTable flags(kSimTool);
  AddSimFlags(&flags, &o);
  EXPECT_EQ(
      ParseArgv(flags, {"--partition=0-1@0..5", "--partition=2-3@1..2", "--retry-max=3"}), "");
  ASSERT_EQ(o.cfg.fault.partitions.size(), 2u) << "--partition is repeatable";
  EXPECT_EQ(o.cfg.fault.partitions[1].group_a, (std::vector<NodeId>{2}));
  EXPECT_TRUE(o.reliable) << "--retry-max implies --reliable";
  EXPECT_FALSE(o.nodes_given);
  EXPECT_EQ(ParseArgv(flags, {"--nodes=4"}), "");
  EXPECT_TRUE(o.nodes_given);
  EXPECT_NE(ParseArgv(flags, {"--partition=nonsense"}).find("--partition: bad spec"),
            std::string::npos);
  bool given = false;
  int n = 0;
  FlagTable marks(kTestTool);
  marks.Value("--n", "N", &n, "n", Range<int>{0, 9}).Marks(&given);
  EXPECT_NE(ParseArgv(marks, {"--n=10"}), "");
  EXPECT_FALSE(given) << "a rejected value does not count as given";
}

TEST(Cli, UsageListsEveryFlag) {
  SimOptions so;
  FlagTable sim(kSimTool);
  AddSimFlags(&sim, &so);
  CheckOptions co;
  FlagTable check(kCheckTool);
  AddCheckFlags(&check, &co);
  const std::vector<std::pair<const FlagTable*, std::vector<const char*>>> tables = {
      {&sim,
       {"--app=", "--protocol=", "--nodes=", "--scale=", "--page-size=", "--home=",
        "--diff-policy=", "--gc-threshold=", "--migrate-homes", "--trace=", "--per-node",
        "--no-verify", "--verbose", "--seed=", "--record-trace=", "--replay-trace=",
        "--metrics-out=", "--sample-interval=", "--coverage", "--fault-drop=", "--fault-dup=",
        "--fault-delay=", "--fault-corrupt=", "--fault-seed=", "--partition=", "--reliable",
        "--retry-timeout=", "--retry-max=", "--coalesce", "--barrier-arity=", "--list",
        "--help", "--version"}},
      {&check,
       {"--litmus=", "--protocols=", "--seeds=", "--seed=", "--jobs=", "--nodes=", "--rounds=",
        "--page-size=", "--max-jitter-us=", "--no-permute", "--mutation=", "--fault-drop=",
        "--coalesce", "--barrier-arity=", "--stop-on-failure", "--replay-seed=", "--limit=",
        "--list", "--help", "--version"}},
  };
  for (const auto& [flags, names] : tables) {
    const std::string usage = Usage(*flags);
    EXPECT_EQ(usage.rfind("usage: ", 0), 0u);
    for (const char* name : names) {
      EXPECT_NE(usage.find(std::string("  ") + name), std::string::npos) << name;
    }
    // Every usage line fits 80 columns and carries no trailing blank.
    size_t start = 0;
    for (size_t nl; (nl = usage.find('\n', start)) != std::string::npos; start = nl + 1) {
      const std::string line = usage.substr(start, nl - start);
      EXPECT_LE(line.size(), 80u) << line;
      EXPECT_TRUE(line.empty() || line.back() != ' ') << line;
    }
  }
}

template <typename E>
void ExpectRoundTrip(NameTable<E> table, size_t count) {
  EXPECT_EQ(table.size(), count);
  for (const EnumName<E>& e : table) {
    E parsed{};
    ASSERT_TRUE(ParseName<E>(table, e.name, &parsed)) << e.name;
    EXPECT_EQ(parsed, e.value);
    EXPECT_STREQ(NameOf<E>(table, e.value), e.name);
  }
  E untouched = table[0].value;
  EXPECT_FALSE(ParseName<E>(table, "bogus", &untouched));
  EXPECT_EQ(untouched, table[0].value);
}

TEST(Names, RoundTripAllFiveEnums) {
  ExpectRoundTrip<ProtocolKind>(kProtocolNames, 6);
  ExpectRoundTrip<AppScale>(kAppScaleNames, 3);
  ExpectRoundTrip<HomePolicy>(kHomePolicyNames, 3);
  ExpectRoundTrip<DiffPolicy>(kDiffPolicyNames, 2);
  ExpectRoundTrip<TestMutation>(kTestMutationNames, 3);
  EXPECT_STREQ(HomePolicyName(HomePolicy::kRoundRobin), "round-robin");
  EXPECT_STREQ(DiffPolicyName(DiffPolicy::kLazy), "lazy");
  EXPECT_STREQ(TestMutationName(TestMutation::kLrcSkipInvalidate), "lrc-skip-invalidate");
  EXPECT_STREQ(ProtocolName(ProtocolKind::kOhlrc), "OHLRC");  // Display spelling.
}

TEST(ValidateConfig, AcceptsDefaultsAndBenchBaseConfigs) {
  EXPECT_EQ(ValidateConfig(SimConfig{}), "");
  bench::BenchOptions opts;
  opts.fault_drop = 0.01;
  opts.coalesce = true;
  for (const EnumName<ProtocolKind>& p : kProtocolNames) {
    for (int nodes : {1, 8, 64}) {
      EXPECT_EQ(ValidateConfig(bench::BaseConfig(bench::BenchOptions{}, p.value, nodes)), "");
      EXPECT_EQ(ValidateConfig(bench::BaseConfig(opts, p.value, nodes)), "");
    }
  }
  EXPECT_EQ(ValidateConfig(ToSimConfig(CheckConfig{})), "");
}

TEST(ValidateConfig, RejectsEachProbeNamingTheField) {
  const struct {
    const char* field;
    void (*mutate)(SimConfig*);
  } probes[] = {
      {"nodes", [](SimConfig* c) { c->nodes = 0; }},
      {"nodes", [](SimConfig* c) { c->nodes = -3; }},
      {"nodes", [](SimConfig* c) { c->nodes = kMaxNodes + 1; }},
      {"page_size", [](SimConfig* c) { c->page_size = 1000; }},
      {"page_size", [](SimConfig* c) { c->page_size = 0; }},
      {"page_size", [](SimConfig* c) { c->page_size = 100; }},
      {"page_size", [](SimConfig* c) { c->page_size = -4096; }},
      {"shared_bytes", [](SimConfig* c) { c->shared_bytes = 4096 * 3 + 512; }},
      {"fault.drop_prob", [](SimConfig* c) { c->fault.drop_prob = 1.5; }},
      {"fault.drop_prob", [](SimConfig* c) { c->fault.drop_prob = 3; }},
      {"fault.dup_prob", [](SimConfig* c) { c->fault.dup_prob = 2; }},
      {"fault.delay_prob", [](SimConfig* c) { c->fault.delay_prob = -0.5; }},
      {"fault.corrupt_prob", [](SimConfig* c) { c->fault.corrupt_prob = 1.01; }},
      {"fault.dup_prob", [](SimConfig* c) { c->fault.dup_prob = 0.1; }},  // No reliability.
      {"reliability.max_retries",
       [](SimConfig* c) {
         c->reliability.enabled = true;
         c->reliability.max_retries = -1;
       }},
      {"reliability.retry_timeout",
       [](SimConfig* c) {
         c->reliability.enabled = true;
         c->reliability.retry_timeout = 0;
       }},
      {"reliability.retry_timeout",
       [](SimConfig* c) {
         c->reliability.enabled = true;
         c->reliability.piggyback_acks = true;
         c->reliability.retry_timeout = Micros(1000);
       }},
      {"protocol.gc_threshold_bytes", [](SimConfig* c) { c->protocol.gc_threshold_bytes = -5; }},
  };
  for (const auto& probe : probes) {
    SimConfig cfg;
    probe.mutate(&cfg);
    const std::string why = ValidateConfig(cfg);
    EXPECT_NE(why.find(probe.field), std::string::npos) << probe.field << ": '" << why << "'";
    EXPECT_EQ(why.find('\n'), std::string::npos) << "one-line reason";
  }
}

// The bench parse path: --help's table, then the machine of every point.
TEST(BenchArgs, RejectsProbes) {
  for (const char* bad : {"--nodes=0", "--nodes=x", "--nodes=", "--protocols=bogus",
                          "--apps=bogus", "--page-size=1000", "--fault-drop=1.5",
                          "--jobs=-1", "--scale=huge", "--home=nowhere", "--barrier-arity=-2",
                          "--verify"}) {
    std::vector<std::string> args = {"bench", bad};
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    bench::BenchOptions opts;
    EXPECT_NE(bench::ParseArgs(static_cast<int>(argv.size()), argv.data(), &opts), "") << bad;
  }
}

// A benchmark comparing a fixed protocol pair (table5_traffic: LRC vs HLRC)
// runs both by default, only the listed ones under --protocols, and rejects
// a list naming any other protocol with a one-line reason naming the pair.
TEST(BenchArgs, SelectProtocolsHonoursTheFlag) {
  const std::vector<ProtocolKind> pair = {ProtocolKind::kLrc, ProtocolKind::kHlrc};
  auto select = [&pair](std::vector<std::string> args, std::vector<ProtocolKind>* out) {
    args.insert(args.begin(), "bench");
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    bench::BenchOptions opts;
    EXPECT_EQ(bench::ParseArgs(static_cast<int>(argv.size()), argv.data(), &opts), "");
    return bench::SelectProtocols(opts, pair, out);
  };
  std::vector<ProtocolKind> got;
  EXPECT_EQ(select({"--nodes=8"}, &got), "");
  EXPECT_EQ(got, pair);
  EXPECT_EQ(select({"--protocols=hlrc"}, &got), "");
  EXPECT_EQ(got, std::vector<ProtocolKind>{ProtocolKind::kHlrc});
  EXPECT_EQ(select({"--protocols=hlrc,lrc"}, &got), "");
  EXPECT_EQ(got, pair);
  for (const char* bad : {"--protocols=olrc", "--protocols=lrc,aurc", "--protocols=erc"}) {
    const std::string why = select({bad}, &got);
    EXPECT_NE(why.find("lrc and hlrc"), std::string::npos) << bad << ": '" << why << "'";
    EXPECT_EQ(why.find('\n'), std::string::npos) << bad;
  }
}

// --jobs bounds are checked at parse level only: no sweep is launched.
TEST(CheckArgs, JobsSeedsAndRounds) {
  auto parse = [](std::vector<std::string> args) {
    CheckOptions o;
    FlagTable flags(kCheckTool);
    AddCheckFlags(&flags, &o);
    std::string err = ParseArgv(flags, std::move(args));
    return err.empty() ? FinishCheckOptions(&o) : err;
  };
  EXPECT_EQ(parse({"--jobs=0"}), "");
  EXPECT_EQ(parse({"--jobs=" + std::to_string(kMaxJobs)}), "");
  EXPECT_NE(parse({"--jobs=" + std::to_string(kMaxJobs + 1)}), "");
  EXPECT_NE(parse({"--jobs=-4"}), "");
  EXPECT_NE(parse({"--jobs=99999999999"}), "");
  for (const char* bad : {"--seeds=0", "--seeds=abc", "--seeds=-1", "--rounds=0", "--nodes=1",
                          "--page-size=0", "--page-size=1000", "--fault-drop=2",
                          "--litmus=bogus", "--protocols=bogus", "--mutation=bogus"}) {
    EXPECT_NE(parse({bad}), "") << bad;
  }
  // Litmus preconditions and shared-space fit, checked before any seed runs.
  EXPECT_EQ(parse({"--page-size=8"}), "false-sharing needs 8 * nodes <= page size, got 8 * 4 > 8");
  EXPECT_EQ(parse({"--page-size=1048576"}),
            "message-passing needs 8388608 bytes of shared space with 1048576-byte pages, but "
            "the space has 1048576");
  EXPECT_EQ(parse({"--page-size=1048576", "--litmus=false-sharing"}), "");
  EXPECT_EQ(parse({"--replay-seed=3"}), "--replay-seed requires --limit");
  EXPECT_EQ(parse({"--limit=3"}), "--limit requires --replay-seed");
  EXPECT_EQ(parse({"--replay-seed=3", "--limit=4", "--protocols=all", "--litmus=all"}), "");
}

// An app whose page-aligned arrays outgrow the shared space is rejected from
// its allocation plan, naming the bytes, before any System exists.
TEST(SimArgs, SharedSpaceShortfallIsRejectedBeforeTheRun) {
  auto prepare = [](std::vector<std::string> args) {
    SimOptions o;
    FlagTable flags(kSimTool);
    AddSimFlags(&flags, &o);
    std::string err = ParseArgv(flags, std::move(args));
    SimRun run;
    return err.empty() ? PrepareSimRun(o, &run) : err;
  };
  EXPECT_EQ(prepare({"--app=sor", "--scale=tiny", "--page-size=268435456"}),
            "SOR needs 268566528 bytes of shared space with 268435456-byte pages, but the "
            "space has 268435456");
  // LU's one array fits the one page.
  EXPECT_EQ(prepare({"--app=lu", "--scale=tiny", "--page-size=268435456"}), "");
  EXPECT_EQ(prepare({"--app=sor", "--scale=tiny"}), "");
}

TEST(CheckArgs, DefaultsMatchTheDocumentedSweep) {
  CheckOptions o;
  FlagTable flags(kCheckTool);
  AddCheckFlags(&flags, &o);
  ASSERT_EQ(ParseArgv(flags, {"--litmus=,message-passing,,"}), "");
  ASSERT_EQ(FinishCheckOptions(&o), "");
  EXPECT_EQ(o.litmus, (std::vector<std::string>{"message-passing"}));
  EXPECT_EQ(o.protocols, (std::vector<ProtocolKind>{ProtocolKind::kLrc, ProtocolKind::kErc,
                                                     ProtocolKind::kHlrc, ProtocolKind::kAurc}));
  const CheckConfig cfg = MakeCheckConfig(o, o.litmus[0], ProtocolKind::kHlrc);
  EXPECT_EQ(cfg.nodes, 4);
  EXPECT_EQ(cfg.page_size, 512);
  EXPECT_EQ(cfg.max_jitter, Micros(150));
  EXPECT_FALSE(cfg.reliability.enabled);
}

}  // namespace
}  // namespace hlrc
