// Random-config sweep over svmsim's and svmcheck's flag tables, in process:
// a seeded generator mixes valid flag values with known-bad ones, and every
// vector must either be rejected with a message before any System exists, or
// run to a verified result (svmsim) or a zero-violation check (svmcheck). A
// CHECK abort, SIGFPE or silently wrong run fails the test. Each vector takes
// exactly the path the tools take: FlagTable::Parse, then PrepareSimRun or
// FinishCheckOptions, then the run (skipped for an accepted svmsim vector
// whose page exceeds 1 MiB, for its host memory).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "tools/tool_flags.h"

namespace hlrc {
namespace {

struct Choice {
  const char* flag;
  std::vector<const char*> values;  // Valid and invalid spellings mixed.
};

// Draws up to `max_extra` distinct flags from `pool` after the fixed `base`.
std::vector<std::string> Draw(Rng& rng, const std::vector<std::string>& base,
                              const std::vector<Choice>& pool, int max_extra) {
  std::vector<std::string> args = base;
  std::vector<bool> used(pool.size(), false);
  const int extra = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(max_extra) + 1));
  for (int i = 0; i < extra; ++i) {
    const size_t k = rng.NextBounded(pool.size());
    if (used[k]) {
      continue;
    }
    used[k] = true;
    const Choice& c = pool[k];
    if (c.values.empty()) {
      args.push_back(c.flag);
    } else {
      args.push_back(std::string(c.flag) + "=" + c.values[rng.NextBounded(c.values.size())]);
    }
  }
  return args;
}

std::string Parse(const FlagTable& flags, const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"prog"};
  for (const std::string& a : args) {
    argv.push_back(a.c_str());
  }
  return flags.Parse(static_cast<int>(argv.size()), argv.data());
}

std::string Join(const std::vector<std::string>& args) {
  std::string s;
  for (const std::string& a : args) {
    s += " " + a;
  }
  return s;
}

TEST(ConfigSweep, SvmsimVectorsAreRejectedOrVerified) {
  const std::vector<Choice> pool = {
      {"--protocol", {"lrc", "olrc", "hlrc", "ohlrc", "erc", "aurc", "bogus"}},
      {"--nodes", {"1", "2", "3", "4", "8", "16", "0", "abc", "-2", "99999999999"}},
      {"--page-size", {"1024", "2048", "4096", "8192", "1000", "0", "100", "4k", "268435456"}},
      {"--home", {"block", "round-robin", "single-node", "nowhere"}},
      {"--diff-policy", {"eager", "lazy", "bogus"}},
      {"--gc-threshold", {"65536", "4194304", "-5", "0"}},
      {"--seed", {"1", "7", "xyz", "-1"}},
      {"--fault-drop", {"0", "0.01", "1.5", "banana"}},
      {"--fault-dup", {"0.01", "3"}},
      {"--fault-delay", {"0.05", "-1"}},
      {"--fault-seed", {"9", "nine"}},
      {"--retry-timeout", {"10000", "1000", "0"}},
      {"--retry-max", {"12", "20", "-1"}},
      {"--barrier-arity", {"0", "2", "4", "-1"}},
      {"--scale", {"tiny", "huge"}},
      {"--app", {"bogus"}},
      {"--reliable", {}},
      {"--coalesce", {}},
      {"--migrate-homes", {}},
      {"--bogus-flag", {}},
  };
  const char* apps[] = {"sor", "lu", "water-nsq", "water-sp", "raytrace", "fft"};
  Rng rng(20261019);
  int rejected = 0;
  int verified = 0;
  for (int i = 0; i < 120; ++i) {
    const std::vector<std::string> base = {
        std::string("--app=") + apps[rng.NextBounded(6)], "--scale=tiny"};
    const std::vector<std::string> args = Draw(rng, base, pool, 4);
    SCOPED_TRACE("svmsim" + Join(args));
    SimOptions o;
    FlagTable flags(kSimTool);
    AddSimFlags(&flags, &o);
    std::string why = Parse(flags, args);
    SimRun run;
    if (why.empty()) {
      why = PrepareSimRun(o, &run);
    }
    if (!why.empty()) {
      ++rejected;
      EXPECT_EQ(why.find('\n'), std::string::npos) << why;
      continue;
    }
    ASSERT_LE(run.cfg.nodes, 16);
    ASSERT_EQ(o.scale, AppScale::kTiny);
    // The 256 MiB page exists to probe the shared-space check: only an app
    // whose plan fits one page (LU) passes it, and running that costs every
    // node a frame, a twin and a fetched copy of the page (5.4 GiB of host
    // memory at 8 nodes). Accepting it cleanly is what this vector checks.
    if (run.cfg.page_size > (1 << 20)) {
      continue;
    }
    const AppRunResult r = RunApp(*run.app, run.cfg);
    EXPECT_TRUE(r.verified) << r.why;
    ++verified;
  }
  // The mix must exercise both outcomes, or the sweep proves nothing.
  EXPECT_GE(rejected, 20);
  EXPECT_GE(verified, 20);
}

TEST(ConfigSweep, SvmcheckVectorsAreRejectedOrClean) {
  const std::vector<Choice> pool = {
      {"--litmus", {"message-passing", "lock-handoff", "all", "bogus", ""}},
      {"--protocols", {"hlrc", "lrc,aurc", "erc,olrc", "all", "bogus", ",,"}},
      {"--seeds", {"1", "2", "0", "abc"}},
      {"--seed", {"1", "99", "-3"}},
      {"--nodes", {"2", "3", "4", "8", "0", "1"}},
      {"--rounds", {"1", "2", "3", "0"}},
      {"--page-size", {"256", "512", "1024", "4096", "0", "100", "8", "1048576"}},
      {"--max-jitter-us", {"0", "150", "-1"}},
      {"--fault-drop", {"0.05", "2"}},
      {"--barrier-arity", {"2", "-1"}},
      {"--jobs", {"1", "2", "-4"}},
      {"--replay-seed", {"3"}},
      {"--limit", {"40"}},
      {"--mutation", {"none", "bogus"}},
      {"--coalesce", {}},
      {"--no-permute", {}},
  };
  Rng rng(7);
  int rejected = 0;
  int clean = 0;
  for (int i = 0; i < 80; ++i) {
    // A bounded sweep: one seed unless --seeds says otherwise (at most two).
    const std::vector<std::string> args = Draw(rng, {"--seeds=1"}, pool, 5);
    SCOPED_TRACE("svmcheck" + Join(args));
    CheckOptions o;
    FlagTable flags(kCheckTool);
    AddCheckFlags(&flags, &o);
    std::string why = Parse(flags, args);
    if (why.empty()) {
      why = FinishCheckOptions(&o);
    }
    if (!why.empty()) {
      ++rejected;
      EXPECT_EQ(why.find('\n'), std::string::npos) << why;
      continue;
    }
    ASSERT_LE(o.seeds, 2);
    for (const std::string& litmus : o.litmus) {
      for (ProtocolKind protocol : o.protocols) {
        CheckConfig cfg = MakeCheckConfig(o, litmus, protocol);
        for (int s = 0; s < (o.replay ? 1 : o.seeds); ++s) {
          cfg.seed = o.replay ? o.replay_seed : o.first_seed + static_cast<uint64_t>(s);
          cfg.decision_limit = o.limit;
          const CheckResult r = RunOne(cfg);
          EXPECT_TRUE(r.ok) << litmus << " " << ProtocolName(protocol) << " seed " << cfg.seed;
          EXPECT_GT(r.reads_checked, 0);
        }
      }
    }
    ++clean;
  }
  EXPECT_GE(rejected, 15);
  EXPECT_GE(clean, 15);
}

}  // namespace
}  // namespace hlrc
