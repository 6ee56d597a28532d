// Application correctness: every benchmark verifies against its sequential
// reference under every protocol and several node counts.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>

#include "src/apps/app.h"
#include "src/apps/water_nsquared.h"
#include "tests/test_util.h"

namespace hlrc {
namespace {

using AppCase = std::tuple<std::string, ProtocolKind, int>;

class AppCorrectnessTest : public ::testing::TestWithParam<AppCase> {};

TEST_P(AppCorrectnessTest, VerifiesAgainstSequentialReference) {
  const auto& [name, kind, nodes] = GetParam();
  auto app = MakeApp(name, AppScale::kTiny);
  SimConfig cfg;
  cfg.nodes = nodes;
  cfg.page_size = 1024;
  cfg.shared_bytes = 16ll << 20;
  cfg.protocol.kind = kind;
  const AppRunResult result = RunApp(*app, cfg);
  EXPECT_TRUE(result.verified) << result.why;
  EXPECT_GT(result.report.total_time, 0);
}

std::vector<AppCase> AllCases() {
  std::vector<AppCase> cases;
  for (const std::string& name : AllAppNames()) {
    for (ProtocolKind kind : testing::AllProtocols()) {
      for (int nodes : {1, 4, 8, 16}) {
        cases.emplace_back(name, kind, nodes);
      }
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<AppCase>& info) {
  std::string n = std::get<0>(info.param);
  for (char& c : n) {
    if (c == '-') {
      c = '_';
    }
  }
  return n + "_" + ProtocolName(std::get<1>(info.param)) + "_" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppCorrectnessTest, ::testing::ValuesIn(AllCases()),
                         CaseName);

uint64_t Fnv1a64(const std::byte* bytes, size_t n, uint64_t h) {
  for (size_t k = 0; k < n; ++k) {
    h ^= static_cast<uint8_t>(bytes[k]);
    h *= 1099511628211ull;
  }
  return h;
}

struct WaterNsqFinalState {
  uint64_t hash = 0;
  SimTime total_time = 0;
  bool verified = false;
};

// 1024 molecules on 8 nodes: each node's force rows span more than one
// kernel chunk, and the last nodes' rows wrap past molecule n-1.
WaterNsqFinalState RunPinnedWaterNsq(ProtocolKind kind) {
  WaterNsqConfig wc;
  wc.molecules = 1024;
  wc.steps = 2;
  WaterNsqApp app(wc);
  SimConfig cfg;
  cfg.nodes = 8;
  cfg.page_size = 1024;
  cfg.shared_bytes = 16ll << 20;
  cfg.protocol.kind = kind;
  System sys(cfg);
  app.Setup(sys);
  sys.Run(app.Program());
  WaterNsqFinalState out;
  out.total_time = sys.report().total_time;
  out.verified = app.Verify(sys, nullptr);
  const int per = wc.molecules / cfg.nodes;
  const size_t band = static_cast<size_t>(per) * 24;
  uint64_t h = 14695981039346656037ull;
  for (NodeId node = 0; node < cfg.nodes; ++node) {
    const GlobalAddr off = static_cast<GlobalAddr>(node) * band;
    h = Fnv1a64(sys.NodeMemory(node, app.pos_addr() + off), band, h);
    h = Fnv1a64(sys.NodeMemory(node, app.vel_addr() + off), band, h);
  }
  out.hash = h;
  return out;
}

// The owned position/velocity bytes, virtual run time and verification
// outcome are pinned: any change to the force arithmetic or its summation
// order shows up here even when Verify's tolerance would absorb it.
TEST(WaterNsq, FinalStateIsPinned) {
  const WaterNsqFinalState lrc = RunPinnedWaterNsq(ProtocolKind::kLrc);
  EXPECT_EQ(lrc.hash, 15623198349653899055ull);
  EXPECT_EQ(lrc.total_time, 543922112);
  EXPECT_TRUE(lrc.verified);
  const WaterNsqFinalState hlrc = RunPinnedWaterNsq(ProtocolKind::kHlrc);
  EXPECT_EQ(hlrc.hash, 15354062454014620818ull);
  EXPECT_EQ(hlrc.total_time, 416105104);
  EXPECT_TRUE(hlrc.verified);
}

TEST(WaterNsq, ValidateRequiresMoleculesDivisibleByNodes) {
  auto app = MakeApp("water-nsq", AppScale::kTiny);  // 128 molecules.
  SimConfig cfg;
  cfg.nodes = 3;
  EXPECT_NE(app->Validate(cfg).find("divisible"), std::string::npos);
  cfg.nodes = 8;
  EXPECT_EQ(app->Validate(cfg), "");
  // Apps without preconditions accept any node count.
  cfg.nodes = 3;
  EXPECT_EQ(MakeApp("sor", AppScale::kTiny)->Validate(cfg), "");
}

}  // namespace
}  // namespace hlrc
