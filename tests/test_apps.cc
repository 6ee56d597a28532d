// Application correctness: every benchmark verifies against its sequential
// reference under every protocol and several node counts.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "src/apps/app.h"
#include "src/apps/sor.h"
#include "src/apps/water_nsquared.h"
#include "src/common/rng.h"
#include "src/svm/partition.h"
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

// The full-grid sequential SOR reference Verify used before it streamed
// rows: both grids initialized, then every sweep over all rows.
void FullGridSorReference(const SorConfig& c, std::vector<double>* red,
                          std::vector<double>* black) {
  const size_t cols = static_cast<size_t>(c.cols);
  red->assign(static_cast<size_t>(c.rows) * cols, 0.0);
  black->assign(red->size(), 0.0);
  for (int i = 0; i < c.rows; ++i) {
    double* r = &(*red)[static_cast<size_t>(i) * cols];
    double* b = &(*black)[static_cast<size_t>(i) * cols];
    if (c.zero_interior) {
      const double edge = (i == 0 || i == c.rows - 1) ? 1.0 : 0.0;
      for (size_t j = 0; j < cols; ++j) {
        r[j] = b[j] = edge;
      }
    } else {
      Rng rng(c.seed + static_cast<uint64_t>(i) * 2654435761u);
      for (size_t j = 0; j < cols; ++j) {
        r[j] = rng.NextDouble();
      }
      for (size_t j = 0; j < cols; ++j) {
        b[j] = rng.NextDouble();
      }
    }
  }
  auto sweep = [&](std::vector<double>* dst, const std::vector<double>& src) {
    const int n = c.cols;
    for (int i = 0; i < c.rows; ++i) {
      for (int j = 0; j < n; ++j) {
        const double up = i > 0 ? src[(i - 1) * n + j] : 0.0;
        const double down = i < c.rows - 1 ? src[(i + 1) * n + j] : 0.0;
        const double left = j > 0 ? src[i * n + j - 1] : 0.0;
        const double right = j < n - 1 ? src[i * n + j + 1] : 0.0;
        (*dst)[i * n + j] = 0.25 * (up + down + left + right);
      }
    }
  };
  for (int iter = 0; iter < c.iterations; ++iter) {
    sweep(red, *black);
    sweep(black, *red);
  }
}

// Verify streams the reference as a row wavefront. On uneven bands, one-row
// bands, zero iterations and the zero-interior variant, the final grids at
// the row owners equal the full-grid reference bit for bit and Verify
// agrees; a corrupted word is reported as the first mismatch in row-major
// order with the message format unchanged.
TEST(Sor, StreamedVerifyMatchesFullGridReference) {
  struct Case {
    int rows, cols, iterations, nodes;
    bool zero_interior;
  };
  for (const Case& k : {Case{37, 13, 3, 5, false}, Case{16, 8, 0, 3, false},
                        Case{24, 9, 2, 4, true}, Case{5, 5, 2, 4, false},
                        Case{1, 1, 1, 1, false}}) {
    SorConfig sc;
    sc.rows = k.rows;
    sc.cols = k.cols;
    sc.iterations = k.iterations;
    sc.zero_interior = k.zero_interior;
    SorApp app(sc);
    SimConfig cfg;
    cfg.nodes = k.nodes;
    cfg.page_size = 1024;
    cfg.shared_bytes = 4ll << 20;
    cfg.protocol.kind = ProtocolKind::kHlrc;
    System sys(cfg);
    app.Setup(sys);
    sys.Run(app.Program());
    std::string why;
    ASSERT_TRUE(app.Verify(sys, &why)) << why;

    std::vector<double> ref_red;
    std::vector<double> ref_black;
    FullGridSorReference(sc, &ref_red, &ref_black);
    const size_t row_bytes = static_cast<size_t>(k.cols) * 8;
    auto at = [&](GlobalAddr base, int row, int col) {
      const NodeId owner = BandOwner(k.rows, k.nodes, row);
      return reinterpret_cast<double*>(
          sys.NodeMemory(owner, base + static_cast<GlobalAddr>(row) * row_bytes +
                                    static_cast<GlobalAddr>(col) * 8));
    };
    for (int i = 0; i < k.rows; ++i) {
      const size_t off = static_cast<size_t>(i) * static_cast<size_t>(k.cols);
      EXPECT_EQ(std::memcmp(at(app.red_addr(), i, 0), &ref_red[off], row_bytes), 0) << i;
      EXPECT_EQ(std::memcmp(at(app.black_addr(), i, 0), &ref_black[off], row_bytes), 0) << i;
    }

    const int mid = k.rows / 2;
    for (const auto& [base, row, col] :
         {std::tuple{app.red_addr(), 0, 0}, std::tuple{app.black_addr(), mid, k.cols / 2},
          std::tuple{app.black_addr(), k.rows - 1, k.cols - 1}}) {
      double* word = at(base, row, col);
      const double saved = *word;
      *word = saved + 1.0;
      why.clear();
      EXPECT_FALSE(app.Verify(sys, &why));
      EXPECT_EQ(why, "SOR: node " + std::to_string(BandOwner(k.rows, k.nodes, row)) + " row " +
                         std::to_string(row) + " col " + std::to_string(col) + " mismatch");
      *word = saved;
    }
    // Two bad words: the earlier in row-major order is the one reported.
    double* late = at(app.red_addr(), k.rows - 1, k.cols - 1);
    double* early = at(app.black_addr(), mid, 0);
    const double late_saved = *late;
    const double early_saved = *early;
    *late += 1.0;
    *early += 1.0;
    EXPECT_FALSE(app.Verify(sys, &why));
    EXPECT_EQ(why, "SOR: node " + std::to_string(BandOwner(k.rows, k.nodes, mid)) + " row " +
                       std::to_string(mid) + " col 0 mismatch");
    *late = late_saved;
    *early = early_saved;
    EXPECT_TRUE(app.Verify(sys, nullptr));
  }
}

}  // namespace
}  // namespace hlrc
