#include "src/apps/sor.h"

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/svm/partition.h"

namespace hlrc {
namespace {

// One relaxation of a row from its three source rows; `up`/`down` are
// nullptr at the grid's edges. 4 flops per element.
void SweepRow(double* dst, const double* up, const double* mid, const double* down, int cols) {
  for (int j = 0; j < cols; ++j) {
    const double u = up != nullptr ? up[j] : 0.0;
    const double d = down != nullptr ? down[j] : 0.0;
    const double left = j > 0 ? mid[j - 1] : 0.0;
    const double right = j < cols - 1 ? mid[j + 1] : 0.0;
    dst[j] = 0.25 * (u + d + left + right);
  }
}

// One red-black relaxation sweep over [first, last] of `dst`, reading `src`.
void SweepRows(double* dst, const double* src, int cols, int first, int last, int rows) {
  for (int i = first; i <= last; ++i) {
    const double* mid = src + static_cast<ptrdiff_t>(i) * cols;
    SweepRow(dst + static_cast<ptrdiff_t>(i) * cols, i > 0 ? mid - cols : nullptr, mid,
             i < rows - 1 ? mid + cols : nullptr, cols);
  }
}

}  // namespace

void SorApp::Setup(System& sys) {
  const int64_t bytes = static_cast<int64_t>(cfg_.rows) * cfg_.cols * 8;
  red_ = sys.space().AllocPageAligned(bytes);
  black_ = sys.space().AllocPageAligned(bytes);
}

GlobalAddr SorApp::RowAddr(GlobalAddr base, int row) const {
  return base + static_cast<GlobalAddr>(row) * static_cast<GlobalAddr>(cfg_.cols) * 8;
}

void SorApp::BandOf(int rows, int nodes, NodeId id, int* first, int* last) {
  const Band band = hlrc::BandOf(rows, nodes, id);
  *first = band.first;
  *last = band.last;
}

void SorApp::InitRow(double* row_red, double* row_black, int row) const {
  if (cfg_.zero_interior) {
    // Paper §4.8: zeros except at the edges. The interior stays zero for many
    // iterations, so early writes change nothing and produce no diffs.
    const double edge = (row == 0 || row == cfg_.rows - 1) ? 1.0 : 0.0;
    for (int j = 0; j < cfg_.cols; ++j) {
      row_red[j] = row_black[j] = edge;
    }
  } else {
    // Per-row seeding so each node can initialize its own band (the home
    // effect requires owners to write their own partitions).
    Rng rng(cfg_.seed + static_cast<uint64_t>(row) * 2654435761u);
    for (int j = 0; j < cfg_.cols; ++j) {
      row_red[j] = rng.NextDouble();
    }
    for (int j = 0; j < cfg_.cols; ++j) {
      row_black[j] = rng.NextDouble();
    }
  }
}

Task<void> SorApp::NodeMain(NodeContext& ctx) {
  const int64_t row_bytes = static_cast<int64_t>(cfg_.cols) * 8;
  int first = 0;
  int last = 0;
  BandOf(cfg_.rows, ctx.nodes(), ctx.id(), &first, &last);
  const int band_rows = last - first + 1;

  // Distributed initialization: every node initializes its own band, so the
  // writer of each page is its home under block placement.
  {
    const std::vector<NodeContext::Range> ranges0 = {
        {RowAddr(red_, first), band_rows * row_bytes, true},
        {RowAddr(black_, first), band_rows * row_bytes, true}};
    co_await ctx.Access(ranges0);
    for (int i = first; i <= last; ++i) {
      InitRow(ctx.Ptr<double>(RowAddr(red_, i)), ctx.Ptr<double>(RowAddr(black_, i)), i);
    }
    co_await ctx.ComputeFlops(2ll * band_rows * cfg_.cols);
  }
  co_await ctx.Barrier(0);

  for (int iter = 0; iter < cfg_.iterations; ++iter) {
    // Red sweep reads black rows [first-1, last+1].
    {
      const int rfirst = std::max(first - 1, 0);
      const int rlast = std::min(last + 1, cfg_.rows - 1);
      const std::vector<NodeContext::Range> ranges1 = {{RowAddr(black_, rfirst), (rlast - rfirst + 1) * row_bytes, false},
                           {RowAddr(red_, first), band_rows * row_bytes, true}};
      co_await ctx.Access(ranges1);
      SweepRows(ctx.Ptr<double>(red_), ctx.Ptr<double>(black_), cfg_.cols, first, last,
                cfg_.rows);
      co_await ctx.ComputeFlops(4ll * band_rows * cfg_.cols);
    }
    co_await ctx.Barrier(1);
    // Black sweep reads red rows [first-1, last+1].
    {
      const int rfirst = std::max(first - 1, 0);
      const int rlast = std::min(last + 1, cfg_.rows - 1);
      const std::vector<NodeContext::Range> ranges2 = {{RowAddr(red_, rfirst), (rlast - rfirst + 1) * row_bytes, false},
                           {RowAddr(black_, first), band_rows * row_bytes, true}};
      co_await ctx.Access(ranges2);
      SweepRows(ctx.Ptr<double>(black_), ctx.Ptr<double>(red_), cfg_.cols, first, last,
                cfg_.rows);
      co_await ctx.ComputeFlops(4ll * band_rows * cfg_.cols);
    }
    co_await ctx.Barrier(2);
  }
}

System::Program SorApp::Program() {
  return [this](NodeContext& ctx) -> Task<void> { return NodeMain(ctx); };
}

bool SorApp::Verify(System& sys, std::string* why) {
  // The sequential reference, streamed as a row wavefront. Grid 0 and 1 are
  // the initial red and black grids; grid 2k is red after k sweeps, computed
  // from grid 2k-1, and grid 2k+1 black after k sweeps, from grid 2k. Row i
  // of a grid needs rows i-1..i+1 of the grid before it only, so each grid
  // keeps a ring of its last three rows, grid g runs g-1 rows behind the
  // initialization, and the final red and black row i are checked as soon as
  // both exist: O(iterations x cols) memory instead of two full grids.
  const int rows = cfg_.rows;
  const int cols = cfg_.cols;
  const int grids = 2 * cfg_.iterations + 2;
  std::vector<double> ring(static_cast<size_t>(grids) * 3 * static_cast<size_t>(cols));
  auto row = [&](int grid, int i) {
    return &ring[(static_cast<size_t>(grid) * 3 + static_cast<size_t>(i % 3)) *
                 static_cast<size_t>(cols)];
  };
  for (int step = 0; step < rows + grids - 2; ++step) {
    if (step < rows) {
      InitRow(row(0, step), row(1, step), step);
    }
    for (int grid = 2; grid < grids; ++grid) {
      const int i = step - (grid - 1);
      if (i < 0 || i >= rows) {
        continue;
      }
      SweepRow(row(grid, i), i > 0 ? row(grid - 1, i - 1) : nullptr, row(grid - 1, i),
               i < rows - 1 ? row(grid - 1, i + 1) : nullptr, cols);
    }
    // Each row's final values live at the row's owner.
    const int i = step - (grids - 2);
    if (i < 0) {
      continue;
    }
    const NodeId n = BandOwner(rows, sys.config().nodes, i);
    const double* red = reinterpret_cast<const double*>(sys.NodeMemory(n, RowAddr(red_, i)));
    const double* black = reinterpret_cast<const double*>(sys.NodeMemory(n, RowAddr(black_, i)));
    const double* ref_red = row(grids - 2, i);
    const double* ref_black = row(grids - 1, i);
    for (int j = 0; j < cols; ++j) {
      if (red[j] != ref_red[j] || black[j] != ref_black[j]) {
        if (why != nullptr) {
          *why = "SOR: node " + std::to_string(n) + " row " + std::to_string(i) + " col " +
                 std::to_string(j) + " mismatch";
        }
        return false;
      }
    }
  }
  return true;
}

namespace {
const AppRegistrar kSorRegistrar("sor", [](AppScale scale, std::optional<uint64_t> seed) {
  SorConfig cfg;
  switch (scale) {
    case AppScale::kTiny:
      cfg.rows = 128;
      cfg.cols = 128;
      cfg.iterations = 4;
      break;
    case AppScale::kDefault:
      cfg.rows = 2048;
      cfg.cols = 1024;
      cfg.iterations = 20;
      break;
    case AppScale::kPaper:
      cfg.rows = 2048;
      cfg.cols = 2048;
      cfg.iterations = 51;
      break;
  }
  if (seed) {
    cfg.seed = *seed;
  }
  return std::make_unique<SorApp>(cfg);
});
}  // namespace

}  // namespace hlrc
