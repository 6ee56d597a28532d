// Differential test of md::PairForceRow, the chunked two-pass pair-force
// kernel, against the per-pair md::PairForce loop it replaces: one call per
// j in order, every result accumulated (rejected pairs add +0.0). The force
// arrays must match byte for byte (so a -0.0/+0.0 mismatch fails) and the
// flop counts exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/apps/md_common.h"
#include "src/common/rng.h"

namespace hlrc {
namespace {

constexpr int kChunk = md::kPairChunk;

struct Molecules {
  std::vector<double> pos;  // Interleaved xyz, as the applications store it.
  std::vector<double> x, y, z;

  explicit Molecules(int n)
      : pos(static_cast<size_t>(n) * 3), x(static_cast<size_t>(n)), y(static_cast<size_t>(n)),
        z(static_cast<size_t>(n)) {}
  void Set(int m, double px, double py, double pz) {
    pos[static_cast<size_t>(m) * 3 + 0] = x[static_cast<size_t>(m)] = px;
    pos[static_cast<size_t>(m) * 3 + 1] = y[static_cast<size_t>(m)] = py;
    pos[static_cast<size_t>(m) * 3 + 2] = z[static_cast<size_t>(m)] = pz;
  }
};

int64_t ReferenceRow(const Molecules& mol, int i, int jb, int je, double box, double cutoff2,
                     double* f) {
  int64_t flops = 0;
  for (int j = jb; j < je; ++j) {
    double fx = 0;
    double fy = 0;
    double fz = 0;
    flops += md::PairForce(mol.pos.data(), i, j, box, cutoff2, &fx, &fy, &fz);
    f[static_cast<size_t>(i) * 3 + 0] += fx;
    f[static_cast<size_t>(i) * 3 + 1] += fy;
    f[static_cast<size_t>(i) * 3 + 2] += fz;
    f[static_cast<size_t>(j) * 3 + 0] -= fx;
    f[static_cast<size_t>(j) * 3 + 1] -= fy;
    f[static_cast<size_t>(j) * 3 + 2] -= fz;
  }
  return flops;
}

// Runs row i over [jb, je) through both implementations, starting from the
// same force array `init`, and compares the results. Returns the kernel's
// force array so callers can chain rows.
std::vector<double> ExpectRowMatches(const Molecules& mol, int i, int jb, int je, double box,
                                     double cutoff2, const std::vector<double>& init,
                                     const std::string& what) {
  std::vector<double> want = init;
  std::vector<double> got = init;
  const int64_t want_flops = ReferenceRow(mol, i, jb, je, box, cutoff2, want.data());
  const int64_t got_flops =
      md::PairForceRow(mol.x.data(), mol.y.data(), mol.z.data(), i, jb, je, box, cutoff2,
                       got.data() + static_cast<size_t>(i) * 3, got.data());
  EXPECT_EQ(got_flops, want_flops) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0) << what;
  return got;
}

std::vector<double> Zeros(int n) { return std::vector<double>(static_cast<size_t>(n) * 3, 0.0); }

TEST(MdKernel, ExactHalfBoxSeparationIsNotWrapped) {
  // d == +-box/2 exactly sits on Wrap's boundary: neither comparison fires.
  // A cutoff beyond box/2 makes those pairs interact.
  const double box = 16.0;
  Molecules mol(6);
  mol.Set(0, 8.0, 8.0, 8.0);
  mol.Set(1, 0.0, 8.0, 8.0);     // dx = +box/2.
  mol.Set(2, 16.0, 8.0, 8.0);    // dx = -box/2.
  mol.Set(3, 8.0, 0.0, 16.0);    // dy = +box/2, dz = -box/2.
  mol.Set(4, 16.5, 8.0, -0.25);  // Just past both boundaries: wrapped.
  mol.Set(5, 8.0, 8.0, 7.5);
  for (double cutoff : {4.0, 9.0, 20.0}) {
    ExpectRowMatches(mol, 0, 1, 6, box, cutoff * cutoff, Zeros(6),
                     "cutoff " + std::to_string(cutoff));
  }
}

TEST(MdKernel, CoincidentMoleculesExertNoForce) {
  Molecules mol(4);
  mol.Set(0, 3.0, 4.0, 5.0);
  mol.Set(1, 3.0, 4.0, 5.0);           // r2 == 0.
  mol.Set(2, 3.0 + 1e-7, 4.0, 5.0);    // r2 ~ 1e-14 < 1e-12.
  mol.Set(3, 3.0 + 1e-5, 4.0, 5.0);    // r2 ~ 1e-10: interacts.
  ExpectRowMatches(mol, 0, 1, 4, 16.0, 16.0, Zeros(4), "coincident");
}

TEST(MdKernel, SeparationExactlyAtCutoffIsRejected) {
  Molecules mol(4);
  mol.Set(0, 5.0, 5.0, 5.0);
  mol.Set(1, 1.0, 5.0, 5.0);                          // r2 == cutoff2 == 16.
  mol.Set(2, 5.0 - std::nextafter(4.0, 0.0), 5.0, 5.0);  // dx one ulp inside.
  mol.Set(3, 5.0, 5.0, std::nextafter(9.0, 10.0));        // Just outside.
  std::vector<double> f = ExpectRowMatches(mol, 0, 1, 4, 16.0, 16.0, Zeros(4), "cutoff edge");
  EXPECT_EQ(f[3], 0.0);
  EXPECT_NE(f[6], 0.0);
  EXPECT_EQ(f[9], 0.0);
}

TEST(MdKernel, RangeLengthsAroundTheChunk) {
  const int n = 2 * kChunk + 8;
  Molecules mol(n);
  Rng rng(11);
  for (int m = 0; m < n; ++m) {
    // A small box keeps most pairs inside the cutoff.
    mol.Set(m, rng.NextDouble() * 6.0, rng.NextDouble() * 6.0, rng.NextDouble() * 6.0);
  }
  for (int len : {0, 1, kChunk - 1, kChunk, kChunk + 1, 2 * kChunk + 1}) {
    ExpectRowMatches(mol, 0, 1, 1 + len, 6.0, 4.0, Zeros(n), "len " + std::to_string(len));
    ExpectRowMatches(mol, n - 1, n - 1 - len, n - 1, 6.0, 4.0, Zeros(n),
                     "len " + std::to_string(len) + " before i");
  }
}

TEST(MdKernel, WrappedRowsSplitIntoTwoRanges) {
  // Water-Nsquared's row i covers (i, i + n/2] mod n as [i+1, min(i+1+half, n))
  // then [0, i+1+half-n). Chaining the two pieces must match the reference
  // walking the wrapped range in the same order.
  const int n = 3 * kChunk + 5;
  const int half = n / 2;
  Molecules mol(n);
  Rng rng(12);
  for (int m = 0; m < n; ++m) {
    mol.Set(m, rng.NextDouble() * 16.0, rng.NextDouble() * 16.0, rng.NextDouble() * 16.0);
  }
  for (int i : {0, 1, n - half - 1, n - half, n - half + 1, n - 2, n - 1}) {
    const int end = i + 1 + half;
    std::vector<double> want = Zeros(n);
    int64_t want_flops = ReferenceRow(mol, i, i + 1, std::min(end, n), 16.0, 16.0, want.data());
    std::vector<double> got = Zeros(n);
    double* fi = got.data() + static_cast<size_t>(i) * 3;
    int64_t got_flops = md::PairForceRow(mol.x.data(), mol.y.data(), mol.z.data(), i, i + 1,
                                         std::min(end, n), 16.0, 16.0, fi, got.data());
    if (end > n) {
      want_flops += ReferenceRow(mol, i, 0, end - n, 16.0, 16.0, want.data());
      got_flops += md::PairForceRow(mol.x.data(), mol.y.data(), mol.z.data(), i, 0, end - n,
                                    16.0, 16.0, fi, got.data());
    }
    EXPECT_EQ(got_flops, want_flops) << "i " << i;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0) << "i " << i;
  }
}

TEST(MdKernel, RandomizedAgainstPerPairReference) {
  Rng rng(2024);
  for (int trial = 0; trial < 1000; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextDouble() * 3 * kChunk);
    const double box = 4.0 + rng.NextDouble() * 28.0;
    const double cutoff = 0.5 + rng.NextDouble() * box;
    const bool grid = rng.NextDouble() < 0.3;
    Molecules mol(n);
    for (int m = 0; m < n; ++m) {
      double c[3];
      for (double& v : c) {
        // Positions drift outside the box in the applications (they are
        // never folded back), so cover that too. Snapping to a coarse grid
        // produces exact +-box/2 separations and coincident molecules.
        v = (rng.NextDouble() * 2.0 - 0.5) * box;
        if (grid) {
          v = std::round(v * 4.0 / box) * box / 4.0;
        }
      }
      mol.Set(m, c[0], c[1], c[2]);
    }
    // Forces start at +0.0 or at earlier rows' nonzero sums.
    std::vector<double> f = Zeros(n);
    if (rng.NextDouble() < 0.5) {
      for (double& v : f) {
        v = rng.NextDouble() - 0.5;
      }
    }
    for (int row = 0; row < 3; ++row) {
      const int i = static_cast<int>(rng.NextDouble() * n);
      // A range on one side of i, as both pieces of a wrapped row are.
      int jb = 0;
      int je = 0;
      if (rng.NextDouble() < 0.5) {
        jb = i + 1 + static_cast<int>(rng.NextDouble() * (n - i - 1));
        je = jb + static_cast<int>(rng.NextDouble() * (n - jb + 1));
      } else {
        jb = static_cast<int>(rng.NextDouble() * (i + 1));
        je = jb + static_cast<int>(rng.NextDouble() * (i - jb + 1));
      }
      ASSERT_TRUE(jb <= je && je <= n && (i < jb || i >= je)) << i << " " << jb << " " << je;
      f = ExpectRowMatches(mol, i, jb, je, box, cutoff * cutoff, f,
                           "trial " + std::to_string(trial) + " row " + std::to_string(row));
    }
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
}

}  // namespace
}  // namespace hlrc
