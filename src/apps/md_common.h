// Shared molecular-dynamics helpers for the two Water applications.
#ifndef SRC_APPS_MD_COMMON_H_
#define SRC_APPS_MD_COMMON_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace hlrc {
namespace md {

inline double Wrap(double d, double box) {
  if (d > box / 2) {
    return d - box;
  }
  if (d < -box / 2) {
    return d + box;
  }
  return d;
}

// Pairs beyond the cutoff, and coincident molecules, exert no force.
// Written as the negated rejection test, so a NaN r2 behaves as it always has.
inline bool Interacts(double r2, double cutoff2) { return !(r2 >= cutoff2 || r2 < 1e-12); }

// Force magnitude (per unit displacement) of an interacting pair.
// Strongly softened so the force stays bounded (|f| <= ~8), and smoothly
// switched to zero at the cutoff. Both matter for verification: different
// protocols accumulate forces in different lock-grant orders, and with a
// discontinuous force a 1-ulp difference could flip a pair across the
// cutoff and produce a visible divergence. With a Lipschitz force the
// reassociation noise stays near machine epsilon.
inline double PairMagnitude(double r2, double cutoff2) {
  const double inv2 = 1.0 / (r2 + 1.0);
  const double inv6 = inv2 * inv2 * inv2;
  const double window = 1.0 - r2 / cutoff2;
  return 8.0 * inv6 * (2.0 * inv6 - 1.0) * inv2 * window * window;
}

// Soft Lennard-Jones-like pair force on molecule i from j with a cutoff.
// Returns the flop count performed (cutoff-rejected pairs cost the distance
// computation only).
inline int64_t PairForce(const double* pos, int i, int j, double box, double cutoff2,
                         double* fx, double* fy, double* fz) {
  const double dx = Wrap(pos[i * 3 + 0] - pos[j * 3 + 0], box);
  const double dy = Wrap(pos[i * 3 + 1] - pos[j * 3 + 1], box);
  const double dz = Wrap(pos[i * 3 + 2] - pos[j * 3 + 2], box);
  const double r2 = dx * dx + dy * dy + dz * dz;
  if (!Interacts(r2, cutoff2)) {
    *fx = *fy = *fz = 0;
    return 12;
  }
  const double mag = PairMagnitude(r2, cutoff2);
  *fx = mag * dx;
  *fy = mag * dy;
  *fz = mag * dz;
  return 40;
}

// Molecules per PairForceRow chunk: the distance pass fills four
// stack arrays of this length (8 KiB together).
inline constexpr int kPairChunk = 256;

// The force between molecule i and every j in [jb, je) (i outside it):
// adds each pair's force to fi = {fx, fy, fz} of i and subtracts it from
// f[3j..3j+2]. Bit-identical to calling PairForce for each j in order and
// applying `fi += F; f[j] -= F` with every result, provided the
// accumulators never hold -0.0 (true when they start at +0.0, since under
// round-to-nearest a sum is -0.0 only if both operands are): rejected
// pairs then contribute an exact no-op +0.0, and are skipped. Returns the
// flops those PairForce calls would report.
//
// Positions come as structure-of-arrays so the branch-free distance pass
// vectorizes: Wrap's result is d - s with s in {box, -box, +0.0} picked by
// the same two comparisons, exact because d - (+0.0) == d (also for -0.0)
// and d - (-box) == d + box.
inline int64_t PairForceRow(const double* x, const double* y, const double* z, int i, int jb,
                            int je, double box, double cutoff2, double* fi, double* f) {
  const double xi = x[i];
  const double yi = y[i];
  const double zi = z[i];
  const double hi = box / 2;
  const double lo = -box / 2;
  // s is assembled from bit masks: GCC turns a floating-point select (or a
  // bool-to-double product) back into branches around the subtraction, and
  // trapping-math then forbids if-converting them.
  const uint64_t box_bits = std::bit_cast<uint64_t>(box);
  const uint64_t neg_bits = std::bit_cast<uint64_t>(-box);
  const auto shift = [hi, lo, box_bits, neg_bits](double d) {
    return std::bit_cast<double>((d > hi ? box_bits : 0) | (d < lo ? neg_bits : 0));
  };
  double ax = fi[0];
  double ay = fi[1];
  double az = fi[2];
  int64_t flops = 0;
  double dx[kPairChunk];
  double dy[kPairChunk];
  double dz[kPairChunk];
  double r2[kPairChunk];
  for (int cb = jb; cb < je; cb += kPairChunk) {
    const int len = std::min(kPairChunk, je - cb);
    const double* xj = x + cb;
    const double* yj = y + cb;
    const double* zj = z + cb;
    for (int k = 0; k < len; ++k) {
      const double ex = xi - xj[k];
      const double ey = yi - yj[k];
      const double ez = zi - zj[k];
      dx[k] = ex - shift(ex);
      dy[k] = ey - shift(ey);
      dz[k] = ez - shift(ez);
      r2[k] = dx[k] * dx[k] + dy[k] * dy[k] + dz[k] * dz[k];
    }
    flops += 12ll * len;
    for (int k = 0; k < len; ++k) {
      if (!Interacts(r2[k], cutoff2)) {
        continue;
      }
      const double mag = PairMagnitude(r2[k], cutoff2);
      const double fx = mag * dx[k];
      const double fy = mag * dy[k];
      const double fz = mag * dz[k];
      ax += fx;
      ay += fy;
      az += fz;
      double* fj = f + static_cast<size_t>(cb + k) * 3;
      fj[0] -= fx;
      fj[1] -= fy;
      fj[2] -= fz;
      flops += 28;
    }
  }
  fi[0] = ax;
  fi[1] = ay;
  fi[2] = az;
  return flops;
}

}  // namespace md
}  // namespace hlrc

#endif  // SRC_APPS_MD_COMMON_H_
