#include "src/apps/fft.h"

#include <cmath>

#include "src/common/rng.h"
#include "src/svm/partition.h"

namespace hlrc {
namespace {

constexpr double kTau = 6.283185307179586476925286766559;

bool IsPow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

}  // namespace

void FftApp::Allocate(SharedSpace& space, const SimConfig& /*config*/) {
  HLRC_CHECK(IsPow2(cfg_.n));
  const int64_t bytes = static_cast<int64_t>(cfg_.n) * cfg_.n * static_cast<int64_t>(sizeof(Cplx));
  a_ = space.AllocPageAligned(bytes);
  b_ = space.AllocPageAligned(bytes);
}

FftApp::Cplx FftApp::InitValue(int i, int j) const {
  Rng rng(cfg_.seed ^ (static_cast<uint64_t>(i) * 2654435761u + static_cast<uint64_t>(j)));
  return Cplx(rng.NextDouble() - 0.5, rng.NextDouble() - 0.5);
}

void FftApp::BandOf(int rows, int nodes, NodeId id, int* first, int* last) {
  const Band band = hlrc::BandOf(rows, nodes, id);
  *first = band.first;
  *last = band.last;
}

// Iterative radix-2 Cooley-Tukey, in place.
void FftApp::RowFft(Cplx* row, int n) {
  // Bit reversal.
  for (int i = 1, j = 0; i < n; ++i) {
    int bit = n >> 1;
    for (; j & bit; bit >>= 1) {
      j ^= bit;
    }
    j ^= bit;
    if (i < j) {
      std::swap(row[i], row[j]);
    }
  }
  for (int len = 2; len <= n; len <<= 1) {
    const double angle = -kTau / len;
    const Cplx wlen(std::cos(angle), std::sin(angle));
    for (int i = 0; i < n; i += len) {
      Cplx w(1.0, 0.0);
      for (int k = 0; k < len / 2; ++k) {
        const Cplx u = row[i + k];
        const Cplx v = row[i + k + len / 2] * w;
        row[i + k] = u + v;
        row[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

Task<void> FftApp::NodeMain(NodeContext& ctx) {
  const int n = cfg_.n;
  const int64_t row_bytes = static_cast<int64_t>(n) * sizeof(Cplx);
  const int64_t mat_bytes = row_bytes * n;
  int first = 0;
  int last = 0;
  BandOf(n, ctx.nodes(), ctx.id(), &first, &last);
  const int band = last - first + 1;
  const int64_t fft_flops_per_row = 5ll * n * (63 - __builtin_clzll(static_cast<uint64_t>(n)));

  auto row_addr = [&](GlobalAddr base, int row) {
    return base + static_cast<GlobalAddr>(row) * static_cast<GlobalAddr>(row_bytes);
  };

  // Distributed init of the own band of A.
  co_await ctx.Write(row_addr(a_, first), band * row_bytes);
  for (int i = first; i <= last; ++i) {
    Cplx* row = ctx.Ptr<Cplx>(row_addr(a_, i));
    for (int j = 0; j < n; ++j) {
      row[j] = InitValue(i, j);
    }
  }
  co_await ctx.ComputeFlops(4ll * band * n);
  co_await ctx.Barrier(0);

  GlobalAddr src = a_;
  GlobalAddr dst = b_;

  for (int phase = 0; phase < 3; ++phase) {
    // ---- Transpose: own rows of dst gather one column each from every
    // band of src — the all-to-all exchange.
    {
      const std::vector<NodeContext::Range> grant = {
          {src, mat_bytes, false}, {row_addr(dst, first), band * row_bytes, true}};
      co_await ctx.Access(grant);
      const Cplx* s = ctx.Ptr<Cplx>(src);
      Cplx* d = ctx.Ptr<Cplx>(dst);
      for (int i = first; i <= last; ++i) {
        for (int j = 0; j < n; ++j) {
          d[static_cast<int64_t>(i) * n + j] = s[static_cast<int64_t>(j) * n + i];
        }
      }
      co_await ctx.ComputeFlops(2ll * band * n);  // Load/store traffic.
    }
    co_await ctx.Barrier(1);

    if (phase == 2) {
      break;  // Final transpose only.
    }

    // ---- Row FFTs on the own band (+ twiddles after the first phase's FFT).
    {
      co_await ctx.Write(row_addr(dst, first), band * row_bytes);
      Cplx* d = ctx.Ptr<Cplx>(dst);
      for (int i = first; i <= last; ++i) {
        RowFft(&d[static_cast<int64_t>(i) * n], n);
      }
      if (phase == 0) {
        for (int i = first; i <= last; ++i) {
          for (int j = 0; j < n; ++j) {
            const double angle = -kTau * static_cast<double>(i) * j /
                                 (static_cast<double>(n) * n);
            d[static_cast<int64_t>(i) * n + j] *= Cplx(std::cos(angle), std::sin(angle));
          }
        }
      }
      co_await ctx.ComputeFlops(band * fft_flops_per_row +
                                (phase == 0 ? 8ll * band * n : 0));
    }
    co_await ctx.Barrier(2);

    std::swap(src, dst);
  }
}

System::Program FftApp::Program() {
  return [this](NodeContext& ctx) -> Task<void> { return NodeMain(ctx); };
}

void FftApp::ReferenceTransform(std::vector<Cplx>* data) const {
  const int n = cfg_.n;
  std::vector<Cplx> tmp(data->size());
  auto transpose = [&](const std::vector<Cplx>& s, std::vector<Cplx>* d) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        (*d)[static_cast<int64_t>(i) * n + j] = s[static_cast<int64_t>(j) * n + i];
      }
    }
  };
  // Phase 0: transpose, FFT rows, twiddle.
  transpose(*data, &tmp);
  for (int i = 0; i < n; ++i) {
    RowFft(&tmp[static_cast<int64_t>(i) * n], n);
    for (int j = 0; j < n; ++j) {
      const double angle = -kTau * static_cast<double>(i) * j / (static_cast<double>(n) * n);
      tmp[static_cast<int64_t>(i) * n + j] *= Cplx(std::cos(angle), std::sin(angle));
    }
  }
  // Phase 1: transpose, FFT rows.
  transpose(tmp, data);
  for (int i = 0; i < n; ++i) {
    RowFft(&(*data)[static_cast<int64_t>(i) * n], n);
  }
  // Phase 2: final transpose.
  transpose(*data, &tmp);
  *data = std::move(tmp);
}

bool FftApp::Verify(System& sys, std::string* why) {
  const int n = cfg_.n;
  if (reference_.empty()) {
    reference_.resize(static_cast<size_t>(n) * static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        reference_[static_cast<size_t>(i) * static_cast<size_t>(n) + static_cast<size_t>(j)] =
            InitValue(i, j);
      }
    }
    ReferenceTransform(&reference_);
  }

  // After an odd number of swaps the result lives in... phases: init in A,
  // t0: A->B, fft in B, t1: B->A, fft in A, t2: A->B. Result in B; each
  // node's band of B is current at that node.
  const int64_t row_bytes = static_cast<int64_t>(n) * sizeof(Cplx);
  for (NodeId node = 0; node < sys.config().nodes; ++node) {
    int first = 0;
    int last = 0;
    BandOf(n, sys.config().nodes, node, &first, &last);
    const Cplx* got = reinterpret_cast<const Cplx*>(
        sys.NodeMemory(node, b_ + static_cast<GlobalAddr>(first) * row_bytes));
    for (int i = 0; i <= last - first; ++i) {
      for (int j = 0; j < n; ++j) {
        const Cplx want =
            reference_[(static_cast<size_t>(first + i)) * static_cast<size_t>(n) +
                       static_cast<size_t>(j)];
        const Cplx have = got[static_cast<int64_t>(i) * n + j];
        if (std::abs(have - want) > 1e-9 * (1.0 + std::abs(want))) {
          if (why != nullptr) {
            *why = "FFT: row " + std::to_string(first + i) + " col " + std::to_string(j) +
                   ": got (" + std::to_string(have.real()) + "," + std::to_string(have.imag()) +
                   ") want (" + std::to_string(want.real()) + "," +
                   std::to_string(want.imag()) + ")";
          }
          return false;
        }
      }
    }
  }
  return true;
}

namespace {
const AppRegistrar kFftRegistrar("fft", [](AppScale scale, std::optional<uint64_t> seed) {
  FftConfig cfg;
  switch (scale) {
    case AppScale::kTiny:
      cfg.n = 32;
      break;
    case AppScale::kDefault:
      cfg.n = 256;
      break;
    case AppScale::kPaper:
      cfg.n = 512;
      break;
  }
  if (seed) {
    cfg.seed = *seed;
  }
  return std::make_unique<FftApp>(cfg);
});
}  // namespace

}  // namespace hlrc
