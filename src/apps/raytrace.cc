#include "src/apps/raytrace.h"

#include <cmath>
#include <cstring>

#include "src/common/rng.h"

namespace hlrc {
namespace {

constexpr int kQueueLockBase = 200;

struct Vec {
  double x, y, z;
};

Vec Sub(Vec a, Vec b) { return {a.x - b.x, a.y - b.y, a.z - b.z}; }
Vec Add(Vec a, Vec b) { return {a.x + b.x, a.y + b.y, a.z + b.z}; }
Vec Scale(Vec a, double s) { return {a.x * s, a.y * s, a.z * s}; }
double Dot(Vec a, Vec b) { return a.x * b.x + a.y * b.y + a.z * b.z; }
Vec Norm(Vec a) {
  const double len = std::sqrt(Dot(a, a));
  return len > 0 ? Scale(a, 1.0 / len) : a;
}

}  // namespace

void RaytraceApp::Allocate(SharedSpace& space, const SimConfig& config) {
  HLRC_CHECK(cfg_.width % cfg_.tile == 0 && cfg_.height % cfg_.tile == 0);
  scene_ = space.AllocPageAligned(static_cast<int64_t>(cfg_.spheres) * 64);
  image_ = space.AllocPageAligned(static_cast<int64_t>(cfg_.width) * cfg_.height * 4);
  // One queue per node, sized to hold every tile: [head, tail, entries...].
  queue_ints_ = 2 + NumTiles();
  queues_ = space.AllocPageAligned(static_cast<int64_t>(queue_ints_) * 4 * config.nodes);
}

GlobalAddr RaytraceApp::QueueAddr(NodeId q) const {
  return queues_ + static_cast<GlobalAddr>(q) * static_cast<GlobalAddr>(queue_ints_) * 4;
}

GlobalAddr RaytraceApp::PixelAddr(int x, int y) const {
  return image_ + (static_cast<GlobalAddr>(y) * static_cast<GlobalAddr>(cfg_.width) +
                   static_cast<GlobalAddr>(x)) *
                      4;
}

void RaytraceApp::BuildScene(Sphere* spheres) const {
  Rng rng(cfg_.seed);
  for (int s = 0; s < cfg_.spheres; ++s) {
    Sphere& sp = spheres[s];
    sp.cx = rng.NextDouble() * 8 - 4;
    sp.cy = rng.NextDouble() * 8 - 4;
    sp.cz = 4 + rng.NextDouble() * 10;
    sp.r = 0.3 + rng.NextDouble() * 1.2;
    sp.cr = 0.2 + 0.8 * rng.NextDouble();
    sp.cg = 0.2 + 0.8 * rng.NextDouble();
    sp.cb = 0.2 + 0.8 * rng.NextDouble();
    sp.reflect = rng.NextDouble() * 0.6;
  }
}

uint32_t RaytraceApp::TracePixel(const Sphere* scene, int px, int py, int64_t* flops) const {
  // Camera at origin looking down +z.
  Vec color{0.05, 0.05, 0.08};  // Background.
  Vec origin{0, 0, 0};
  Vec dir = Norm({(px + 0.5) / cfg_.width * 2 - 1, (py + 0.5) / cfg_.height * 2 - 1, 1.5});
  double weight = 1.0;
  Vec accum{0, 0, 0};
  bool any_hit = false;

  for (int depth = 0; depth < cfg_.max_depth; ++depth) {
    // Closest sphere intersection.
    int hit = -1;
    double best_t = 1e30;
    for (int s = 0; s < cfg_.spheres; ++s) {
      const Sphere& sp = scene[s];
      const Vec oc = Sub(origin, {sp.cx, sp.cy, sp.cz});
      const double b = Dot(oc, dir);
      const double c = Dot(oc, oc) - sp.r * sp.r;
      const double disc = b * b - c;
      *flops += 15;
      if (disc <= 0) {
        continue;
      }
      const double t = -b - std::sqrt(disc);
      *flops += 4;
      if (t > 1e-4 && t < best_t) {
        best_t = t;
        hit = s;
      }
    }
    if (hit < 0) {
      break;
    }
    any_hit = true;
    const Sphere& sp = scene[hit];
    const Vec point = Add(origin, Scale(dir, best_t));
    const Vec normal = Norm(Sub(point, {sp.cx, sp.cy, sp.cz}));
    const Vec light = Norm(Vec{-0.4, -0.8, -0.4});
    double diffuse = std::max(0.0, Dot(normal, Scale(light, -1.0)));
    *flops += 30;

    // Shadow ray.
    for (int s = 0; s < cfg_.spheres; ++s) {
      if (s == hit) {
        continue;
      }
      const Sphere& sp2 = scene[s];
      const Vec oc = Sub(point, {sp2.cx, sp2.cy, sp2.cz});
      const Vec sd = Scale(light, -1.0);
      const double b = Dot(oc, sd);
      const double c = Dot(oc, oc) - sp2.r * sp2.r;
      *flops += 15;
      if (b * b - c > 0 && -b - std::sqrt(std::max(0.0, b * b - c)) > 1e-4) {
        diffuse *= 0.3;
        break;
      }
    }

    const double lit = 0.15 + 0.85 * diffuse;
    accum = Add(accum, Scale({sp.cr * lit, sp.cg * lit, sp.cb * lit},
                             weight * (1.0 - sp.reflect)));
    weight *= sp.reflect;
    *flops += 12;
    if (weight < 0.02) {
      break;
    }
    // Reflect.
    dir = Norm(Sub(dir, Scale(normal, 2.0 * Dot(dir, normal))));
    origin = Add(point, Scale(normal, 1e-4));
    *flops += 15;
  }
  if (any_hit) {
    color = accum;
  }
  auto to8 = [](double v) {
    const double c = v < 0 ? 0 : (v > 1 ? 1 : v);
    return static_cast<uint32_t>(c * 255.0 + 0.5);
  };
  return (to8(color.x) << 16) | (to8(color.y) << 8) | to8(color.z) | 0xff000000u;
}

Task<void> RaytraceApp::NodeMain(NodeContext& ctx) {
  const int p = ctx.nodes();
  const int me = ctx.id();
  const int tiles = NumTiles();
  const int64_t qbytes = queue_ints_ * 4;

  if (me == 0) {
    co_await ctx.Write(scene_, static_cast<int64_t>(cfg_.spheres) * 64);
    BuildScene(ctx.Ptr<Sphere>(scene_));
    // Distribute tiles round-robin across the per-node queues.
    co_await ctx.Write(queues_, qbytes * p);
    for (NodeId q = 0; q < p; ++q) {
      int32_t* queue = ctx.Ptr<int32_t>(QueueAddr(q));
      queue[0] = 0;  // head
      queue[1] = 0;  // tail (number of entries)
    }
    for (int t = 0; t < tiles; ++t) {
      int32_t* queue = ctx.Ptr<int32_t>(QueueAddr(t % p));
      queue[2 + queue[1]] = t;
      ++queue[1];
    }
    co_await ctx.ComputeFlops(tiles);
  }
  co_await ctx.Barrier(0);

  // Read-only scene: fetched once per node on first use.
  co_await ctx.Read(scene_, static_cast<int64_t>(cfg_.spheres) * 64);
  const Sphere* scene = ctx.Ptr<Sphere>(scene_);

  while (true) {
    int tile = -1;
    // Try own queue first, then steal from victims in order.
    for (int v = 0; v < p && tile < 0; ++v) {
      const NodeId q = static_cast<NodeId>((me + v) % p);
      co_await ctx.Lock(kQueueLockBase + q);
      co_await ctx.Write(QueueAddr(q), qbytes);
      int32_t* queue = ctx.Ptr<int32_t>(QueueAddr(q));
      if (queue[0] < queue[1]) {
        if (v == 0) {
          tile = queue[2 + queue[0]];  // Pop own head.
          ++queue[0];
        } else {
          --queue[1];  // Steal from the tail.
          tile = queue[2 + queue[1]];
        }
      }
      co_await ctx.Unlock(kQueueLockBase + q);
    }
    if (tile < 0) {
      break;  // All queues empty; tasks are never re-added.
    }

    tile_renderer_[static_cast<size_t>(tile)] = me;
    const int tx = (tile % TilesX()) * cfg_.tile;
    const int ty = (tile / TilesX()) * cfg_.tile;
    int64_t flops = 0;
    for (int row = 0; row < cfg_.tile; ++row) {
      co_await ctx.Write(PixelAddr(tx, ty + row), static_cast<int64_t>(cfg_.tile) * 4);
      uint32_t* pix = ctx.Ptr<uint32_t>(PixelAddr(tx, ty + row));
      for (int col = 0; col < cfg_.tile; ++col) {
        pix[col] = TracePixel(scene, tx + col, ty + row, &flops);
      }
    }
    co_await ctx.ComputeFlops(flops);
  }
  co_await ctx.Barrier(1);
}

System::Program RaytraceApp::Program() {
  tile_renderer_.assign(static_cast<size_t>(NumTiles()), 0);
  return [this](NodeContext& ctx) -> Task<void> { return NodeMain(ctx); };
}

bool RaytraceApp::Verify(System& sys, std::string* why) {
  std::vector<Sphere> scene(static_cast<size_t>(cfg_.spheres));
  BuildScene(scene.data());
  for (int tile = 0; tile < NumTiles(); ++tile) {
    const NodeId node = tile_renderer_[static_cast<size_t>(tile)];
    const int tx = (tile % TilesX()) * cfg_.tile;
    const int ty = (tile / TilesX()) * cfg_.tile;
    for (int row = 0; row < cfg_.tile; ++row) {
      const uint32_t* pix = reinterpret_cast<const uint32_t*>(
          sys.NodeMemory(node, PixelAddr(tx, ty + row)));
      for (int col = 0; col < cfg_.tile; ++col) {
        int64_t flops = 0;
        const uint32_t want = TracePixel(scene.data(), tx + col, ty + row, &flops);
        if (pix[col] != want) {
          if (why != nullptr) {
            *why = "Raytrace: pixel (" + std::to_string(tx + col) + "," +
                   std::to_string(ty + row) + ") got " + std::to_string(pix[col]) + " want " +
                   std::to_string(want);
          }
          return false;
        }
      }
    }
  }
  return true;
}

namespace {
const AppRegistrar kRaytraceRegistrar("raytrace",
                                      [](AppScale scale, std::optional<uint64_t> seed) {
                                        RaytraceConfig cfg;
                                        switch (scale) {
                                          case AppScale::kTiny:
                                            cfg.width = 64;
                                            cfg.height = 64;
                                            cfg.spheres = 12;
                                            break;
                                          case AppScale::kDefault:
                                            cfg.width = 256;
                                            cfg.height = 256;
                                            break;
                                          case AppScale::kPaper:
                                            cfg.width = 256;
                                            cfg.height = 256;
                                            cfg.spheres = 64;
                                            break;
                                        }
                                        if (seed) {
                                          cfg.seed = *seed;
                                        }
                                        return std::make_unique<RaytraceApp>(cfg);
                                      });
}  // namespace

}  // namespace hlrc
