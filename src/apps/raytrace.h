// Raytrace: sphere-scene ray tracer with distributed task queues and task
// stealing. Scene data is read-only; image-plane writes and queue operations
// are fine-grained and cause false sharing and fragmentation at page level
// (paper §4.1; task queues reorganized as in the paper's modified version).
#ifndef SRC_APPS_RAYTRACE_H_
#define SRC_APPS_RAYTRACE_H_

#include <vector>

#include "src/apps/app.h"

namespace hlrc {

struct RaytraceConfig {
  int width = 256;
  int height = 256;
  int tile = 8;         // Tile edge in pixels; one tile per task.
  int spheres = 24;
  int max_depth = 2;    // Primary ray + one reflection bounce.
  uint64_t seed = 31415;
};

class RaytraceApp : public App {
 public:
  explicit RaytraceApp(const RaytraceConfig& cfg) : cfg_(cfg) {}

  std::string name() const override { return "Raytrace"; }
  void Allocate(SharedSpace& space, const SimConfig& config) override;
  System::Program Program() override;
  bool Verify(System& sys, std::string* why) override;

  const RaytraceConfig& config() const { return cfg_; }

 private:
  struct Sphere {
    double cx, cy, cz, r;
    double cr, cg, cb;  // Color.
    double reflect;
  };

  int TilesX() const { return cfg_.width / cfg_.tile; }
  int TilesY() const { return cfg_.height / cfg_.tile; }
  int NumTiles() const { return TilesX() * TilesY(); }

  GlobalAddr QueueAddr(NodeId q) const;
  GlobalAddr PixelAddr(int x, int y) const;

  Task<void> NodeMain(NodeContext& ctx);
  void BuildScene(Sphere* spheres) const;
  // Traces one pixel; returns the packed color and adds flops to *flops.
  uint32_t TracePixel(const Sphere* scene, int px, int py, int64_t* flops) const;

  RaytraceConfig cfg_;
  GlobalAddr scene_ = 0;
  GlobalAddr image_ = 0;
  GlobalAddr queues_ = 0;
  int64_t queue_ints_ = 0;  // Per-queue int32 slots: head, tail, entries.
  std::vector<NodeId> tile_renderer_;  // Host-side: which node rendered each tile.
};

}  // namespace hlrc

#endif  // SRC_APPS_RAYTRACE_H_
