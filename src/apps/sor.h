// Red-black successive over-relaxation (the TreadMarks SOR kernel).
// Row bands per node; nearest-neighbor boundary-row communication at
// barriers; single-writer pages (paper §4.1).
#ifndef SRC_APPS_SOR_H_
#define SRC_APPS_SOR_H_

#include "src/apps/app.h"

namespace hlrc {

struct SorConfig {
  int rows = 512;
  int cols = 512;
  int iterations = 10;
  // Paper §4.8 experiment: zero interior (writes that change nothing produce
  // no diffs) vs random initialization.
  bool zero_interior = false;
  uint64_t seed = 999;
};

class SorApp : public App {
 public:
  explicit SorApp(const SorConfig& cfg) : cfg_(cfg) {}

  std::string name() const override { return "SOR"; }
  void Allocate(SharedSpace& space, const SimConfig& config) override;
  System::Program Program() override;
  bool Verify(System& sys, std::string* why) override;

  const SorConfig& config() const { return cfg_; }
  GlobalAddr red_addr() const { return red_; }
  GlobalAddr black_addr() const { return black_; }

 private:
  GlobalAddr RowAddr(GlobalAddr base, int row) const;
  Task<void> NodeMain(NodeContext& ctx);
  void InitRow(double* row_red, double* row_black, int row) const;
  static void BandOf(int rows, int nodes, NodeId id, int* first, int* last);

  SorConfig cfg_;
  GlobalAddr red_ = 0;
  GlobalAddr black_ = 0;
};

}  // namespace hlrc

#endif  // SRC_APPS_SOR_H_
