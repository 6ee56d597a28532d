// TraceReplayApp — re-executes a captured workload trace through the
// System's App interface, against any protocol family.
//
// Replay re-issues the recorded allocations, then runs one coroutine per
// node that replays that node's record stream: compute records charge the
// recorded durations, access records re-issue the same grants, write
// records store the same byte values, and sync records re-issue the same
// lock/unlock/barrier operations. Because a simulated run is a
// deterministic function of (per-node operation sequence, compute
// durations, page contents, SimConfig), replaying under the recording
// config reproduces the original run's protocol behavior exactly — same
// message counts per type, same time breakdown (docs/WORKLOADS.md).
//
// Under a *different* protocol family or cost model the replay re-executes
// the same application behavior and measures how that protocol handles it,
// which is the point of the subsystem.
#ifndef SRC_WKLD_REPLAY_H_
#define SRC_WKLD_REPLAY_H_

#include <functional>
#include <memory>
#include <string>

#include "src/apps/app.h"
#include "src/wkld/trace_file.h"

namespace hlrc {
namespace wkld {

// Pulls the next record for one node's replay. Returns false when the
// stream is exhausted (after delivering kEnd). Must die, not return false,
// on corruption — false means clean end-of-stream.
using RecordSource = std::function<bool(Record*)>;

// Replays records from `source` through `ctx` until kEnd. Shared by the
// file-backed TraceReplayApp and the in-memory synthetic workloads.
Task<void> ReplayStream(NodeContext& ctx, RecordSource source);

class TraceReplayApp : public App {
 public:
  // Opens and validates `path`; returns nullptr with *error set on any
  // open/format failure.
  static std::unique_ptr<TraceReplayApp> Open(const std::string& path, std::string* error);

  std::string name() const override { return "replay:" + reader_->info().app; }
  void Allocate(SharedSpace& space, const SimConfig& config) override;
  System::Program Program() override;
  bool Verify(System& sys, std::string* why) override;
  // A trace replays only at its recorded node count and shared-space layout.
  std::string Validate(const SimConfig& config) const override;

  const TraceInfo& info() const { return reader_->info(); }

 private:
  explicit TraceReplayApp(std::unique_ptr<TraceReader> reader);

  // Allocates the recorded objects in `space`; returns why an address differs
  // from the recorded one, or "".
  std::string PlaceAllocs(SharedSpace& space) const;

  std::string path_;
  std::unique_ptr<TraceReader> reader_;
  // Per-node: did the stream replay cleanly through its kEnd record?
  std::vector<char> completed_;
};

}  // namespace wkld
}  // namespace hlrc

#endif  // SRC_WKLD_REPLAY_H_
