#include "src/wkld/replay.h"

#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/check.h"

namespace hlrc {
namespace wkld {

Task<void> ReplayStream(NodeContext& ctx, RecordSource source) {
  Record rec;
  while (source(&rec)) {
    switch (rec.kind) {
      case Record::Kind::kCompute:
        co_await ctx.Compute(rec.duration_ns);
        break;
      case Record::Kind::kAccess:
        co_await ctx.Access(rec.ranges);
        break;
      case Record::Kind::kWrites:
        // Stores must land before the next co_await: the preceding kAccess
        // grant only holds until the program suspends. Pulling the record
        // from the source is host-side work, so nothing intervened.
        for (const WriteRun& run : rec.runs) {
          std::memcpy(ctx.Ptr<std::byte>(run.addr), run.bytes.data(), run.bytes.size());
        }
        break;
      case Record::Kind::kLock:
        co_await ctx.Lock(static_cast<LockId>(rec.sync_id));
        break;
      case Record::Kind::kUnlock:
        co_await ctx.Unlock(static_cast<LockId>(rec.sync_id));
        break;
      case Record::Kind::kBarrier:
        co_await ctx.Barrier(static_cast<BarrierId>(rec.sync_id));
        break;
      case Record::Kind::kPhase:
        ctx.SnapshotPhase(static_cast<int>(rec.sync_id));
        break;
      case Record::Kind::kEnd:
        co_return;
    }
  }
}

TraceReplayApp::TraceReplayApp(std::unique_ptr<TraceReader> reader)
    : reader_(std::move(reader)) {}

std::unique_ptr<TraceReplayApp> TraceReplayApp::Open(const std::string& path,
                                                     std::string* error) {
  auto reader = TraceReader::Open(path, error);
  if (reader == nullptr) {
    return nullptr;
  }
  auto app = std::unique_ptr<TraceReplayApp>(new TraceReplayApp(std::move(reader)));
  app->path_ = path;
  return app;
}

std::string TraceReplayApp::Validate(const SimConfig& config) const {
  const TraceInfo& info = reader_->info();
  if (config.nodes != info.nodes) {
    return "trace " + path_ + " was recorded with " + std::to_string(info.nodes) +
           " nodes but the system has " + std::to_string(config.nodes) +
           ": a file trace replays only at its recorded node count (its barriers would "
           "deadlock otherwise); use a synthetic workload for node-count sweeps";
  }
  SharedSpace plan(config.shared_bytes, config.page_size);
  return PlaceAllocs(plan);
}

std::string TraceReplayApp::PlaceAllocs(SharedSpace& space) const {
  const TraceInfo& info = reader_->info();
  for (const AllocEntry& a : info.allocs) {
    const GlobalAddr addr =
        a.page_aligned ? space.AllocPageAligned(a.bytes) : space.Alloc(a.bytes);
    if (addr != a.addr) {
      char why[256];
      std::snprintf(why, sizeof(why),
                    "replay allocation landed at 0x%llx, trace recorded 0x%llx: the "
                    "shared-space layout shifted (usually a page-size mismatch: trace "
                    "was recorded with page_size=%lld)",
                    static_cast<unsigned long long>(addr),
                    static_cast<unsigned long long>(a.addr),
                    static_cast<long long>(info.page_size));
      return "trace " + path_ + ": " + why;
    }
  }
  return "";
}

void TraceReplayApp::Allocate(SharedSpace& space, const SimConfig& config) {
  const TraceInfo& info = reader_->info();
  HLRC_CHECK_MSG(config.nodes == info.nodes, "trace %s was recorded with %d nodes but the "
                 "system has %d", path_.c_str(), info.nodes, config.nodes);
  const std::string layout = PlaceAllocs(space);
  HLRC_CHECK_MSG(layout.empty(), "%s", layout.c_str());
  completed_.assign(static_cast<size_t>(info.nodes), 0);
}

System::Program TraceReplayApp::Program() {
  return [this](NodeContext& ctx) -> Task<void> {
    return [](TraceReplayApp* self, NodeContext& ctx) -> Task<void> {
      std::string error;
      auto stream = self->reader_->OpenStream(ctx.id(), &error);
      HLRC_CHECK_MSG(stream != nullptr, "%s", error.c_str());
      TraceReader::Stream* raw = stream.get();
      bool saw_end = false;
      co_await ReplayStream(ctx, [raw, &error, &saw_end](Record* rec) {
        if (!raw->Next(rec, &error)) {
          HLRC_CHECK_MSG(error.empty(), "trace replay failed: %s", error.c_str());
          return false;
        }
        saw_end = rec->kind == Record::Kind::kEnd;
        return true;
      });
      HLRC_CHECK_MSG(saw_end, "node %d's stream ended without an END record", ctx.id());
      self->completed_[static_cast<size_t>(ctx.id())] = 1;
    }(this, ctx);
  };
}

bool TraceReplayApp::Verify(System& sys, std::string* why) {
  (void)sys;
  for (size_t n = 0; n < completed_.size(); ++n) {
    if (!completed_[n]) {
      if (why != nullptr) {
        *why = "replay: node " + std::to_string(n) + " did not finish its stream";
      }
      return false;
    }
  }
  return true;
}

}  // namespace wkld
}  // namespace hlrc
