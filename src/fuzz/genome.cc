#include "src/fuzz/genome.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/common/check.h"

namespace hlrc {
namespace fuzz {
namespace {

using wkld::Record;

// Records the mutation operators may move, drop or rewrite. Sync records
// (lock/unlock/barrier) and the kEnd terminator form the fixed skeleton.
bool Mutable(const Record& rec) {
  return rec.kind == Record::Kind::kCompute || rec.kind == Record::Kind::kAccess ||
         rec.kind == Record::Kind::kPhase;
}

// Picks a random contiguous run of mutable records in `stream`, at most
// `max_len` long. Returns false if the stream has no mutable record.
bool PickMutableRun(const std::vector<Record>& stream, Rng* rng, int max_len,
                    size_t* begin, size_t* len) {
  std::vector<size_t> starts;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (Mutable(stream[i])) {
      starts.push_back(i);
    }
  }
  if (starts.empty()) {
    return false;
  }
  *begin = starts[rng->NextBounded(starts.size())];
  size_t n = 1;
  while (n < static_cast<size_t>(max_len) && *begin + n < stream.size() &&
         Mutable(stream[*begin + n])) {
    ++n;
  }
  *len = 1 + rng->NextBounded(n);
  return true;
}

// Re-clamps one access range into [0, shared_bytes), preserving addr % 8
// (the harness samples 8-byte words) and a minimum 8-byte length.
void ClampRange(AccessRange* r, int64_t shared_bytes) {
  if (r->bytes < 8) {
    r->bytes = 8;
  }
  if (r->addr + static_cast<GlobalAddr>(r->bytes) > static_cast<GlobalAddr>(shared_bytes)) {
    if (r->addr >= static_cast<GlobalAddr>(shared_bytes - 8)) {
      r->addr = static_cast<GlobalAddr>(shared_bytes - 8) & ~static_cast<GlobalAddr>(7);
    }
    r->bytes = shared_bytes - static_cast<int64_t>(r->addr);
  }
}

// Returns indices of kAccess records in `stream`.
std::vector<size_t> AccessIndices(const std::vector<Record>& stream) {
  std::vector<size_t> out;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (stream[i].kind == Record::Kind::kAccess && !stream[i].ranges.empty()) {
      out.push_back(i);
    }
  }
  return out;
}

void MutateSplice(WorkloadGenome* g, Rng* rng) {
  const int src = static_cast<int>(rng->NextInt(0, g->nodes - 1));
  const int dst = static_cast<int>(rng->NextInt(0, g->nodes - 1));
  size_t begin = 0;
  size_t len = 0;
  if (!PickMutableRun(g->streams[src], rng, /*max_len=*/4, &begin, &len)) {
    return;
  }
  std::vector<Record> chunk(g->streams[src].begin() + static_cast<int64_t>(begin),
                            g->streams[src].begin() + static_cast<int64_t>(begin + len));
  // Insert anywhere before the kEnd terminator.
  std::vector<Record>& d = g->streams[dst];
  const size_t at = rng->NextBounded(d.size());  // d.size() >= 1 (kEnd).
  d.insert(d.begin() + static_cast<int64_t>(std::min(at, d.size() - 1)), chunk.begin(),
           chunk.end());
}

void MutateTruncate(WorkloadGenome* g, Rng* rng) {
  const int node = static_cast<int>(rng->NextInt(0, g->nodes - 1));
  size_t begin = 0;
  size_t len = 0;
  if (!PickMutableRun(g->streams[node], rng, /*max_len=*/8, &begin, &len)) {
    return;
  }
  std::vector<Record>& s = g->streams[node];
  s.erase(s.begin() + static_cast<int64_t>(begin), s.begin() + static_cast<int64_t>(begin + len));
}

void MutateRetargetPage(WorkloadGenome* g, Rng* rng) {
  const int node = static_cast<int>(rng->NextInt(0, g->nodes - 1));
  const std::vector<size_t> acc = AccessIndices(g->streams[node]);
  if (acc.empty()) {
    return;
  }
  Record& rec = g->streams[node][acc[rng->NextBounded(acc.size())]];
  AccessRange& r = rec.ranges[rng->NextBounded(rec.ranges.size())];
  const int64_t pages = g->shared_bytes / g->page_size;
  const int64_t page = static_cast<int64_t>(r.addr) / g->page_size;
  const int64_t delta = rng->NextInt(1, static_cast<int>(std::min<int64_t>(pages - 1, 64)));
  const int64_t new_page = (page + delta) % pages;
  // A whole-page shift preserves addr % 8.
  r.addr = static_cast<GlobalAddr>(new_page * g->page_size +
                                   static_cast<int64_t>(r.addr) % g->page_size);
  ClampRange(&r, g->shared_bytes);
}

void MutatePermuteLocks(WorkloadGenome* g, Rng* rng) {
  std::vector<int64_t> ids;
  for (const std::vector<Record>& s : g->streams) {
    for (const Record& rec : s) {
      if (rec.kind == Record::Kind::kLock) {
        ids.push_back(rec.sync_id);
      }
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (ids.empty()) {
    return;
  }
  // Seeded Fisher-Yates over the id set, plus a chance of shifting the whole
  // set to fresh ids (different manager nodes: id % nodes).
  std::vector<int64_t> to = ids;
  for (size_t i = to.size(); i > 1; --i) {
    std::swap(to[i - 1], to[rng->NextBounded(i)]);
  }
  const int64_t shift = rng->NextBool(0.5) ? rng->NextInt(0, 2 * g->nodes) : 0;
  std::map<int64_t, int64_t> remap;
  for (size_t i = 0; i < ids.size(); ++i) {
    remap[ids[i]] = to[i] + shift;
  }
  // Applied globally, so acquire/release pairing is preserved on every node.
  for (std::vector<Record>& s : g->streams) {
    for (Record& rec : s) {
      if (rec.kind == Record::Kind::kLock || rec.kind == Record::Kind::kUnlock) {
        rec.sync_id = remap[rec.sync_id];
      }
    }
  }
}

void MutateFlipIntent(WorkloadGenome* g, Rng* rng) {
  const int node = static_cast<int>(rng->NextInt(0, g->nodes - 1));
  const std::vector<size_t> acc = AccessIndices(g->streams[node]);
  if (acc.empty()) {
    return;
  }
  Record& rec = g->streams[node][acc[rng->NextBounded(acc.size())]];
  AccessRange& r = rec.ranges[rng->NextBounded(rec.ranges.size())];
  r.write = !r.write;
}

void MutateComputeJitter(WorkloadGenome* g, Rng* rng) {
  const int node = static_cast<int>(rng->NextInt(0, g->nodes - 1));
  std::vector<size_t> comp;
  for (size_t i = 0; i < g->streams[node].size(); ++i) {
    if (g->streams[node][i].kind == Record::Kind::kCompute) {
      comp.push_back(i);
    }
  }
  if (comp.empty()) {
    return;
  }
  Record& rec = g->streams[node][comp[rng->NextBounded(comp.size())]];
  const int64_t old = rec.duration_ns;
  rec.duration_ns = static_cast<int64_t>(rng->NextBounded(
      static_cast<uint64_t>(std::max<int64_t>(4 * old, 1000)) + 1));
}

void MutateAccessResize(WorkloadGenome* g, Rng* rng) {
  const int node = static_cast<int>(rng->NextInt(0, g->nodes - 1));
  const std::vector<size_t> acc = AccessIndices(g->streams[node]);
  if (acc.empty()) {
    return;
  }
  Record& rec = g->streams[node][acc[rng->NextBounded(acc.size())]];
  AccessRange& r = rec.ranges[rng->NextBounded(rec.ranges.size())];
  // Grow up to 4 pages or shrink down to one word, 8-byte granular.
  const int64_t max_bytes = std::min<int64_t>(4 * g->page_size, g->shared_bytes);
  r.bytes = 8 + static_cast<int64_t>(rng->NextBounded(
                    static_cast<uint64_t>(max_bytes / 8))) * 8;
  ClampRange(&r, g->shared_bytes);
}

// The synthetic workload a seed genome of `pattern` is generated from.
wkld::SynthConfig SeedShape(wkld::SynthPattern pattern, int nodes, int64_t page_size,
                            int64_t shared_bytes) {
  wkld::SynthConfig cfg;
  cfg.pattern = pattern;
  cfg.nodes = nodes;
  cfg.page_size = page_size;
  cfg.shared_bytes = shared_bytes;
  cfg.pages_per_node = 2;
  cfg.iterations = 2;
  cfg.ops_per_iter = 4;
  return cfg;
}

}  // namespace

std::string ValidateSeedMachine(int nodes, int64_t page_size, int64_t shared_bytes) {
  std::string why;
  for (size_t p = 0; p < wkld::SynthPatternNames().size() && why.empty(); ++p) {
    why = wkld::ValidateSynthConfig(
        SeedShape(static_cast<wkld::SynthPattern>(p), nodes, page_size, shared_bytes));
  }
  return why;
}

WorkloadGenome SeedWorkload(wkld::SynthPattern pattern, int nodes, int64_t page_size,
                            int64_t shared_bytes, uint64_t seed) {
  wkld::SynthConfig cfg = SeedShape(pattern, nodes, page_size, shared_bytes);
  cfg.seed = seed;
  wkld::VectorSink sink(nodes);
  wkld::GenerateSynthetic(cfg, &sink);

  WorkloadGenome g;
  g.nodes = nodes;
  g.page_size = page_size;
  g.shared_bytes = shared_bytes;
  g.allocs = sink.allocs();
  g.origin = std::string("synth-") + wkld::SynthPatternName(pattern);
  g.streams.resize(static_cast<size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    for (const Record& rec : sink.stream(n)) {
      if (rec.kind == Record::Kind::kWrites) {
        continue;  // The harness performs its own (unique-valued) stores.
      }
      g.streams[static_cast<size_t>(n)].push_back(rec);
    }
    HLRC_CHECK(!g.streams[static_cast<size_t>(n)].empty() &&
               g.streams[static_cast<size_t>(n)].back().kind == Record::Kind::kEnd);
  }
  return g;
}

WorkloadGenome MutateWorkload(const WorkloadGenome& parent, Rng* rng) {
  WorkloadGenome g = parent;
  const int ops = static_cast<int>(rng->NextInt(1, 3));
  for (int i = 0; i < ops; ++i) {
    switch (rng->NextBounded(7)) {
      case 0: MutateSplice(&g, rng); break;
      case 1: MutateTruncate(&g, rng); break;
      case 2: MutateRetargetPage(&g, rng); break;
      case 3: MutatePermuteLocks(&g, rng); break;
      case 4: MutateFlipIntent(&g, rng); break;
      case 5: MutateComputeJitter(&g, rng); break;
      default: MutateAccessResize(&g, rng); break;
    }
  }
  return g;
}

ScheduleGenome MutateSchedule(const ScheduleGenome& parent, Rng* rng) {
  ScheduleGenome s = parent;
  switch (rng->NextBounded(4)) {
    case 0:  // Reseed: an entirely fresh decision stream.
      s.seed = rng->NextU64();
      s.prefix.clear();
      break;
    case 1: {  // Extend: pin a few more decisions to fresh random values.
      const int n = static_cast<int>(rng->NextInt(1, 16));
      for (int i = 0; i < n; ++i) {
        s.prefix.push_back(rng->NextU64());
      }
      break;
    }
    case 2:  // Perturb: change one pinned decision, keep everything before.
      if (s.prefix.empty()) {
        s.prefix.push_back(rng->NextU64());
      } else {
        s.prefix[rng->NextBounded(s.prefix.size())] = rng->NextU64();
      }
      break;
    default:  // Truncate: un-pin a tail of decisions.
      if (!s.prefix.empty()) {
        s.prefix.resize(rng->NextBounded(s.prefix.size()));
      }
      break;
  }
  return s;
}

uint64_t HashInput(const FuzzInput& input) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  const WorkloadGenome& g = input.workload;
  mix(static_cast<uint64_t>(g.nodes));
  mix(static_cast<uint64_t>(g.page_size));
  for (const wkld::AllocEntry& a : g.allocs) {
    mix(a.addr);
    mix(static_cast<uint64_t>(a.bytes));
    mix(a.page_aligned ? 1 : 0);
  }
  for (const std::vector<Record>& s : g.streams) {
    for (const Record& rec : s) {
      mix(static_cast<uint64_t>(rec.kind));
      mix(static_cast<uint64_t>(rec.duration_ns));
      mix(static_cast<uint64_t>(rec.sync_id));
      for (const AccessRange& r : rec.ranges) {
        mix(r.addr);
        mix(static_cast<uint64_t>(r.bytes));
        mix(r.write ? 1 : 0);
      }
    }
  }
  mix(input.schedule.seed);
  mix(static_cast<uint64_t>(input.schedule.max_jitter));
  for (uint64_t v : input.schedule.prefix) {
    mix(v);
  }
  return h;
}

}  // namespace fuzz
}  // namespace hlrc
