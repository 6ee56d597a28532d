#include "src/fuzz/repro.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace hlrc {
namespace fuzz {
namespace {

using wkld::Record;

constexpr const char* kMagic = "hlrc-svmfuzz-repro v1";

// Repro files spell protocols by display name ("HLRC"); the shared name
// table holds the lowercase flag spelling.
std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

bool Fail(std::string* error, const std::string& why) {
  if (error != nullptr) {
    *error = "repro parse: " + why;
  }
  return false;
}

}  // namespace

std::string SerializeRepro(const ReproFile& repro) {
  const WorkloadGenome& g = repro.input.workload;
  const ScheduleGenome& s = repro.input.schedule;
  const HarnessConfig& c = repro.config;
  std::ostringstream out;
  out << kMagic << "\n";
  out << "protocol " << ProtocolName(c.protocol) << "\n";
  out << "mutation " << TestMutationName(c.mutation) << "\n";
  out << "home-policy " << HomePolicyName(c.home_policy) << "\n";
  out << "migrate-homes " << (c.migrate_homes ? 1 : 0) << "\n";
  out << "permute-tasks " << (c.permute_tasks ? 1 : 0) << "\n";
  char num[64];
  std::snprintf(num, sizeof(num), "%.17g %.17g", c.fault.drop_prob, c.fault.delay_prob);
  out << "fault " << c.fault.seed << " " << num << " " << c.fault.delay_min << " "
      << c.fault.delay_max << "\n";
  out << "nodes " << g.nodes << "\n";
  out << "page-size " << g.page_size << "\n";
  out << "shared-bytes " << g.shared_bytes << "\n";
  out << "origin " << (g.origin.empty() ? "unknown" : g.origin) << "\n";
  out << "schedule-seed " << s.seed << "\n";
  out << "max-jitter " << s.max_jitter << "\n";
  out << "schedule-prefix " << s.prefix.size();
  for (uint64_t v : s.prefix) {
    out << " " << v;
  }
  out << "\n";
  if (!repro.cross.empty()) {
    out << "cross " << repro.cross.size();
    for (ProtocolKind p : repro.cross) {
      out << " " << ProtocolName(p);
    }
    out << "\n";
  }
  if (!repro.violation.empty()) {
    // Single line: newlines in the description would break the format.
    std::string flat = repro.violation;
    for (char& ch : flat) {
      if (ch == '\n') {
        ch = ' ';
      }
    }
    out << "violation " << flat << "\n";
  }
  for (const wkld::AllocEntry& a : g.allocs) {
    out << "alloc " << a.addr << " " << a.bytes << " " << (a.page_aligned ? 1 : 0) << "\n";
  }
  for (int n = 0; n < g.nodes; ++n) {
    out << "node " << n << "\n";
    for (const Record& rec : g.streams[static_cast<size_t>(n)]) {
      switch (rec.kind) {
        case Record::Kind::kCompute:
          out << "c " << rec.duration_ns << "\n";
          break;
        case Record::Kind::kAccess:
          out << "a " << rec.ranges.size();
          for (const AccessRange& r : rec.ranges) {
            out << " " << (r.write ? 'w' : 'r') << " " << r.addr << " " << r.bytes;
          }
          out << "\n";
          break;
        case Record::Kind::kLock:
          out << "l " << rec.sync_id << "\n";
          break;
        case Record::Kind::kUnlock:
          out << "u " << rec.sync_id << "\n";
          break;
        case Record::Kind::kBarrier:
          out << "b " << rec.sync_id << "\n";
          break;
        case Record::Kind::kPhase:
          out << "p " << rec.sync_id << "\n";
          break;
        case Record::Kind::kEnd:
          out << "e\n";
          break;
        case Record::Kind::kWrites:
          break;  // Never present in genomes.
      }
    }
  }
  out << "end\n";
  return out.str();
}

bool ParseRepro(const std::string& text, ReproFile* out, std::string* error) {
  *out = ReproFile{};
  WorkloadGenome& g = out->input.workload;
  ScheduleGenome& s = out->input.schedule;
  HarnessConfig& c = out->config;

  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    return Fail(error, "bad magic (expected '" + std::string(kMagic) + "')");
  }

  int cur_node = -1;
  bool saw_end = false;
  int lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) {
      continue;
    }
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    auto bad = [&]() {
      return Fail(error, "line " + std::to_string(lineno) + ": malformed '" + key + "'");
    };
    if (key == "end") {
      saw_end = true;
      break;
    } else if (key == "protocol") {
      std::string v;
      if (!(ls >> v) || !ParseName(kProtocolNames, Lower(v), &c.protocol)) {
        return Fail(error, "unknown protocol on line " + std::to_string(lineno));
      }
    } else if (key == "mutation") {
      std::string v;
      if (!(ls >> v) || !ParseName(kTestMutationNames, v, &c.mutation)) {
        return Fail(error, "unknown mutation on line " + std::to_string(lineno));
      }
    } else if (key == "home-policy") {
      std::string v;
      if (!(ls >> v) || !ParseName(kHomePolicyNames, v, &c.home_policy)) {
        return Fail(error, "unknown home policy on line " + std::to_string(lineno));
      }
    } else if (key == "migrate-homes") {
      int v = 0;
      if (!(ls >> v)) return bad();
      c.migrate_homes = v != 0;
    } else if (key == "permute-tasks") {
      int v = 0;
      if (!(ls >> v)) return bad();
      c.permute_tasks = v != 0;
    } else if (key == "fault") {
      if (!(ls >> c.fault.seed >> c.fault.drop_prob >> c.fault.delay_prob >>
            c.fault.delay_min >> c.fault.delay_max)) {
        return bad();
      }
    } else if (key == "nodes") {
      if (!(ls >> g.nodes) || g.nodes <= 0 || g.nodes > 1024) return bad();
      g.streams.assign(static_cast<size_t>(g.nodes), {});
    } else if (key == "page-size") {
      if (!(ls >> g.page_size) || g.page_size <= 0) return bad();
    } else if (key == "shared-bytes") {
      if (!(ls >> g.shared_bytes) || g.shared_bytes <= 0) return bad();
    } else if (key == "origin") {
      ls >> g.origin;
    } else if (key == "schedule-seed") {
      if (!(ls >> s.seed)) return bad();
    } else if (key == "max-jitter") {
      if (!(ls >> s.max_jitter) || s.max_jitter < 0) return bad();
    } else if (key == "schedule-prefix") {
      size_t n = 0;
      if (!(ls >> n) || n > (1u << 20)) return bad();
      s.prefix.resize(n);
      for (size_t i = 0; i < n; ++i) {
        if (!(ls >> s.prefix[i])) return bad();
      }
    } else if (key == "cross") {
      size_t n = 0;
      if (!(ls >> n) || n > 16) return bad();
      out->cross.resize(n);
      for (size_t i = 0; i < n; ++i) {
        std::string v;
        if (!(ls >> v) || !ParseName(kProtocolNames, Lower(v), &out->cross[i])) return bad();
      }
    } else if (key == "violation") {
      std::getline(ls, out->violation);
      while (!out->violation.empty() && out->violation.front() == ' ') {
        out->violation.erase(out->violation.begin());
      }
    } else if (key == "alloc") {
      wkld::AllocEntry a;
      int aligned = 0;
      if (!(ls >> a.addr >> a.bytes >> aligned)) return bad();
      a.page_aligned = aligned != 0;
      g.allocs.push_back(a);
    } else if (key == "node") {
      if (!(ls >> cur_node) || cur_node < 0 || cur_node >= g.nodes) return bad();
    } else if (key == "c" || key == "a" || key == "l" || key == "u" || key == "b" ||
               key == "p" || key == "e") {
      if (cur_node < 0) {
        return Fail(error, "record before any 'node' header on line " +
                               std::to_string(lineno));
      }
      Record rec;
      if (key == "c") {
        rec.kind = Record::Kind::kCompute;
        if (!(ls >> rec.duration_ns) || rec.duration_ns < 0) return bad();
      } else if (key == "a") {
        rec.kind = Record::Kind::kAccess;
        size_t n = 0;
        if (!(ls >> n) || n > (1u << 16)) return bad();
        rec.ranges.resize(n);
        for (size_t i = 0; i < n; ++i) {
          char intent = 0;
          if (!(ls >> intent >> rec.ranges[i].addr >> rec.ranges[i].bytes) ||
              (intent != 'r' && intent != 'w') || rec.ranges[i].bytes <= 0) {
            return bad();
          }
          rec.ranges[i].write = intent == 'w';
        }
      } else if (key == "l" || key == "u" || key == "b" || key == "p") {
        rec.kind = key == "l"   ? Record::Kind::kLock
                   : key == "u" ? Record::Kind::kUnlock
                   : key == "b" ? Record::Kind::kBarrier
                                : Record::Kind::kPhase;
        if (!(ls >> rec.sync_id) || rec.sync_id < 0) return bad();
      } else {
        rec.kind = Record::Kind::kEnd;
      }
      g.streams[static_cast<size_t>(cur_node)].push_back(rec);
    } else {
      return Fail(error, "unknown key '" + key + "' on line " + std::to_string(lineno));
    }
  }
  if (!saw_end) {
    return Fail(error, "truncated file (no 'end' line)");
  }
  if (g.nodes == 0) {
    return Fail(error, "missing 'nodes'");
  }
  for (int n = 0; n < g.nodes; ++n) {
    const auto& stream = g.streams[static_cast<size_t>(n)];
    if (stream.empty() || stream.back().kind != Record::Kind::kEnd) {
      return Fail(error, "node " + std::to_string(n) + " stream lacks an 'e' terminator");
    }
  }
  return true;
}

bool WriteReproFile(const std::string& path, const ReproFile& repro, std::string* error) {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    if (error != nullptr) {
      *error = "cannot open " + path + " for writing";
    }
    return false;
  }
  f << SerializeRepro(repro);
  f.close();
  if (!f) {
    if (error != nullptr) {
      *error = "write to " + path + " failed";
    }
    return false;
  }
  return true;
}

bool LoadReproFile(const std::string& path, ReproFile* out, std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return ParseRepro(buf.str(), out, error);
}

std::string ReplayRepro(const ReproFile& repro) {
  const RunOutcome out = RunGenome(repro.input, repro.config, nullptr);
  if (!out.ok) {
    return out.violations.front();
  }
  if (!repro.cross.empty()) {
    const DifferentialResult diff =
        RunDifferential(repro.input, repro.config, repro.cross, nullptr);
    if (diff.diverged) {
      return diff.reports.front();
    }
  }
  return "";
}

}  // namespace fuzz
}  // namespace hlrc
