// The flag tables of svmsim and svmcheck and the runs they describe, in a
// library so tests can drive exactly the path the tools take: parse, build
// the configuration, validate it, run.
#ifndef TOOLS_TOOL_FLAGS_H_
#define TOOLS_TOOL_FLAGS_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/check/explorer.h"
#include "src/common/cli.h"
#include "src/svm/config.h"

namespace hlrc {

// Flags bind straight to the fields of `cfg` where one exists.
struct SimOptions {
  SimConfig cfg;
  std::string app = "sor";
  AppScale scale = AppScale::kDefault;
  std::string record_trace_path;
  std::string replay_trace_path;
  std::string trace_path;
  std::string metrics_path;
  int64_t sample_interval_us = 1000;
  int64_t retry_timeout_us = 10000;
  bool reliable = false;  // Also set by --retry-timeout / --retry-max.
  bool coalesce = false;
  bool per_node = false;
  bool verbose = false;
  bool verify = true;
  bool coverage = false;
  // Which flags were given: replay keeps the trace's topology otherwise, and
  // the seeds derive from --seed otherwise.
  bool app_given = false;
  bool nodes_given = false;
  bool page_size_given = false;
  bool seed_given = false;
  bool fault_seed_given = false;
};

extern const ToolInfo kSimTool;

// Declares svmsim's flags, bound to the fields of `o`.
void AddSimFlags(FlagTable* flags, SimOptions* o);

// What svmsim runs: the config and the app (or a replayed workload trace).
struct SimRun {
  SimConfig cfg;
  std::unique_ptr<App> app;
  uint64_t app_seed = 0;  // Derived from --seed; used only when it is given.
};

// Builds and validates (ValidateRun) the run `o` describes; returns why it
// cannot run, or "".
std::string PrepareSimRun(const SimOptions& o, SimRun* run);

// Flags bind straight to the fields of `base` where one exists.
struct CheckOptions {
  CheckConfig base;
  std::vector<std::string> litmus;          // Empty = all.
  std::vector<ProtocolKind> protocols;      // Empty = lrc, erc, hlrc, aurc.
  int seeds = 100;
  uint64_t first_seed = 1;
  int jobs = 0;  // 0 = hardware concurrency.
  int64_t max_jitter_us = 150;
  bool stop_on_failure = false;
  bool replay = false;
  uint64_t replay_seed = 0;
  bool limit_given = false;
  uint64_t limit = std::numeric_limits<uint64_t>::max();
};

extern const ToolInfo kCheckTool;

// Declares svmcheck's flags, bound to the fields of `o`.
void AddCheckFlags(FlagTable* flags, CheckOptions* o);

// Fills the litmus/protocol defaults, then checks the --replay-seed/--limit
// pairing, the sweep's machine (ValidateConfig) and each selected litmus on
// it (ValidateWorkload); returns why the sweep cannot run, or "".
std::string FinishCheckOptions(CheckOptions* o);

// The explorer config of one (litmus, protocol) sweep; the caller sets the
// seed.
CheckConfig MakeCheckConfig(const CheckOptions& o, const std::string& litmus,
                            ProtocolKind protocol);

}  // namespace hlrc

#endif  // TOOLS_TOOL_FLAGS_H_
