// Application interface for the five benchmark programs (paper §4.1).
//
// An App allocates its shared data in Setup(), returns a per-node coroutine
// program, and verifies the parallel result against a sequential reference
// after the run. Apps perform their real arithmetic on the shared pages (so
// diff contents and sizes are exact) and charge virtual compute time through
// NodeContext::ComputeFlops.
#ifndef SRC_APPS_APP_H_
#define SRC_APPS_APP_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/names.h"
#include "src/svm/system.h"

namespace hlrc {

class App {
 public:
  virtual ~App() = default;

  virtual std::string name() const = 0;

  // Allocates shared memory; called once before System::Run.
  void Setup(System& sys) { Allocate(sys.space(), sys.config()); }

  // Setup's allocations for a machine configured by `config`. They only
  // reserve addresses (node 0 writes the data in Program), so ValidateRun
  // can size a run against a bare SharedSpace before any System exists;
  // a second call on a fresh space must yield the same layout.
  virtual void Allocate(SharedSpace& space, const SimConfig& config) = 0;

  // The per-node program. Node 0 initializes shared data before barrier 0.
  virtual System::Program Program() = 0;

  // Verifies the converged shared state against a sequential reference.
  // Returns true on success; fills `why` otherwise.
  virtual bool Verify(System& sys, std::string* why) = 0;

  // Checks the application's preconditions on a run configuration before any
  // System is built. Returns an empty string if the app can run under
  // `config`, otherwise a one-line reason.
  virtual std::string Validate(const SimConfig& /*config*/) const { return ""; }
};

// Problem scale presets.
enum class AppScale {
  kTiny,     // Unit-test sized; seconds of virtual time.
  kDefault,  // Benchmark default (scaled-down paper problem).
  kPaper,    // The paper's problem size (slow to simulate).
};
inline constexpr EnumName<AppScale> kAppScaleNames[] = {
    {AppScale::kTiny, "tiny"},
    {AppScale::kDefault, "default"},
    {AppScale::kPaper, "paper"},
};

// Factory by name: "lu", "sor", "water-nsq", "water-sp", "raytrace", "fft",
// plus any extension registered with AppRegistrar (e.g. the synthetic
// workloads of src/wkld). `seed` overrides the application's input seed
// (random initial state); by default each app keeps its historical fixed
// seed, so existing runs are unchanged. Pass SimConfig::seed here to plumb
// one root seed through a run. Aborts on unknown names; use TryMakeApp for a
// recoverable lookup.
std::unique_ptr<App> MakeApp(const std::string& name, AppScale scale,
                             std::optional<uint64_t> seed = std::nullopt);

// Like MakeApp but returns nullptr on an unknown name.
std::unique_ptr<App> TryMakeApp(const std::string& name, AppScale scale,
                                std::optional<uint64_t> seed = std::nullopt);

// Why `app` cannot run under `config` — ValidateConfig, then App::Validate,
// then whether its allocations fit the shared space — or empty when it can.
std::string ValidateRun(App& app, const SimConfig& config);

// Ends the process with exit status 2, after printing ValidateRun's reason
// to stderr, if there is one: bad input, not a failed run.
// Flushes stdout and runs no destructors, so it is safe on a worker thread.
void ExitIfInvalid(App& app, const SimConfig& config);

// The five benchmark names evaluated in the paper, in its order.
const std::vector<std::string>& AppNames();

// All applications, including extensions beyond the paper's five (FFT).
const std::vector<std::string>& AllAppNames();

// Every name registered with AppRegistrar (sorted): the paper apps plus any
// linked-in extensions. This is the authoritative list for CLI validation.
std::vector<std::string> RegisteredAppNames();

// Self-registration into the name→factory table behind MakeApp. Each
// application's translation unit defines one registrar at namespace scope;
// the apps library is an OBJECT library, so registrars in otherwise
// unreferenced translation units survive static-archive dead stripping.
class AppRegistrar {
 public:
  using Factory =
      std::function<std::unique_ptr<App>(AppScale scale, std::optional<uint64_t> seed)>;
  AppRegistrar(const char* name, Factory factory);
};

// Convenience: build a system, run the app, verify, and return the report.
struct AppRunResult {
  RunReport report;
  bool verified = false;
  std::string why;
};
AppRunResult RunApp(App& app, const SimConfig& config);

}  // namespace hlrc

#endif  // SRC_APPS_APP_H_
