// Structural validator for the versioned run-summary JSON.
//
// One definition of "schema-valid", shared by `svmprof --check`, the CI
// smoke step, and the tests, so the exporter cannot drift from its
// consumers unnoticed. Validates the hlrc-run-summary schema, currently
// version 1 (see docs/OBSERVABILITY.md for the field-by-field description).
#ifndef SRC_METRICS_RUN_SUMMARY_SCHEMA_H_
#define SRC_METRICS_RUN_SUMMARY_SCHEMA_H_

#include <string>

#include "src/metrics/json.h"

namespace hlrc {

inline constexpr char kRunSummarySchemaName[] = "hlrc-run-summary";
inline constexpr int kRunSummarySchemaVersion = 1;

// Returns true when `root` is a structurally valid run summary: required
// sections present and well-typed, histogram bucket counts consistent with
// their totals, percentiles monotone, time-series samples aligned with the
// declared series. On failure fills `*err` with the first violation.
bool ValidateRunSummary(const JsonValue& root, std::string* err);

// Reads, parses and validates the run summary at `path` (the analyzers'
// shared loader). On failure fills `err` with "cannot open PATH", "read error
// on PATH", "PATH: JSON parse error: ..." or "PATH: schema violation: ...".
bool LoadRunSummary(const std::string& path, JsonValue* out, std::string* err);

}  // namespace hlrc

#endif  // SRC_METRICS_RUN_SUMMARY_SCHEMA_H_
