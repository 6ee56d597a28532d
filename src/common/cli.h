// Shared CLI plumbing for the svm* tools.
//
// Every tool owns its flag grammar; what they share is the frame around it:
// one usage formatter (so --help, usage errors and the docs all show the same
// text), a common --help/--version handler, and one version string for the
// whole toolbox. Tools describe themselves with a ToolInfo and route
// unrecognized or malformed flags through UsageError, which exits 2 — the
// conventional "bad invocation" status tests pin.
#ifndef SRC_COMMON_CLI_H_
#define SRC_COMMON_CLI_H_

#include <cstdint>
#include <cstdio>
#include <string>

namespace hlrc {

struct ToolInfo {
  const char* name;     // "svmcheck"
  const char* summary;  // One line: what the tool does.
  const char* usage;    // Flag lines, one per line, two-space indented.
  // Invocation grammar after the tool name; nullptr renders as "[flags]"
  // (subcommand tools pass e.g. "COMMAND [flags]").
  const char* invocation = nullptr;
};

// Toolbox-wide version string ("hlrc-svm X.Y.Z" printed by --version).
const char* ToolVersion();

// Renders `usage: NAME ...` + summary + the tool's flag lines to `out`.
void PrintUsage(const ToolInfo& tool, std::FILE* out);

// Consumes --help/-h (usage to stdout, exit 0) and --version (exit 0).
// Returns false when `arg` is neither, so parsers call it from their
// unknown-flag fallthrough.
bool HandleCommonFlag(const ToolInfo& tool, const std::string& arg);

// Prints `NAME: MESSAGE` and the usage text to stderr, then exits 2.
[[noreturn]] void UsageError(const ToolInfo& tool, const std::string& message);

// Parses `value` (the text after `flag=`) as a whole base-10 int64 with an
// optional '-'. Anything else — empty, trailing characters, a value past int64
// — is a UsageError naming the flag.
int64_t ParseIntFlag(const ToolInfo& tool, const std::string& flag, const std::string& value);

}  // namespace hlrc

#endif  // SRC_COMMON_CLI_H_
