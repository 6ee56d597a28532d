#include "src/common/cli.h"

#include <charconv>
#include <cstdlib>
#include <system_error>

namespace hlrc {

const char* ToolVersion() { return "hlrc-svm 0.7.0"; }

void PrintUsage(const ToolInfo& tool, std::FILE* out) {
  std::fprintf(out, "usage: %s %s\n\n%s\n\nflags:\n%s", tool.name,
               tool.invocation != nullptr ? tool.invocation : "[flags]", tool.summary,
               tool.usage);
  std::fprintf(out,
               "  --help                show this message and exit\n"
               "  --version             print the toolbox version and exit\n");
}

bool HandleCommonFlag(const ToolInfo& tool, const std::string& arg) {
  if (arg == "--help" || arg == "-h") {
    PrintUsage(tool, stdout);
    std::exit(0);
  }
  if (arg == "--version") {
    std::printf("%s %s\n", tool.name, ToolVersion());
    std::exit(0);
  }
  return false;
}

void UsageError(const ToolInfo& tool, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", tool.name, message.c_str());
  PrintUsage(tool, stderr);
  std::exit(2);
}

int64_t ParseIntFlag(const ToolInfo& tool, const std::string& flag, const std::string& value) {
  int64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    UsageError(tool, flag + " expects a 64-bit integer, got '" + value + "'");
  }
  return v;
}

}  // namespace hlrc
