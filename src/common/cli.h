// Shared CLI plumbing for the svm* tools and the bench binaries.
//
// Every tool states its flags once, in a FlagTable: each entry is a name, a
// help line, a target variable and a kind (a number in a range, a name from
// an enum table or a runtime list, a string, a comma list, or a callback).
// The same table parses argv and renders --help. Unknown flags and malformed,
// overflowing or out-of-range values are errors; ParseOrExit turns them into
// UsageError, which exits 2 — the "bad invocation" status tests pin.
#ifndef SRC_COMMON_CLI_H_
#define SRC_COMMON_CLI_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "src/common/names.h"

namespace hlrc {

struct ToolInfo {
  const char* name;     // "svmcheck"
  const char* summary;  // What the tool does; may span lines.
  // Invocation grammar after the tool name; nullptr renders as "[flags]"
  // (subcommand tools pass e.g. "COMMAND [flags]").
  const char* invocation = nullptr;
};

// Toolbox-wide version string ("hlrc-svm X.Y.Z" printed by --version).
const char* ToolVersion();

// "expected WHAT in [MIN, MAX], got 'TEXT'"; an empty bound is left unsaid.
std::string Expected(const char* what, const std::string& min, const std::string& max,
                     std::string_view text);

// The one comma-list splitter: items in order, empty items dropped
// ("a,,b," -> {a, b}).
std::vector<std::string> SplitList(std::string_view text);

// Flag kinds. Each parses the whole of one value text into a T and returns ""
// or why the text is not a valid T; Names() lists the accepted spellings for
// the usage text (empty for numbers).

// A base-10 number in [min, max]: the whole text, no sign on unsigned types,
// nothing past the type's range (NaN and infinities fail the bounds).
template <typename T>
struct Range {
  T min = std::numeric_limits<T>::lowest();
  T max = std::numeric_limits<T>::max();

  std::string operator()(std::string_view text, T* out) const {
    T v{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc() && ptr == end && v >= min && v <= max) {
      *out = v;
      return "";
    }
    return Expected(std::is_floating_point_v<T> ? "a number" : "an integer",
                    Bound(min, std::numeric_limits<T>::lowest()),
                    Bound(max, std::numeric_limits<T>::max()), text);
  }
  std::string Names() const { return ""; }

 private:
  static std::string Bound(T v, T limit) {
    char buf[32];
    return v == limit ? "" : std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }
};

inline constexpr Range<double> kProbability{0.0, 1.0};

// A name from an enum table (src/common/names.h).
template <typename E>
struct OneOf {
  NameTable<E> table;

  std::string operator()(std::string_view text, E* out) const {
    return ParseName<E>(table, text, out) ? ""
                                          : Expected(("one of " + Names()).c_str(), "", "", text);
  }
  std::string Names() const { return JoinNames<E>(table, " | "); }
};

// A name from a list only known at run time (registered apps, litmus tests).
struct Word {
  std::vector<std::string> names;

  std::string operator()(std::string_view text, std::string* out) const;
  std::string Names() const;
};

// Parses a non-empty comma list whose items each parse as `kind`, replacing
// `*out` only when every item is valid.
template <typename T, typename Kind>
std::string ParseList(std::string_view text, const Kind& kind, std::vector<T>* out) {
  std::vector<T> items;
  for (const std::string& s : SplitList(text)) {
    T item{};
    if (std::string err = kind(s, &item); !err.empty()) {
      return err;
    }
    items.push_back(item);
  }
  if (items.empty()) {
    return Expected("a non-empty comma-separated list", "", "", text);
  }
  *out = std::move(items);
  return "";
}

class FlagTable {
 public:
  // Checks one flag value and stores it; returns "" or why the value is bad.
  using Setter = std::function<std::string(std::string_view value)>;

  explicit FlagTable(const ToolInfo& tool) : tool_(tool) {}

  // --name (no value): stores `value` into *target.
  FlagTable& Bool(const char* name, bool* target, std::string help, bool value = true);
  // --name=TEXT: any text, the empty string included.
  FlagTable& String(const char* name, const char* metavar, std::string* target,
                    std::string help);
  // --name=VALUE: one value of `kind` (Range, OneOf, Word).
  template <typename T, typename Kind>
  FlagTable& Value(const char* name, const char* metavar, T* target, std::string help,
                   Kind kind) {
    return Callback(name, metavar, WithNames(std::move(help), kind.Names()),
                    [target, kind](std::string_view v) { return kind(v, target); });
  }
  // --name=a,b,c: a non-empty comma list of values of `kind`.
  template <typename T, typename Kind>
  FlagTable& List(const char* name, const char* metavar, std::vector<T>* target,
                  std::string help, Kind kind) {
    return Callback(name, metavar, WithNames(std::move(help), kind.Names()),
                    [target, kind](std::string_view v) { return ParseList(v, kind, target); });
  }
  // --name=VALUE, or bare --name when `metavar` is nullptr. `set` sees every
  // occurrence, so a callback flag may be repeated (--partition) or act at
  // once (--list).
  FlagTable& Callback(const char* name, const char* metavar, std::string help, Setter set);
  // Also sets *given when the entry just added appears on the command line
  // (replay topology defaults, implied --reliable, flag pairs).
  FlagTable& Marks(bool* given);

  // Parses argv[first, argc). Returns "" on success, else the first error,
  // naming the flag. Non-flag arguments go to `positional`, or are errors
  // when it is null.
  std::string Parse(int argc, const char* const* argv, int first = 1,
                    std::vector<std::string>* positional = nullptr) const;
  // Parse, after answering --help/-h (usage to stdout) and --version with
  // exit 0; any parse error is a UsageError.
  void ParseOrExit(int argc, char** argv, int first = 1,
                   std::vector<std::string>* positional = nullptr) const;

  // `usage: NAME ...`, the summary, and one line per flag.
  void PrintUsage(std::FILE* out) const;
  // Prints `NAME: MESSAGE` and the usage text to stderr, then exits 2.
  [[noreturn]] void UsageError(const std::string& message) const;

 private:
  struct Entry {
    std::string name;     // "--nodes"
    std::string metavar;  // "N"; empty for flags that take no value.
    std::string help;
    Setter set;
  };

  static std::string WithNames(std::string help, const std::string& names);

  ToolInfo tool_;
  std::vector<Entry> entries_;
};

}  // namespace hlrc

#endif  // SRC_COMMON_CLI_H_
