#include "src/common/cli.h"

#include <algorithm>
#include <cstdlib>

namespace hlrc {

const char* ToolVersion() { return "hlrc-svm 0.7.0"; }

std::string Expected(const char* what, const std::string& min, const std::string& max,
                     std::string_view text) {
  std::string s = std::string("expected ") + what;
  if (!min.empty() && !max.empty()) {
    s += " in [" + min + ", " + max + "]";
  } else if (!min.empty()) {
    s += " >= " + min;
  } else if (!max.empty()) {
    s += " <= " + max;
  }
  return s + ", got '" + std::string(text) + "'";
}

std::vector<std::string> SplitList(std::string_view text) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t comma = text.find(',', pos);
    const size_t end = comma == std::string_view::npos ? text.size() : comma;
    if (end > pos) {
      out.emplace_back(text.substr(pos, end - pos));
    }
    pos = end + 1;
  }
  return out;
}

std::string Word::operator()(std::string_view text, std::string* out) const {
  for (const std::string& n : names) {
    if (text == n) {
      *out = n;
      return "";
    }
  }
  return Expected(("one of " + Names()).c_str(), "", "", text);
}

std::string Word::Names() const {
  std::string out;
  for (const std::string& n : names) {
    out += (out.empty() ? "" : " | ") + n;
  }
  return out;
}

std::string FlagTable::WithNames(std::string help, const std::string& names) {
  return names.empty() ? help : help + ": " + names;
}

FlagTable& FlagTable::Callback(const char* name, const char* metavar, std::string help,
                               Setter set) {
  entries_.push_back({name, metavar != nullptr ? metavar : "", std::move(help), std::move(set)});
  return *this;
}

FlagTable& FlagTable::Bool(const char* name, bool* target, std::string help, bool value) {
  return Callback(name, nullptr, std::move(help), [target, value](std::string_view) {
    *target = value;
    return std::string();
  });
}

FlagTable& FlagTable::String(const char* name, const char* metavar, std::string* target,
                             std::string help) {
  return Callback(name, metavar, std::move(help), [target](std::string_view v) {
    *target = v;
    return std::string();
  });
}

FlagTable& FlagTable::Marks(bool* given) {
  Setter inner = std::move(entries_.back().set);
  entries_.back().set = [inner = std::move(inner), given](std::string_view v) {
    std::string err = inner(v);
    *given = *given || err.empty();
    return err;
  };
  return *this;
}

std::string FlagTable::Parse(int argc, const char* const* argv, int first,
                             std::vector<std::string>* positional) const {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-') {
      if (positional == nullptr) {
        return "unexpected argument '" + std::string(arg) + "'";
      }
      positional->emplace_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const Entry* entry = nullptr;
    for (const Entry& e : entries_) {
      entry = e.name == name ? &e : entry;
    }
    if (entry == nullptr) {
      return "unknown flag: " + std::string(arg);
    }
    const bool has_value = eq != std::string_view::npos;
    if (has_value != !entry->metavar.empty()) {
      return entry->name + (has_value ? " takes no value"
                                      : " needs a value (" + entry->name + "=" +
                                            entry->metavar + ")");
    }
    if (std::string err = entry->set(has_value ? arg.substr(eq + 1) : ""); !err.empty()) {
      return entry->name + ": " + err;
    }
  }
  return "";
}

void FlagTable::ParseOrExit(int argc, char** argv, int first,
                            std::vector<std::string>* positional) const {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      std::exit(0);
    }
    if (arg == "--version") {
      std::printf("%s %s\n", tool_.name, ToolVersion());
      std::exit(0);
    }
  }
  if (std::string err = Parse(argc, argv, first, positional); !err.empty()) {
    UsageError(err);
  }
}

void FlagTable::PrintUsage(std::FILE* out) const {
  std::fprintf(out, "usage: %s %s\n\n%s\n\nflags:\n", tool_.name,
               tool_.invocation != nullptr ? tool_.invocation : "[flags]", tool_.summary);
  // Help starts in column 24 (or two spaces after a longer flag); explicit
  // '\n' and words past column 80 continue in column 24.
  auto line = [out](const std::string& flag, const std::string& help) {
    const std::string indent = "\n" + std::string(24, ' ');
    std::string text = "  " + flag;
    text.resize(std::max(text.size() + 2, size_t{24}), ' ');
    size_t col = text.size();
    for (size_t pos = 0; pos < help.size();) {
      const size_t end = std::min(help.find_first_of(" \n", pos), help.size());
      if (pos > 0 && col > 24) {  // Not the first word of a line.
        text += col + 1 + (end - pos) > 80 ? indent : " ";
        col = col + 1 + (end - pos) > 80 ? 24 : col + 1;
      }
      text.append(help, pos, end - pos);
      col += end - pos;
      if (end < help.size() && help[end] == '\n') {
        text += indent;
        col = 24;
      }
      pos = end + 1;
    }
    std::fprintf(out, "%s\n", text.c_str());
  };
  for (const Entry& e : entries_) {
    line(e.metavar.empty() ? e.name : e.name + "=" + e.metavar, e.help);
  }
  line("--help", "show this message and exit");
  line("--version", "print the toolbox version and exit");
}

void FlagTable::UsageError(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n", tool_.name, message.c_str());
  PrintUsage(stderr);
  std::exit(2);
}

}  // namespace hlrc
