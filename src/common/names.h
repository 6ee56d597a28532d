// Enum name tables: one spelling per value, shared by flag parsing, usage
// text, file formats and reports. ParseName and NameOf are exact inverses.
#ifndef SRC_COMMON_NAMES_H_
#define SRC_COMMON_NAMES_H_

#include <span>
#include <string>
#include <string_view>
#include <type_traits>

namespace hlrc {

template <typename E>
struct EnumName {
  E value;
  const char* name;
};

template <typename E>
using NameTable = std::span<const EnumName<E>>;

// Sets `*out` to the value spelled exactly `s`; false for any other text.
template <typename E>
bool ParseName(std::type_identity_t<NameTable<E>> table, std::string_view s, E* out) {
  for (const EnumName<E>& e : table) {
    if (s == e.name) {
      *out = e.value;
      return true;
    }
  }
  return false;
}

// The spelling of `v`, or "?" for a value outside the table.
template <typename E>
const char* NameOf(std::type_identity_t<NameTable<E>> table, E v) {
  for (const EnumName<E>& e : table) {
    if (e.value == v) {
      return e.name;
    }
  }
  return "?";
}

// Every spelling, in table order, joined by `sep` ("lrc | olrc | ...").
template <typename E>
std::string JoinNames(NameTable<E> table, std::string_view sep) {
  std::string out;
  for (const EnumName<E>& e : table) {
    if (!out.empty()) {
      out += sep;
    }
    out += e.name;
  }
  return out;
}

}  // namespace hlrc

#endif  // SRC_COMMON_NAMES_H_
