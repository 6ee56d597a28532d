// Minimal streaming JSON writer (no external dependencies).
//
// Handles comma placement and string escaping so callers can't produce
// trailing commas or unescaped control characters. Numbers go through
// std::to_chars, which the standard defines as printf in the C locale: doubles
// are exactly "%.17g" and round-trip through the companion parser.
#ifndef SRC_METRICS_JSON_WRITER_H_
#define SRC_METRICS_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hlrc {

class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  // Inside an object: emits the key; the next value call is its value.
  void Key(std::string_view k);

  void String(std::string_view v);
  void Int(int64_t v);
  void Double(double v);
  void Bool(bool v);
  void Null();

  // Key/value in one call.
  void KV(std::string_view k, std::string_view v) { Key(k); String(v); }
  void KV(std::string_view k, const char* v) { Key(k); String(v); }
  void KV(std::string_view k, int64_t v) { Key(k); Int(v); }
  void KV(std::string_view k, int v) { Key(k); Int(v); }
  void KV(std::string_view k, double v) { Key(k); Double(v); }
  void KV(std::string_view k, bool v) { Key(k); Bool(v); }

  const std::string& str() const& { return out_; }
  std::string str() && { return std::move(out_); }
  // Writes str() to `path`; returns false and fills `err` on I/O failure.
  bool WriteFile(const std::string& path, std::string* err) const;

  static std::string Escape(std::string_view s);

 private:
  void BeforeValue();

  std::string out_;
  // One entry per open container: true until the first element is written.
  std::vector<bool> first_;
  bool have_key_ = false;
};

}  // namespace hlrc

#endif  // SRC_METRICS_JSON_WRITER_H_
