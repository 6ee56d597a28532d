#include "src/metrics/json_writer.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace hlrc {
namespace {

// Appends `s` to `out` with JSON string escaping; runs that need none are
// copied in one append.
void AppendEscaped(std::string& out, std::string_view s) {
  // JSON's two-character escapes; any other control byte becomes \u00XX.
  static constexpr std::string_view kShort = "\"\\\b\f\n\r\t";
  static constexpr std::string_view kShortAs = "\"\\bfnrt";
  static constexpr char kHex[] = "0123456789abcdef";
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    out += '\\';
    const size_t k = kShort.find(static_cast<char>(c));
    if (k != std::string_view::npos) {
      out += kShortAs[k];
    } else {
      out += "u00";
      out += kHex[c >> 4];
      out += kHex[c & 0xf];
    }
  }
  out.append(s.data() + run, s.size() - run);
}

}  // namespace

void JsonWriter::BeforeValue() {
  if (have_key_) {
    have_key_ = false;
    return;  // Comma was emitted before the key.
  }
  if (!first_.empty()) {
    if (first_.back()) {
      first_.back() = false;
    } else {
      out_ += ',';
    }
  }
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  first_.push_back(true);
}

void JsonWriter::EndObject() {
  out_ += '}';
  first_.pop_back();
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  first_.push_back(true);
}

void JsonWriter::EndArray() {
  out_ += ']';
  first_.pop_back();
}

void JsonWriter::Key(std::string_view k) {
  BeforeValue();  // the comma goes before the key, not the value
  out_ += '"';
  AppendEscaped(out_, k);
  out_ += "\":";
  have_key_ = true;
}

void JsonWriter::String(std::string_view v) {
  BeforeValue();
  out_ += '"';
  AppendEscaped(out_, v);
  out_ += '"';
}

void JsonWriter::Int(int64_t v) {
  BeforeValue();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void JsonWriter::Double(double v) {
  BeforeValue();
  if (!std::isfinite(v)) {
    out_ += "null";  // JSON has no NaN/Inf.
    return;
  }
  char buf[32];
  // %.17g prints an integral value below 1e17 as its integer digits (except
  // -0), and sampled counters are all integral: the integer conversion is
  // several times cheaper than the precision-17 one.
  if (std::fabs(v) < 1e17 && v == std::trunc(v) && (v != 0 || !std::signbit(v))) {
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), static_cast<int64_t>(v)).ptr);
    return;
  }
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17).ptr);
}

void JsonWriter::Bool(bool v) {
  BeforeValue();
  out_ += v ? "true" : "false";
}

void JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
}

bool JsonWriter::WriteFile(const std::string& path, std::string* err) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (err != nullptr) {
      *err = "cannot open " + path + " for writing";
    }
    return false;
  }
  const size_t n = std::fwrite(out_.data(), 1, out_.size(), f);
  const bool flushed = std::fputc('\n', f) != EOF;
  if (std::fclose(f) != 0 || n != out_.size() || !flushed) {
    if (err != nullptr) {
      *err = "short write to " + path;
    }
    return false;
  }
  return true;
}

std::string JsonWriter::Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(out, s);
  return out;
}

}  // namespace hlrc
