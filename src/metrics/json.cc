#include "src/metrics/json.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hlrc {

const std::string JsonValue::kEmpty;

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) {
    return nullptr;
  }
  for (auto it = obj.rbegin(); it != obj.rend(); ++it) {
    if (it->first == key) {
      return &it->second;
    }
  }
  return nullptr;
}

double JsonValue::AsDouble(double fallback) const {
  return type == Type::kNumber ? num : fallback;
}

int64_t JsonValue::AsInt(int64_t fallback) const {
  if (type != Type::kNumber) {
    return fallback;
  }
  return is_int ? num_i : static_cast<int64_t>(num);
}

const std::string& JsonValue::AsString(const std::string& fallback) const {
  return type == Type::kString ? str : fallback;
}

bool JsonValue::AsBool(bool fallback) const {
  return type == Type::kBool ? bool_v : fallback;
}

double JsonValue::GetDouble(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr ? v->AsDouble(fallback) : fallback;
}

int64_t JsonValue::GetInt(const std::string& key, int64_t fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr ? v->AsInt(fallback) : fallback;
}

std::string JsonValue::GetString(const std::string& key, const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr ? v->AsString(fallback) : fallback;
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr ? v->AsBool(fallback) : fallback;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* err) : text_(text), err_(err) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out, 0)) {
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing data after top-level value");
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 200;

  bool Fail(const char* msg) {
    if (err_ != nullptr) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "JSON parse error at offset %zu: %s", pos_, msg);
      *err_ = buf;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Peek(char* c) {
    if (pos_ >= text_.size()) {
      return false;
    }
    *c = text_[pos_];
    return true;
  }

  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) {
      return Fail("invalid literal");
    }
    pos_ += n;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    char c;
    if (!Peek(&c)) {
      return Fail("unexpected end of input");
    }
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->str);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->bool_v = true;
        return Literal("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->bool_v = false;
        return Literal("false");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWs();
    char c;
    if (Peek(&c) && c == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Peek(&c) || c != '"') {
        return Fail("expected object key string");
      }
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (!Peek(&c) || c != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      SkipWs();
      JsonValue v;
      if (!ParseValue(&v, depth + 1)) {
        return false;
      }
      out->obj.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (!Peek(&c)) {
        return Fail("unterminated object");
      }
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWs();
    char c;
    if (Peek(&c) && c == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      JsonValue v;
      if (!ParseValue(&v, depth + 1)) {
        return false;
      }
      out->arr.push_back(std::move(v));
      SkipWs();
      if (!Peek(&c)) {
        return Fail("unterminated array");
      }
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  void AppendUtf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) {
      return Fail("truncated \\u escape");
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) {
        return Fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        return Fail("unterminated escape");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          uint32_t cp;
          if (!ParseHex4(&cp)) {
            return false;
          }
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              return Fail("unpaired high surrogate");
            }
            pos_ += 2;
            uint32_t lo;
            if (!ParseHex4(&lo)) {
              return false;
            }
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("unpaired low surrogate");
          }
          AppendUtf8(out, cp);
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Fail("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Fail("digit expected after '.'");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Fail("digit expected in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    out->type = JsonValue::Type::kNumber;
    if (std::from_chars(first, last, out->num).ec != std::errc()) {
      out->num = std::strtod(std::string(first, last).c_str(), nullptr);  // ±HUGE_VAL, 0
    }
    out->is_int = integral && std::from_chars(first, last, out->num_i).ec == std::errc();
    return true;
  }

  const std::string& text_;
  std::string* err_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out, std::string* err) {
  *out = JsonValue{};
  Parser p(text, err);
  return p.Parse(out);
}

}  // namespace hlrc
