#include "server/json.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "support/strings.hpp"

namespace ilp::server {

const JsonValue* JsonValue::find(std::string_view name) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == name) return &v;
  return nullptr;
}

// Arrays and objects nested deeper than this are a parse error.  Protocol
// requests nest a few levels; the bound keeps a line of 50k '[' (well under
// the transport's line limit) from recursing the parser off the stack.
constexpr int kMaxJsonDepth = 64;

// Not in an anonymous namespace: JsonValue's friend declaration names
// ilp::server::Parser.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    JsonValue v;
    if (!value(v)) {
      if (error != nullptr)
        *error = strformat("json parse error at byte %zu: %s", pos_, err_.c_str());
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr)
        *error = strformat("json parse error at byte %zu: trailing characters", pos_);
      return std::nullopt;
    }
    return v;
  }

 private:
  bool fail(const char* msg) {
    if (err_.empty()) err_ = msg;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] int peek() {
    skip_ws();
    return pos_ < text_.size() ? static_cast<unsigned char>(text_[pos_]) : -1;
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  bool literal(const char* word, std::size_t n) {
    if (text_.size() - pos_ < n || text_.compare(pos_, n, word) != 0)
      return fail("invalid literal");
    pos_ += n;
    return true;
  }

  bool value(JsonValue& out) {
    switch (const int c = peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) return fail("nesting too deep");
        ++depth_;
        const bool ok = c == '{' ? object(out) : array(out);
        --depth_;
        return ok;
      }
      case '"': {
        out.kind_ = JsonValue::Kind::String;
        return string(out.str_);
      }
      case 't':
        out.kind_ = JsonValue::Kind::Bool;
        out.bool_ = true;
        return literal("true", 4);
      case 'f':
        out.kind_ = JsonValue::Kind::Bool;
        out.bool_ = false;
        return literal("false", 5);
      case 'n':
        out.kind_ = JsonValue::Kind::Null;
        return literal("null", 4);
      case -1: return fail("unexpected end of input");
      default: return number(out);
    }
  }

  bool object(JsonValue& out) {
    out.kind_ = JsonValue::Kind::Object;
    ++pos_;  // '{'
    if (consume('}')) return true;
    for (;;) {
      std::string key;
      if (peek() != '"') return fail("expected object key");
      if (!string(key)) return false;
      if (!consume(':')) return fail("expected ':'");
      JsonValue v;
      if (!value(v)) return false;
      out.members_.emplace_back(std::move(key), std::move(v));
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue& out) {
    out.kind_ = JsonValue::Kind::Array;
    ++pos_;  // '['
    if (consume(']')) return true;
    for (;;) {
      JsonValue v;
      if (!value(v)) return false;
      out.items_.push_back(std::move(v));
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote (caller peeked it)
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (!unicode_escape(out)) return false;
          break;
        }
        default: return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  bool unicode_escape(std::string& out) {
    unsigned cp = 0;
    if (!hex4(cp)) return false;
    // Surrogate pair: decode the low half if present and well-formed.
    if (cp >= 0xD800 && cp <= 0xDBFF && text_.size() - pos_ >= 6 &&
        text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
      pos_ += 2;
      unsigned lo = 0;
      if (!hex4(lo)) return false;
      if (lo < 0xDC00 || lo > 0xDFFF) return fail("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    }
    // UTF-8 encode.
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return true;
  }

  bool hex4(unsigned& out) {
    if (text_.size() - pos_ < 4) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<unsigned>(c - 'A' + 10);
      else return fail("invalid \\u escape");
    }
    return true;
  }

  bool number(JsonValue& out) {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    bool integral = pos_ > start && text_[pos_ - 1] != '-';
    if (!integral) return fail("invalid number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    const std::string tok(text_.substr(start, pos_ - start));
    out.kind_ = JsonValue::Kind::Number;
    errno = 0;
    out.num_ = std::strtod(tok.c_str(), nullptr);
    if (integral) {
      errno = 0;
      const long long v = std::strtoll(tok.c_str(), nullptr, 10);
      if (errno != ERANGE) {
        out.int_ = v;
        out.int_exact_ = true;
      }
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open arrays and objects around pos_
  std::string err_;
};

std::optional<JsonValue> JsonValue::parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

}  // namespace ilp::server
