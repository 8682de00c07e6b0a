#include "fatomic/report/json_parse.hpp"

#include <cctype>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "fatomic/report/json.hpp"

namespace fatomic::report {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type() != Type::Object) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr)
    throw std::runtime_error("json: missing key \"" + key + "\"");
  return *v;
}

std::string JsonValue::dump() const {
  std::ostringstream os;
  switch (type()) {
    case Type::Null:
      os << "null";
      break;
    case Type::Bool:
      os << (boolean ? "true" : "false");
      break;
    case Type::Number:
      os << lexeme;
      break;
    case Type::String:
      os << '"' << json_escape(string) << '"';
      break;
    case Type::Array: {
      os << '[';
      bool first = true;
      for (const JsonValue& v : array) {
        if (!first) os << ',';
        first = false;
        os << v.dump();
      }
      os << ']';
      break;
    }
    case Type::Object: {
      os << '{';
      bool first = true;
      for (const auto& [k, v] : object) {
        if (!first) os << ',';
        first = false;
        os << '"' << json_escape(k) << "\":" << v.dump();
      }
      os << '}';
      break;
    }
  }
  return os.str();
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const std::size_t start = pos_;
    JsonValue v = parse_bare_value();
    v.offset = start;
    return v;
  }

  JsonValue parse_bare_value() {
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth)
          fail("nested deeper than " + std::to_string(kMaxDepth) + " levels");
        JsonValue v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v(JsonValue::Type::String);
        v.string = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        {
          JsonValue v(JsonValue::Type::Bool);
          v.boolean = true;
          return v;
        }
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue(JsonValue::Type::Bool);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue(JsonValue::Type::Null);
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v(JsonValue::Type::Object);
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v(JsonValue::Type::Array);
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
              cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // UTF-8 encode (no surrogate-pair handling — our emitters only
          // produce \u escapes for control characters).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(
                                    text_[pos_])))
      fail("bad number");
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    JsonValue v(JsonValue::Type::Number);
    v.lexeme = text_.substr(start, pos_ - start);
    v.number = std::strtod(v.lexeme.c_str(), nullptr);
    return v;
  }

  /// Each nesting level is one recursion of parse_value: the cap turns a
  /// hostile document into a parse error instead of a stack overflow.  Our
  /// emitters and policy files nest fewer than 10 levels.
  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue json_parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace fatomic::report
