#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace edgesched::obs {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue value) {
  if (type_ == Type::kNull) {
    type_ = Type::kObject;
  }
  if (type_ != Type::kObject) {
    throw std::logic_error("JsonValue::set on a non-object");
  }
  object_[key] = std::move(value);
  return *this;
}

JsonValue& JsonValue::push(JsonValue value) {
  if (type_ == Type::kNull) {
    type_ = Type::kArray;
  }
  if (type_ != Type::kArray) {
    throw std::logic_error("JsonValue::push on a non-array");
  }
  array_.push_back(std::move(value));
  return *this;
}

bool JsonValue::contains(const std::string& key) const {
  return type_ == Type::kObject && object_.count(key) != 0;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  if (type_ != Type::kObject) {
    throw std::out_of_range("JsonValue::at(key) on a non-object");
  }
  const auto it = object_.find(key);
  if (it == object_.end()) {
    throw std::out_of_range("JsonValue: no member \"" + key + "\"");
  }
  return it->second;
}

const JsonValue& JsonValue::at(std::size_t index) const {
  if (type_ != Type::kArray || index >= array_.size()) {
    throw std::out_of_range("JsonValue::at(index) out of range");
  }
  return array_[index];
}

std::size_t JsonValue::size() const noexcept {
  switch (type_) {
    case Type::kArray:
      return array_.size();
    case Type::kObject:
      return object_.size();
    default:
      return 0;
  }
}

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) {
    throw std::logic_error("JsonValue::as_bool on a non-bool");
  }
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) {
    throw std::logic_error("JsonValue::as_number on a non-number");
  }
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) {
    throw std::logic_error("JsonValue::as_string on a non-string");
  }
  return string_;
}

namespace {

void write_number(std::ostream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";  // JSON has no inf/nan
    return;
  }
  // Integral doubles within the exactly-representable range print as
  // integers so counters round-trip without a fractional tail.
  if (value == std::floor(value) && std::abs(value) < 9.007199254740992e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
    os << buffer;
    return;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  os << buffer;
}

}  // namespace

void JsonValue::write_impl(std::ostream& os, int indent, int depth) const {
  const std::string pad =
      indent >= 0 ? std::string(static_cast<std::size_t>(indent) *
                                    (static_cast<std::size_t>(depth) + 1),
                                ' ')
                  : std::string();
  const std::string close_pad =
      indent >= 0
          ? std::string(
                static_cast<std::size_t>(indent) * static_cast<std::size_t>(
                                                       depth),
                ' ')
          : std::string();
  const char* nl = indent >= 0 ? "\n" : "";
  switch (type_) {
    case Type::kNull:
      os << "null";
      break;
    case Type::kBool:
      os << (bool_ ? "true" : "false");
      break;
    case Type::kNumber:
      write_number(os, number_);
      break;
    case Type::kString:
      os << '"' << json_escape(string_) << '"';
      break;
    case Type::kArray: {
      if (array_.empty()) {
        os << "[]";
        break;
      }
      os << '[' << nl;
      for (std::size_t i = 0; i < array_.size(); ++i) {
        os << pad;
        array_[i].write_impl(os, indent, depth + 1);
        if (i + 1 < array_.size()) {
          os << ',';
        }
        os << nl;
      }
      os << close_pad << ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        os << "{}";
        break;
      }
      os << '{' << nl;
      std::size_t i = 0;
      for (const auto& [key, value] : object_) {
        os << pad << '"' << json_escape(key) << "\":";
        if (indent >= 0) {
          os << ' ';
        }
        value.write_impl(os, indent, depth + 1);
        if (++i < object_.size()) {
          os << ',';
        }
        os << nl;
      }
      os << close_pad << '}';
      break;
    }
  }
}

void JsonValue::write(std::ostream& os, int indent) const {
  write_impl(os, indent, 0);
}

std::string JsonValue::dump(int indent) const {
  std::ostringstream os;
  write(os, indent);
  return os.str();
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) {
          fail("invalid literal");
        }
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) {
          fail("invalid literal");
        }
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) {
          fail("invalid literal");
        }
        return JsonValue();
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue value = JsonValue::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      value.set(key, parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue value = JsonValue::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    for (;;) {
      value.push(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // Minimal UTF-8 encoding; surrogate pairs are passed through as
          // two 3-byte sequences (sufficient for our own artifacts).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    try {
      std::size_t consumed = 0;
      const double value = std::stod(token, &consumed);
      if (consumed != token.size()) {
        fail("malformed number");
      }
      return JsonValue(value);
    } catch (const std::logic_error&) {
      fail("malformed number");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace edgesched::obs
