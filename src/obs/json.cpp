#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "common/error.h"

namespace nf::obs {

bool Json::as_bool() const {
  require(is_bool(), "json value is not a bool");
  return std::get<bool>(v_);
}

double Json::as_double() const {
  if (const auto* i = std::get_if<std::int64_t>(&v_)) {
    return static_cast<double>(*i);
  }
  if (const auto* u = std::get_if<std::uint64_t>(&v_)) {
    return static_cast<double>(*u);
  }
  require(std::holds_alternative<double>(v_), "json value is not a number");
  return std::get<double>(v_);
}

std::uint64_t Json::as_uint64() const {
  if (const auto* u = std::get_if<std::uint64_t>(&v_)) return *u;
  if (const auto* i = std::get_if<std::int64_t>(&v_)) {
    require(*i >= 0, "json value is negative");
    return static_cast<std::uint64_t>(*i);
  }
  if (const auto* d = std::get_if<double>(&v_)) {
    require(*d >= 0.0 && *d <= 1.8446744073709552e19 &&
                *d == std::floor(*d),
            "json value is not an unsigned integer");
    return static_cast<std::uint64_t>(*d);
  }
  throw InvalidArgument("json value is not a number");
}

const std::string& Json::as_string() const {
  require(is_string(), "json value is not a string");
  return std::get<std::string>(v_);
}

const Json::Array& Json::as_array() const {
  require(is_array(), "json value is not an array");
  return std::get<Array>(v_);
}

const Json::Object& Json::as_object() const {
  require(is_object(), "json value is not an object");
  return std::get<Object>(v_);
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) v_ = Object{};
  require(is_object(), "json operator[] on a non-object");
  return std::get<Object>(v_)[key];
}

const Json* Json::find(std::string_view key) const {
  const auto* obj = std::get_if<Object>(&v_);
  if (obj == nullptr) return nullptr;
  const auto it = obj->find(std::string(key));
  return it == obj->end() ? nullptr : &it->second;
}

const Json& Json::at(std::string_view key) const {
  const Json* found = find(key);
  require(found != nullptr, concat("json key not found: ", key));
  return *found;
}

void Json::push_back(Json value) {
  if (is_null()) v_ = Array{};
  require(is_array(), "json push_back on a non-array");
  // Reached only through nf-lint's call-graph name-collision edge on
  // `push_back`; Json is report plumbing and never runs inside the engine's
  // steady-state round.
  // nf-lint: nf-cap-noalloc-ok
  std::get<Array>(v_).push_back(std::move(value));
}

std::size_t Json::size() const {
  if (const auto* a = std::get_if<Array>(&v_)) return a->size();
  if (const auto* o = std::get_if<Object>(&v_)) return o->size();
  return 0;
}

namespace {

void dump_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void newline_indent(std::ostream& os, int indent, int depth) {
  if (indent < 0) return;
  os << '\n';
  for (int i = 0; i < indent * depth; ++i) os << ' ';
}

}  // namespace

void Json::dump_impl(std::ostream& os, int indent, int depth) const {
  if (std::holds_alternative<std::nullptr_t>(v_)) {
    os << "null";
  } else if (const auto* b = std::get_if<bool>(&v_)) {
    os << (*b ? "true" : "false");
  } else if (const auto* n = std::get_if<std::int64_t>(&v_)) {
    os << *n;
  } else if (const auto* u = std::get_if<std::uint64_t>(&v_)) {
    os << *u;
  } else if (const auto* d = std::get_if<double>(&v_)) {
    if (!std::isfinite(*d)) {
      os << "null";  // JSON has no NaN/Inf
    } else {
      // 17 significant digits round-trip any double exactly; defaultfloat
      // drops trailing zeros, so common values stay short ("0.01").
      std::ostringstream tmp;
      tmp << std::setprecision(17) << *d;
      std::string text = tmp.str();
      // Keep the number a double on re-parse.
      if (text.find_first_of(".eE") == std::string::npos) text += ".0";
      os << text;
    }
  } else if (const auto* s = std::get_if<std::string>(&v_)) {
    dump_string(os, *s);
  } else if (const auto* a = std::get_if<Array>(&v_)) {
    if (a->empty()) {
      os << "[]";
      return;
    }
    os << '[';
    for (std::size_t i = 0; i < a->size(); ++i) {
      if (i != 0) os << ',';
      newline_indent(os, indent, depth + 1);
      (*a)[i].dump_impl(os, indent, depth + 1);
    }
    newline_indent(os, indent, depth);
    os << ']';
  } else {
    const auto& obj = std::get<Object>(v_);
    if (obj.empty()) {
      os << "{}";
      return;
    }
    os << '{';
    bool first = true;
    for (const auto& [key, value] : obj) {
      if (!first) os << ',';
      first = false;
      newline_indent(os, indent, depth + 1);
      dump_string(os, key);
      os << (indent < 0 ? ":" : ": ");
      value.dump_impl(os, indent, depth + 1);
    }
    newline_indent(os, indent, depth);
    os << '}';
  }
}

void Json::dump(std::ostream& os, int indent) const {
  dump_impl(os, indent, 0);
}

std::string Json::dump(int indent) const {
  std::ostringstream os;
  dump(os, indent);
  return os.str();
}

namespace {

/// Recursive-descent JSON parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_ws();
    require(pos_ == text_.size(), "json: trailing characters");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument(concat("json parse error at offset ", pos_, ": ",
                                 what));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(concat("expected '", c, "'"));
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value(depth + 1);
      skip_ws();
      const char next = peek();
      ++pos_;
      if (next == '}') return Json(std::move(obj));
      if (next != ',') fail("expected ',' or '}'");
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      const char next = peek();
      ++pos_;
      if (next == ']') return Json(std::move(arr));
      if (next != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) {
          fail("unescaped control character");
        }
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail("bad escape");
      }
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    std::uint32_t code = 0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + pos_, text_.data() + pos_ + 4, code,
                        16);
    if (ec != std::errc{} || ptr != text_.data() + pos_ + 4) {
      fail("bad \\u escape");
    }
    pos_ += 4;
    return code;
  }

  void append_unicode_escape(std::string& out) {
    std::uint32_t code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {
      // Surrogate pair: a low surrogate must follow.
      if (!consume_literal("\\u")) fail("unpaired surrogate");
      const std::uint32_t low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("bad low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired surrogate");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("bad number");

    const bool integral =
        token.find_first_of(".eE") == std::string_view::npos;
    if (integral) {
      if (token.front() == '-') {
        std::int64_t i = 0;
        const auto [ptr, ec] =
            std::from_chars(token.data(), token.data() + token.size(), i);
        if (ec == std::errc{} && ptr == token.data() + token.size()) {
          return Json(i);
        }
      } else {
        std::uint64_t u = 0;
        const auto [ptr, ec] =
            std::from_chars(token.data(), token.data() + token.size(), u);
        if (ec == std::errc{} && ptr == token.data() + token.size()) {
          return Json(u);
        }
      }
      // Out of 64-bit range: fall through to double.
    }
    double d = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), d);
    if (ec != std::errc{} || ptr != token.data() + token.size()) {
      fail("bad number");
    }
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_{0};
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace nf::obs
