#include "json/json.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace pim::json {

namespace {
[[noreturn]] void type_error(const char* want, Type got) {
  static const char* names[] = {"null", "bool", "int", "double", "string", "array", "object"};
  throw Error(std::string("json: expected ") + want + ", got " + names[static_cast<int>(got)]);
}
}  // namespace

bool Value::as_bool() const {
  if (type_ != Type::Bool) type_error("bool", type_);
  return bool_;
}

int64_t Value::as_int() const {
  if (type_ == Type::Int) return int_;
  if (type_ == Type::Double) {
    if (std::nearbyint(double_) != double_) throw Error("json: non-integral number where int expected");
    return static_cast<int64_t>(double_);
  }
  type_error("int", type_);
}

double Value::as_double() const {
  if (!is_number()) type_error("number", type_);
  return double_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::String) type_error("string", type_);
  return string_;
}

const Array& Value::as_array() const {
  if (type_ != Type::Array) type_error("array", type_);
  return array_;
}

const Object& Value::as_object() const {
  if (type_ != Type::Object) type_error("object", type_);
  return object_;
}

Array& Value::as_array() {
  if (type_ != Type::Array) type_error("array", type_);
  return array_;
}

Object& Value::as_object() {
  if (type_ != Type::Object) type_error("object", type_);
  return object_;
}

const Value& Value::at(std::string_view key) const {
  const Object& obj = as_object();
  auto it = obj.find(std::string(key));
  if (it == obj.end()) throw Error("json: missing key '" + std::string(key) + "'");
  return it->second;
}

bool Value::contains(std::string_view key) const {
  return type_ == Type::Object && object_.count(std::string(key)) > 0;
}

bool Value::get_or(std::string_view key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}
int64_t Value::get_or(std::string_view key, int64_t fallback) const {
  return contains(key) ? at(key).as_int() : fallback;
}
double Value::get_or(std::string_view key, double fallback) const {
  return contains(key) ? at(key).as_double() : fallback;
}
std::string Value::get_or(std::string_view key, const std::string& fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

Value& Value::operator[](const std::string& key) {
  if (type_ == Type::Null) type_ = Type::Object;
  if (type_ != Type::Object) type_error("object", type_);
  return object_[key];
}

const Value& Value::at(size_t index) const {
  const Array& arr = as_array();
  if (index >= arr.size()) throw Error("json: array index out of range");
  return arr[index];
}

size_t Value::size() const {
  if (type_ == Type::Array) return array_.size();
  if (type_ == Type::Object) return object_.size();
  type_error("array or object", type_);
}

bool Value::operator==(const Value& other) const {
  if (is_number() && other.is_number()) return as_double() == other.as_double();
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == other.bool_;
    case Type::Int: return int_ == other.int_;
    case Type::Double: return double_ == other.double_;
    case Type::String: return string_ == other.string_;
    case Type::Array: return array_ == other.array_;
    case Type::Object: return object_ == other.object_;
  }
  return false;
}

// ---------------------------------------------------------------- serializer

namespace {
/// Output handed to a Writer's sink at a time.
constexpr size_t kWriterChunk = size_t{64} << 10;

/// Decimal text of one int8 value ("-128" is the longest).
struct Int8Text {
  char text[4] = {};
  uint8_t size = 0;
};

/// Indexed by the value's bit pattern (static_cast<uint8_t>). Constant
/// initialized, so it is ready before any dynamic initializer runs.
constexpr std::array<Int8Text, 256> kInt8Texts = [] {
  std::array<Int8Text, 256> table{};
  for (int v = -128; v <= 127; ++v) {
    Int8Text& t = table[static_cast<uint8_t>(v)];
    const int m = v < 0 ? -v : v;
    if (v < 0) t.text[t.size++] = '-';
    if (m >= 100) t.text[t.size++] = static_cast<char>('0' + m / 100);
    if (m >= 10) t.text[t.size++] = static_cast<char>('0' + m / 10 % 10);
    t.text[t.size++] = static_cast<char>('0' + m % 10);
  }
  return table;
}();
}  // namespace

Writer::Writer(std::string& out, int indent) : out_(&out), indent_(indent) {}

Writer::Writer(Sink sink, int indent)
    : out_(&buffer_), sink_(std::move(sink)), indent_(indent) {
  buffer_.reserve(kWriterChunk + 256);
}

void Writer::flush() {
  if (!sink_ || buffer_.empty()) return;
  sink_(buffer_);
  buffer_.clear();
}

void Writer::wrote() {
  if (sink_ && buffer_.size() >= kWriterChunk) flush();
}

void Writer::newline_indent(size_t depth) {
  if (indent_ < 0) return;
  *out_ += '\n';
  out_->append(static_cast<size_t>(indent_) * depth, ' ');
}

/// The separator before a value: none after a key or at the top level, else
/// a comma after the first member and the line break of pretty output.
void Writer::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (open_.empty()) return;
  if (open_.back()) *out_ += ',';
  open_.back() = 1;
  newline_indent(open_.size());
}

Writer& Writer::begin_object() {
  before_value();
  *out_ += '{';
  open_.push_back(0);
  return *this;
}

Writer& Writer::end_object() {
  const bool members = open_.back();
  open_.pop_back();
  if (members) newline_indent(open_.size());
  *out_ += '}';
  wrote();
  return *this;
}

Writer& Writer::begin_array() {
  before_value();
  *out_ += '[';
  open_.push_back(0);
  return *this;
}

Writer& Writer::end_array() {
  const bool members = open_.back();
  open_.pop_back();
  if (members) newline_indent(open_.size());
  *out_ += ']';
  wrote();
  return *this;
}

Writer& Writer::key(std::string_view k) {
  string(k);
  *out_ += indent_ < 0 ? ":" : ": ";
  after_key_ = true;
  return *this;
}

Writer& Writer::null() {
  before_value();
  *out_ += "null";
  wrote();
  return *this;
}

Writer& Writer::boolean(bool b) {
  before_value();
  *out_ += b ? "true" : "false";
  wrote();
  return *this;
}

Writer& Writer::integer(int64_t i) {
  before_value();
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, i);
  out_->append(buf, res.ptr);
  wrote();
  return *this;
}

Writer& Writer::number(double d) {
  if (!std::isfinite(d)) return null();  // JSON has no inf/nan
  before_value();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  *out_ += buf;
  wrote();
  return *this;
}

Writer& Writer::string(std::string_view s) {
  before_value();
  std::string& out = *out_;
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  wrote();
  return *this;
}

Writer& Writer::value(const Value& v) {
  switch (v.type()) {
    case Type::Null: return null();
    case Type::Bool: return boolean(v.as_bool());
    case Type::Int: return integer(v.as_int());
    case Type::Double: return number(v.as_double());
    case Type::String: return string(v.as_string());
    case Type::Array:
      begin_array();
      for (const Value& e : v.as_array()) value(e);
      return end_array();
    case Type::Object:
      begin_object();
      for (const auto& [k, e] : v.as_object()) {
        key(k);
        value(e);
      }
      return end_object();
  }
  return *this;
}

// Formats into a local buffer instead of calling integer() per element:
// functional_weights ran 17% fewer kinstr/s with an integer() loop (x86-64,
// GCC 12).
template <typename Int>
Writer& Writer::integer_array(std::span<const Int> values) {
  begin_array();
  // What before_value() writes ahead of each element; the first one goes
  // without the comma.
  std::string sep = ",";
  if (indent_ >= 0) {
    sep += '\n';
    sep.append(static_cast<size_t>(indent_) * open_.size(), ' ');
  }
  char local[4096];
  if (values.empty() || sep.size() > sizeof local / 2) {  // absurd depth: one by one
    for (const Int x : values) integer(x);
    return end_array();
  }
  size_t n = 0;
  std::string_view next = std::string_view(sep).substr(1);
  for (const Int x : values) {
    if (n + next.size() + 24 > sizeof local) {
      out_->append(local, n);
      n = 0;
      wrote();
    }
    std::memcpy(local + n, next.data(), next.size());
    n += next.size();
    if constexpr (sizeof(Int) == 1) {
      // A table lookup: functional_weights ran 9% fewer kinstr/s with
      // std::to_chars here (x86-64, GCC 12).
      const Int8Text& t = kInt8Texts[static_cast<uint8_t>(x)];
      std::memcpy(local + n, t.text, sizeof t.text);
      n += t.size;
    } else {
      n = static_cast<size_t>(std::to_chars(local + n, local + sizeof local, x).ptr - local);
    }
    next = sep;
  }
  out_->append(local, n);
  open_.back() = 1;
  return end_array();
}

Writer& Writer::integers(std::span<const int8_t> values) { return integer_array(values); }
Writer& Writer::integers(std::span<const int32_t> values) { return integer_array(values); }

std::string Value::dump(int indent) const {
  std::string out;
  Writer(out, indent).value(*this);
  return out;
}

// ------------------------------------------------------------------- parser

void Reader::fail(const std::string& msg) const {
  size_t line = 1, col = 1;
  for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
    if (text_[i] == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
  }
  throw Error("json parse error at line " + std::to_string(line) + ", col " +
              std::to_string(col) + ": " + msg);
}

void Reader::skip_ws() {
  // Scan with a local pointer: a store to pos_ per character would be
  // reloaded around every char read, which may alias it.
  const char* p = text_.data() + pos_;
  const char* const end = text_.data() + text_.size();
  while (p != end) {
    const char c = *p;
    if (c == ' ' || c == '\n' || c == '\t' || c == '\r') {
      ++p;
    } else if (c == '/' && p + 1 != end && p[1] == '/') {
      while (p != end && *p != '\n') ++p;
    } else {
      break;
    }
  }
  pos_ = static_cast<size_t>(p - text_.data());
}

char Reader::peek_char() {
  skip_ws();
  return pos_ < text_.size() ? text_[pos_] : '\0';
}

void Reader::expect(char c) {
  if (peek_char() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

bool Reader::consume_literal(std::string_view lit) {
  if (text_.substr(pos_, lit.size()) == lit) {
    pos_ += lit.size();
    return true;
  }
  return false;
}

Type Reader::peek() {
  switch (peek_char()) {
    case '{': return Type::Object;
    case '[': return Type::Array;
    case '"': return Type::String;
    case 't':
    case 'f': return Type::Bool;
    case 'n': return Type::Null;
    default: return Type::Int;
  }
}

void Reader::open(char c) {
  if (peek_char() == c && open_.size() >= kMaxDepth) {
    fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
  }
  expect(c);
  open_.push_back(0);
}

void Reader::begin_object() { open('{'); }
void Reader::begin_array() { open('['); }

bool Reader::next_key(std::string& key) {
  char c = peek_char();
  if (c != '}' && open_.back()) {
    if (c != ',') fail("expected ',' or '}' in object");
    ++pos_;
    c = peek_char();
  }
  if (c == '}') {  // end of the object, possibly after a trailing comma
    ++pos_;
    open_.pop_back();
    return false;
  }
  open_.back() = 1;
  key.clear();
  read_string_into(key);
  expect(':');
  return true;
}

bool Reader::next_element() {
  char c = peek_char();
  if (c != ']' && open_.back()) {
    if (c != ',') fail("expected ',' or ']' in array");
    ++pos_;
    c = peek_char();
  }
  if (c == ']') {  // end of the array, possibly after a trailing comma
    ++pos_;
    open_.pop_back();
    return false;
  }
  open_.back() = 1;
  return true;
}

std::string Reader::read_string() {
  std::string out;
  read_string_into(out);
  return out;
}

void Reader::read_string_into(std::string& out) {
  expect('"');
  while (true) {
    // Copy the run up to the next quote or escape in one piece.
    const size_t stop = text_.find_first_of("\"\\", pos_);
    if (stop == std::string_view::npos) {
      pos_ = text_.size();
      fail("unterminated string");
    }
    out.append(text_.data() + pos_, stop - pos_);
    pos_ = stop + 1;
    if (text_[stop] == '"') return;
    const char esc = pos_ < text_.size() ? text_[pos_++] : '\0';
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        unsigned code = read_hex4();
        // Surrogates are only meaningful as a \uD8xx\uDCxx pair naming an
        // astral code point; a lone half is not a code point at all, and
        // encoding it would emit invalid UTF-8. Reject unpaired halves with
        // a precise message.
        if (code >= 0xDC00 && code <= 0xDFFF) {
          fail("unpaired low surrogate in \\u escape");
        }
        if (code >= 0xD800 && code <= 0xDBFF) {
          if (!consume_literal("\\u")) {
            fail("high surrogate must be followed by a \\u low surrogate");
          }
          const unsigned lo = read_hex4();
          if (lo < 0xDC00 || lo > 0xDFFF) {
            fail("high surrogate must be followed by a low surrogate");
          }
          code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
        }
        // Encode the code point as UTF-8 (1-4 bytes).
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
        break;
      }
      default: fail("bad escape character");
    }
  }
}

unsigned Reader::read_hex4() {
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    const char h = pos_ < text_.size() ? text_[pos_++] : '\0';
    code <<= 4;
    if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
    else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
    else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
    else fail("bad \\u escape");
  }
  return code;
}

Reader::Number Reader::read_number() {
  skip_ws();
  // The token runs over every character a number may hold, so "1-2" or
  // "1.2.3" is one token that must convert as a whole — never a number
  // followed by silently dropped garbage.
  const size_t start = pos_;
  const char* const first = text_.data() + start;
  const char* const end = text_.data() + text_.size();
  const char* last = first;
  Number n;
  for (; last != end; ++last) {
    const char c = *last;
    if (c == '.' || c == 'e' || c == 'E') {
      n.is_int = false;
    } else if ((c < '0' || c > '9') && c != '+' && c != '-') {
      break;
    }
  }
  if (last == first) fail("expected a value");
  pos_ = static_cast<size_t>(last - text_.data());
  n.text = std::string_view(first, static_cast<size_t>(last - first));
  const std::from_chars_result res =
      n.is_int ? std::from_chars(n.text.data(), last, n.i)
               : std::from_chars(n.text.data(), last, n.d);
  if (res.ec != std::errc() || res.ptr != last) {
    pos_ = start;
    fail("invalid number '" + std::string(n.text) + "'");
  }
  if (n.is_int) n.d = static_cast<double>(n.i);
  return n;
}

Value Reader::read_value() {
  switch (peek()) {
    case Type::Object: {
      begin_object();
      Object obj;
      std::string key;
      while (next_key(key)) obj[key] = read_value();
      return Value(std::move(obj));
    }
    case Type::Array: {
      begin_array();
      Array arr;
      while (next_element()) arr.push_back(read_value());
      return Value(std::move(arr));
    }
    case Type::String: return Value(read_string());
    case Type::Bool:
      if (consume_literal("true")) return Value(true);
      if (consume_literal("false")) return Value(false);
      fail("invalid literal");
    case Type::Null:
      if (consume_literal("null")) return Value(nullptr);
      fail("invalid literal");
    default: {
      const Number n = read_number();
      return n.is_int ? Value(n.i) : Value(n.d);
    }
  }
}

void Reader::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters after document");
}

Value parse(std::string_view text) {
  Reader r(text);
  Value v = r.read_value();
  r.finish();
  return v;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("json: cannot open file '" + path + "'");
  std::string text;
  // A regular file is read with one sized read. A pipe (`--arch <(...)`)
  // has no size and a procfs file reports 0, so what the sized read leaves
  // is read on to the end in chunks.
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec && size > 0) {
    text.resize(static_cast<size_t>(size));
    in.read(text.data(), static_cast<std::streamsize>(size));
    text.resize(static_cast<size_t>(in.gcount()));
  }
  char chunk[size_t{64} << 10];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) throw Error("json: cannot read file '" + path + "'");
  return text;
}

Value parse_file(const std::string& path) { return parse(read_file(path)); }

void write_file(const std::string& path, const Value& value, int indent) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("json: cannot write file '" + path + "'");
  out << value.dump(indent) << '\n';
}

}  // namespace pim::json
