// Minimal, zero-dependency JSON value / parser / writer.
//
// Used for the architecture configuration file, the network description file
// (our ONNX-equivalent container), and report dumps. Supports the full JSON
// grammar plus two conveniences commonly needed in hand-written configs:
//   * `//` line comments
//   * trailing commas in arrays and objects
//
// Numbers are stored as double plus an exact int64 when representable, so
// `v.as_int()` round-trips integer configuration values exactly.
//
// Two streaming halves sit under the DOM: `Reader` pulls one document token
// by token (parse() builds a Value on it), and `Writer` emits the exact bytes
// of Value::dump() (dump() is written with it). Large documents — graph
// files with millions of weights — go through them without a Value per
// element.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pim::json {

class Value;
using Array = std::vector<Value>;
/// std::map keeps keys ordered -> deterministic serialization.
using Object = std::map<std::string, Value>;

/// Error thrown on parse failures and type mismatches.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

enum class Type { Null, Bool, Int, Double, String, Array, Object };

/// A JSON document node. Value-semantic; cheap to move.
class Value {
 public:
  Value() = default;
  Value(std::nullptr_t) {}
  Value(bool b) : type_(Type::Bool), bool_(b) {}
  Value(int i) : type_(Type::Int), int_(i), double_(static_cast<double>(i)) {}
  Value(int64_t i) : type_(Type::Int), int_(i), double_(static_cast<double>(i)) {}
  Value(uint64_t i) : Value(static_cast<int64_t>(i)) {}
  Value(uint32_t i) : Value(static_cast<int64_t>(i)) {}
  Value(uint16_t i) : Value(static_cast<int64_t>(i)) {}
  Value(uint8_t i) : Value(static_cast<int64_t>(i)) {}
  Value(double d) : type_(Type::Double), double_(d) {}
  Value(const char* s) : type_(Type::String), string_(s) {}
  Value(std::string s) : type_(Type::String), string_(std::move(s)) {}
  Value(Array a) : type_(Type::Array), array_(std::move(a)) {}
  Value(Object o) : type_(Type::Object), object_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Int || type_ == Type::Double; }
  bool is_int() const { return type_ == Type::Int; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  bool as_bool() const;
  int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  /// Object member access; throws Error if not an object / key missing.
  const Value& at(std::string_view key) const;
  /// True if this is an object containing `key`.
  bool contains(std::string_view key) const;

  /// Object member access with default for missing keys.
  bool get_or(std::string_view key, bool fallback) const;
  int64_t get_or(std::string_view key, int64_t fallback) const;
  int64_t get_or(std::string_view key, int fallback) const { return get_or(key, static_cast<int64_t>(fallback)); }
  uint32_t get_or(std::string_view key, uint32_t fallback) const {
    return static_cast<uint32_t>(get_or(key, static_cast<int64_t>(fallback)));
  }
  uint64_t get_or(std::string_view key, uint64_t fallback) const {
    return static_cast<uint64_t>(get_or(key, static_cast<int64_t>(fallback)));
  }
  double get_or(std::string_view key, double fallback) const;
  std::string get_or(std::string_view key, const std::string& fallback) const;
  std::string get_or(std::string_view key, const char* fallback) const { return get_or(key, std::string(fallback)); }

  /// Mutable object insertion: v["key"] = ...; converts Null -> Object.
  Value& operator[](const std::string& key);

  /// Array element access; throws Error on type/bounds violation.
  const Value& at(size_t index) const;
  size_t size() const;

  /// Serialize. indent < 0 -> compact single line.
  std::string dump(int indent = -1) const;

  bool operator==(const Value& other) const;

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Streaming serializer. Emits exactly the bytes Value::dump(indent) gives
/// for the same document, so a caller can write a large document (or hash
/// it) without building it first. Keys are written in the order given: to
/// match a dumped Object, give them in std::map (byte-wise) order.
class Writer {
 public:
  /// Receives the output in order, one contiguous chunk per call.
  using Sink = std::function<void(std::string_view)>;

  /// Append the output to `out`. indent < 0 -> compact single line.
  explicit Writer(std::string& out, int indent = -1);
  /// Buffer the output and hand it to `sink` in chunks of about 64 KiB;
  /// flush() passes on the rest.
  explicit Writer(Sink sink, int indent = -1);
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();
  /// The key of the next object member; its value follows.
  Writer& key(std::string_view k);

  Writer& null();
  Writer& boolean(bool b);
  Writer& integer(int64_t i);
  Writer& number(double d);  ///< non-finite values are written as null
  Writer& string(std::string_view s);
  Writer& value(const Value& v);  ///< a whole DOM subtree
  /// An array of integers: the bytes of begin_array(), integer() per
  /// element and end_array(), formatted in bulk (graph weights).
  Writer& integers(std::span<const int8_t> values);
  Writer& integers(std::span<const int32_t> values);

  /// Hand any buffered output to the sink (no-op when writing to a string).
  void flush();

 private:
  void before_value();
  void newline_indent(size_t depth);
  void wrote();
  template <typename Int>
  Writer& integer_array(std::span<const Int> values);

  std::string buffer_;
  std::string* out_;
  Sink sink_;
  int indent_;
  std::vector<uint8_t> open_;  ///< per open container: 1 once it has a member
  bool after_key_ = false;
};

/// Pull reader over one JSON document — the one grammar behind parse():
/// comments, trailing commas, the nesting cap and line/column errors. Every
/// read_* consumes one value; containers are walked with begin_*/next_*:
///
///   r.begin_object();
///   while (r.next_key(key)) { ... read exactly one value for `key` ... }
///
/// Every failure throws Error naming the line and column.
class Reader {
 public:
  /// Containers may nest at most this deep. DOM building spends one host
  /// stack frame per level, so an unbounded document (the parser also reads
  /// socket input — see pim::serve) could overflow the stack; 256 is far
  /// beyond any real config while keeping worst-case stack use trivial.
  static constexpr size_t kMaxDepth = 256;

  /// One number token. `text` views the document.
  struct Number {
    std::string_view text;
    bool is_int = true;  ///< written without fraction or exponent
    int64_t i = 0;       ///< the value when is_int
    double d = 0.0;      ///< the value (always set)
  };

  /// Reads `text` in place: it must outlive the reader.
  explicit Reader(std::string_view text) : text_(text) {}

  /// Type of the next value, judged by its first character. Type::Int
  /// stands for a number — or for anything else, which read_number()
  /// then rejects.
  Type peek();

  /// Consume '{'. Then next_key() until it returns false.
  void begin_object();
  /// Read the next member's key into `key` (and its ':'), or consume the
  /// closing '}' and return false.
  bool next_key(std::string& key);
  /// Consume '['. Then next_element() until it returns false.
  void begin_array();
  /// True when another element follows (read it next); false after
  /// consuming the closing ']'.
  bool next_element();

  std::string read_string();
  /// A number token; it must be a number as a whole ("1-2", "+5" and "12e"
  /// are rejected, not read as a prefix).
  Number read_number();
  /// The next value as a DOM.
  Value read_value();
  /// Require the end of the document (only whitespace and comments left).
  void finish();

 private:
  /// Throw Error with the current line and column.
  [[noreturn]] void fail(const std::string& msg) const;
  char peek_char();
  void skip_ws();
  void expect(char c);
  bool consume_literal(std::string_view lit);
  void open(char c);
  void read_string_into(std::string& out);
  unsigned read_hex4();

  std::string_view text_;
  size_t pos_ = 0;
  std::vector<uint8_t> open_;  ///< per open container: 1 once it has a member
};

/// Parse a JSON document; throws Error with line/column info on failure.
Value parse(std::string_view text);

/// The whole file at `path`: a regular file in one sized read, a pipe or a
/// file of unreported size streamed to its end. Throws Error on I/O failure.
std::string read_file(const std::string& path);

/// Parse the file at `path`; throws Error (including on I/O failure).
Value parse_file(const std::string& path);

/// Write `value` to `path` (pretty-printed); throws Error on I/O failure.
void write_file(const std::string& path, const Value& value, int indent = 2);

}  // namespace pim::json
