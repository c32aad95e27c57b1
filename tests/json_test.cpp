// Unit tests for the JSON module: parser, writer, accessors, error paths.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <climits>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "json/json.h"

namespace pim::json {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(parse("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(parse("-2.5e-2").as_double(), -0.025);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, IntVsDouble) {
  EXPECT_TRUE(parse("7").is_int());
  EXPECT_FALSE(parse("7.0").is_int());
  EXPECT_TRUE(parse("7.0").is_number());
  // as_int on an integral double works; on a fractional one throws.
  EXPECT_EQ(parse("7.0").as_int(), 7);
  EXPECT_THROW(parse("7.5").as_int(), Error);
}

TEST(JsonParse, Arrays) {
  Value v = parse("[1, 2, 3]");
  ASSERT_TRUE(v.is_array());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.at(0).as_int(), 1);
  EXPECT_EQ(v.at(2).as_int(), 3);
  EXPECT_THROW(v.at(3), Error);
  EXPECT_TRUE(parse("[]").as_array().empty());
  EXPECT_EQ(parse("[[1],[2,3]]").at(1).at(1).as_int(), 3);
}

TEST(JsonParse, Objects) {
  Value v = parse(R"({"a": 1, "b": {"c": "x"}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_EQ(v.at("b").at("c").as_string(), "x");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("z"));
  EXPECT_THROW(v.at("z"), Error);
  EXPECT_TRUE(parse("{}").as_object().empty());
}

TEST(JsonParse, CommentsAndTrailingCommas) {
  Value v = parse(R"({
    // architecture section
    "cores": 64,   // paper config
    "list": [1, 2, 3,],
  })");
  EXPECT_EQ(v.at("cores").as_int(), 64);
  EXPECT_EQ(v.at("list").size(), 3u);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\nb")").as_string(), "a\nb");
  EXPECT_EQ(parse(R"("q\"q")").as_string(), "q\"q");
  EXPECT_EQ(parse(R"("\\")").as_string(), "\\");
  EXPECT_EQ(parse(R"("\t\r\b\f")").as_string(), "\t\r\b\f");
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
  EXPECT_EQ(parse(R"("é")").as_string(), "\xc3\xa9");  // é in UTF-8
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  try {
    parse("{\n  \"a\": 1,\n  \"b\" 2\n}");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_THROW(parse(""), Error);
  EXPECT_THROW(parse("{"), Error);
  EXPECT_THROW(parse("[1 2]"), Error);
  EXPECT_THROW(parse("tru"), Error);
  EXPECT_THROW(parse("\"unterminated"), Error);
  EXPECT_THROW(parse("{\"a\":}"), Error);
  EXPECT_THROW(parse("1 2"), Error);  // trailing garbage
  EXPECT_THROW(parse("{'single':1}"), Error);
}

/// The parse error message of `text` ("" when it parses).
std::string parse_error(std::string_view text) {
  try {
    parse(text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(JsonParse, NumbersMustConvertWhole) {
  // Each number token must be one number as a whole: these used to read as
  // a prefix ([1], [1.2], [5], [12]) with the rest silently dropped.
  for (const char* text : {"[1-2]", "[1.2.3]", "[+5]", "[12e]", "[1e5e5]", "[-]", "[--1]"}) {
    const std::string err = parse_error(text);
    EXPECT_NE(err.find("line 1, col 2: invalid number"), std::string::npos) << text << ": " << err;
  }
  EXPECT_NE(parse_error("{\n  \"a\": 12e\n}").find("line 2, col 8"), std::string::npos);
  EXPECT_THROW(parse("99999999999999999999"), Error);  // beyond int64
  EXPECT_THROW(parse("1e999"), Error);                 // beyond double
  // Well-formed numbers still read exactly.
  EXPECT_EQ(parse("-9223372036854775808").as_int(), INT64_MIN);
  EXPECT_EQ(parse("[1,-2]").at(1).as_int(), -2);
  EXPECT_DOUBLE_EQ(parse("1.5e+2").as_double(), 150.0);
  EXPECT_DOUBLE_EQ(parse("-0.25E-1").as_double(), -0.025);
}

TEST(JsonReader, PullsValuesOneByOne) {
  Reader r(R"({
    "ints": [1, -2, 3,],  // trailing comma and a comment
    "name": "x",
    "nested": {"d": 2.5},
  })");
  r.begin_object();
  std::string key;
  ASSERT_TRUE(r.next_key(key));
  EXPECT_EQ(key, "ints");
  EXPECT_EQ(r.peek(), Type::Array);
  r.begin_array();
  std::vector<int64_t> ints;
  while (r.next_element()) ints.push_back(r.read_number().i);
  EXPECT_EQ(ints, (std::vector<int64_t>{1, -2, 3}));
  ASSERT_TRUE(r.next_key(key));
  EXPECT_EQ(key, "name");
  EXPECT_EQ(r.read_string(), "x");
  ASSERT_TRUE(r.next_key(key));
  EXPECT_EQ(key, "nested");
  EXPECT_EQ(r.read_value(), parse(R"({"d": 2.5})"));
  EXPECT_FALSE(r.next_key(key));
  r.finish();

  const Reader::Number n = Reader("2.0").read_number();
  EXPECT_FALSE(n.is_int);
  EXPECT_EQ(n.text, "2.0");
  EXPECT_DOUBLE_EQ(n.d, 2.0);

  // Errors carry the position whichever entry point meets them.
  Reader missing_comma("[1 2]");
  missing_comma.begin_array();
  ASSERT_TRUE(missing_comma.next_element());
  missing_comma.read_number();
  try {
    missing_comma.next_element();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1, col 4"), std::string::npos) << e.what();
  }
  const std::string brackets(300, '[');
  Reader deep(brackets);
  EXPECT_THROW(
      for (size_t i = 0; i <= Reader::kMaxDepth; ++i) deep.begin_array(), Error);
}

/// `v` written through the streaming Writer's DOM entry point with a sink
/// that receives `chunks` pieces.
std::string write_chunked(const Value& v, int indent, size_t* chunks) {
  std::string out;
  Writer w([&](std::string_view s) { out += s; ++*chunks; }, indent);
  w.value(v);
  w.flush();
  return out;
}

TEST(JsonWriter, StreamedEventsMatchDump) {
  Value v = parse(R"({"a": [1, -2.5, "s\n", true, null, [], {}], "b": {"c": [[]]}, "d": 7})");
  for (int indent : {-1, 0, 2, 4}) {
    std::string out;
    Writer w(out, indent);
    w.begin_object();
    w.key("a").begin_array().integer(1).number(-2.5).string("s\n").boolean(true).null();
    w.begin_array().end_array().begin_object().end_object().end_array();
    w.key("b").begin_object().key("c").begin_array().begin_array().end_array().end_array();
    w.end_object();
    w.key("d").integer(7).end_object();
    EXPECT_EQ(out, v.dump(indent)) << "indent " << indent;
  }
}

TEST(JsonWriter, BulkIntegersMatchOneByOne) {
  std::vector<int8_t> bytes;  // every int8 value
  for (int v = -128; v <= 127; ++v) bytes.push_back(static_cast<int8_t>(v));
  const std::vector<int32_t> words = {INT32_MIN, -1000, 0, 42, INT32_MAX};
  for (int indent : {-1, 2}) {
    std::string bulk, single;
    Writer b(bulk, indent), s(single, indent);
    b.begin_object().key("w").integers(bytes).key("b").integers(words);
    b.key("e").integers(std::span<const int8_t>()).end_object();
    s.begin_object().key("w").begin_array();
    for (int8_t x : bytes) s.integer(x);
    s.end_array().key("b").begin_array();
    for (int32_t x : words) s.integer(x);
    s.end_array().key("e").begin_array().end_array().end_object();
    EXPECT_EQ(bulk, single) << "indent " << indent;
  }
}

TEST(JsonWriter, ChunkedSinkSeesTheSameBytes) {
  // Large enough for many 64 KiB chunks, through both the DOM and the bulk
  // path.
  std::vector<int8_t> many(300000);
  for (size_t i = 0; i < many.size(); ++i) many[i] = static_cast<int8_t>(i * 37);
  Array arr;
  for (int8_t x : many) arr.emplace_back(static_cast<int64_t>(x));
  const Value v(std::move(arr));
  for (int indent : {-1, 2}) {
    size_t chunks = 0;
    EXPECT_EQ(write_chunked(v, indent, &chunks), v.dump(indent));
    EXPECT_GT(chunks, 5u);
    std::string streamed;
    Writer w([&](std::string_view s) { streamed += s; }, indent);
    w.integers(many);
    w.flush();
    EXPECT_EQ(streamed, v.dump(indent));
  }
}

TEST(JsonDump, CompactAndPretty) {
  Value v;
  v["b"] = Value(1);
  v["a"] = Value(json::Array{Value(true), Value(nullptr)});
  EXPECT_EQ(v.dump(), R"({"a":[true,null],"b":1})");  // keys sorted (std::map)
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find("\n  \"a\""), std::string::npos);
}

TEST(JsonDump, RoundTrip) {
  const char* text = R"({"arr":[1,2.5,"s",false,null],"nested":{"x":-3}})";
  Value v = parse(text);
  EXPECT_EQ(parse(v.dump()), v);
  EXPECT_EQ(parse(v.dump(4)), v);
}

TEST(JsonDump, StringEscaping) {
  Value v("line1\nline2\t\"quoted\"");
  EXPECT_EQ(v.dump(), R"("line1\nline2\t\"quoted\"")");
  EXPECT_EQ(parse(v.dump()).as_string(), v.as_string());
}

TEST(JsonValue, GetOrDefaults) {
  Value v = parse(R"({"i": 3, "d": 2.5, "s": "x", "b": true})");
  EXPECT_EQ(v.get_or("i", int64_t{9}), 3);
  EXPECT_EQ(v.get_or("missing", int64_t{9}), 9);
  EXPECT_DOUBLE_EQ(v.get_or("d", 1.0), 2.5);
  EXPECT_DOUBLE_EQ(v.get_or("missing", 1.0), 1.0);
  EXPECT_EQ(v.get_or("s", std::string("y")), "x");
  EXPECT_EQ(v.get_or("missing", "y"), "y");
  EXPECT_EQ(v.get_or("b", false), true);
  EXPECT_EQ(v.get_or("missing", false), false);
}

TEST(JsonValue, TypeErrors) {
  Value v = parse("[1]");
  EXPECT_THROW(v.as_object(), Error);
  EXPECT_THROW(v.as_string(), Error);
  EXPECT_THROW(v.at("k"), Error);
  EXPECT_THROW(parse("3").as_array(), Error);
  EXPECT_THROW(parse("\"s\"").as_int(), Error);
}

TEST(JsonValue, MutationBuildsObjects) {
  Value v;  // starts null
  v["a"]["b"] = Value(1);  // null converts to object on demand
  EXPECT_EQ(v.at("a").at("b").as_int(), 1);
}

TEST(JsonValue, NumericEqualityAcrossIntDouble) {
  EXPECT_EQ(parse("3"), parse("3.0"));
  EXPECT_FALSE(parse("3") == parse("3.5"));
}

TEST(JsonFile, WriteAndParseFile) {
  const std::string path = std::filesystem::temp_directory_path() / "pim_json_test.json";
  Value v;
  v["x"] = Value(int64_t{123});
  write_file(path, v);
  Value r = parse_file(path);
  EXPECT_EQ(r, v);
  std::remove(path.c_str());
  EXPECT_THROW(parse_file(path), Error);
  EXPECT_THROW(read_file(path), Error);
}

TEST(JsonFile, ReadsAPipeToItsEnd) {
  // A FIFO can neither seek nor report a size, like `--arch <(...)` or
  // /dev/stdin. The document spans several pipe buffers.
  const std::string path = std::filesystem::temp_directory_path() /
                           ("pim_json_test_fifo." + std::to_string(::getpid()));
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::string text = "[0";
  for (int i = 1; i < 50000; ++i) text += "," + std::to_string(i);
  text += "]";
  // A reader that gives up early must fail the test, not kill it.
  std::signal(SIGPIPE, SIG_IGN);
  std::thread writer([&] { std::ofstream(path, std::ios::binary) << text; });
  std::string read;
  EXPECT_NO_THROW(read = read_file(path));
  writer.join();
  std::remove(path.c_str());
  ASSERT_EQ(read.size(), text.size());
  EXPECT_TRUE(read == text);
}

TEST(JsonParse, BigIntegersExact) {
  const int64_t big = 123456789012345678;
  EXPECT_EQ(parse("123456789012345678").as_int(), big);
  EXPECT_EQ(parse(Value(big).dump()).as_int(), big);
}

TEST(JsonParse, DeepNesting) {
  std::string text;
  for (int i = 0; i < 60; ++i) text += "[";
  text += "1";
  for (int i = 0; i < 60; ++i) text += "]";
  Value v = parse(text);
  const Value* cur = &v;
  for (int i = 0; i < 60; ++i) cur = &cur->at(0);
  EXPECT_EQ(cur->as_int(), 1);
}

std::string nested_arrays(int depth) {
  std::string text(static_cast<size_t>(depth), '[');
  text += "1";
  text.append(static_cast<size_t>(depth), ']');
  return text;
}

TEST(JsonParse, DepthCapStopsNestingBombs) {
  // Exactly at the cap still parses; one past it is a clean Error. The 100k
  // bomb used to exhaust the host stack — it must throw, not crash.
  EXPECT_NO_THROW(parse(nested_arrays(256)));
  EXPECT_THROW(parse(nested_arrays(257)), Error);
  EXPECT_THROW(parse(nested_arrays(100000)), Error);
  // Objects count against the same cap.
  std::string objs;
  for (int i = 0; i < 300; ++i) objs += "{\"k\":";
  objs += "1";
  objs.append(300, '}');
  EXPECT_THROW(parse(objs), Error);
  try {
    parse(nested_arrays(100000));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper"), std::string::npos) << e.what();
  }
}

TEST(JsonParse, SurrogatePairsDecodeToAstralCodePoints) {
  // U+1F600 via its surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(parse(R"("\uD83D\uDE00")").as_string(), "\xF0\x9F\x98\x80");
  // U+10000, the first astral code point.
  EXPECT_EQ(parse(R"("\uD800\uDC00")").as_string(), "\xF0\x90\x80\x80");
  // U+10FFFF, the last one.
  EXPECT_EQ(parse(R"("\uDBFF\uDFFF")").as_string(), "\xF4\x8F\xBF\xBF");
  // BMP escapes are unaffected.
  EXPECT_EQ(parse(R"("\u00e9")").as_string(), "\xc3\xa9");
  EXPECT_EQ(parse(R"("\u0041")").as_string(), "A");
}

TEST(JsonParse, LoneSurrogatesRejected) {
  EXPECT_THROW(parse(R"("\uD800")"), Error);          // lone high, end of string
  EXPECT_THROW(parse(R"("\uD800x")"), Error);         // high followed by a char
  EXPECT_THROW(parse(R"("\uD800\n")"), Error);        // high followed by an escape
  EXPECT_THROW(parse(R"("\uD800\uD800")"), Error);    // high followed by high
  EXPECT_THROW(parse(R"("\uDC00")"), Error);          // lone low
  EXPECT_THROW(parse(R"("\uDFFF\uDC00")"), Error);    // low first
  try {
    parse(R"("\uDC00")");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("surrogate"), std::string::npos) << e.what();
  }
}

TEST(JsonDump, AstralRoundTrip) {
  // dump() passes 4-byte UTF-8 through raw, so a surrogate-pair escape
  // round-trips through Value::dump -> parse unchanged.
  Value v = parse(R"({"emoji":"\uD83D\uDE00","mix":"a\uD83D\uDE00b"})");
  EXPECT_EQ(parse(v.dump()), v);
  EXPECT_EQ(parse(v.dump(2)), v);
  EXPECT_EQ(v.at("mix").as_string(), "a\xF0\x9F\x98\x80"
                                     "b");
}

}  // namespace
}  // namespace pim::json
