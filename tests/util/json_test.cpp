#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace sce::util {
namespace {

TEST(JsonQuote, PlainString) {
  EXPECT_EQ(json_quote("hello"), "\"hello\"");
  EXPECT_EQ(json_quote(""), "\"\"");
}

TEST(JsonQuote, EscapesSpecials) {
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quote("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(json_quote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonNumber, FiniteAndNonFinite) {
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(-3.0), "-3");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriter, FlatObject) {
  JsonWriter w;
  w.begin_object()
      .key("name")
      .value("sce")
      .key("count")
      .value(std::uint64_t{3})
      .key("ok")
      .value(true)
      .end_object();
  EXPECT_EQ(w.str(), R"({"name":"sce","count":3,"ok":true})");
}

TEST(JsonWriter, NestedContainers) {
  JsonWriter w;
  w.begin_object()
      .key("xs")
      .begin_array()
      .value(1.0)
      .value(2.5)
      .end_array()
      .key("inner")
      .begin_object()
      .key("k")
      .value("v")
      .end_object()
      .end_object();
  EXPECT_EQ(w.str(), R"({"xs":[1,2.5],"inner":{"k":"v"}})");
}

TEST(JsonWriter, ArrayOfObjects) {
  JsonWriter w;
  w.begin_array();
  for (int i = 0; i < 2; ++i)
    w.begin_object().key("i").value(static_cast<std::int64_t>(i)).end_object();
  w.end_array();
  EXPECT_EQ(w.str(), R"([{"i":0},{"i":1}])");
}

TEST(JsonWriter, NestingErrors) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.end_array(), InvalidArgument);
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("x"), InvalidArgument);
  }
  {
    JsonWriter w;
    w.begin_object().key("a");
    EXPECT_THROW(w.key("b"), InvalidArgument);
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.str(), InvalidArgument);
  }
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(parse_json("-17").as_number(), -17.0);
  EXPECT_DOUBLE_EQ(parse_json("6.02e23").as_number(), 6.02e23);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse_json("42").as_int(), 42);
}

TEST(JsonParse, AsIntRejectsFractions) {
  EXPECT_THROW(parse_json("1.5").as_int(), InvalidArgument);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json("\"a\\\"b\\\\c\\n\\t\"").as_string(), "a\"b\\c\n\t");
  EXPECT_EQ(parse_json("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(parse_json("\"\\u0001\"").as_string(), std::string(1, '\x01'));
}

TEST(JsonParse, ArraysAndObjects) {
  const JsonValue v = parse_json(R"({"a": [1, 2, 3], "b": {"c": true}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.at("a").size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").at(1).as_number(), 2.0);
  EXPECT_TRUE(v.at("b").at("c").as_bool());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), InvalidArgument);
  EXPECT_THROW(v.at("a").at(9), InvalidArgument);
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_EQ(parse_json("[]").size(), 0u);
  EXPECT_EQ(parse_json("{}").size(), 0u);
  EXPECT_EQ(parse_json("  [ ]  ").size(), 0u);
}

TEST(JsonParse, ObjectPreservesInsertionOrder) {
  const JsonValue v = parse_json(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_EQ(v.members().size(), 3u);
  EXPECT_EQ(v.members()[0].first, "z");
  EXPECT_EQ(v.members()[1].first, "a");
  EXPECT_EQ(v.members()[2].first, "m");
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), InvalidArgument);
  EXPECT_THROW(parse_json("{"), InvalidArgument);
  EXPECT_THROW(parse_json("[1, 2"), InvalidArgument);
  EXPECT_THROW(parse_json("{\"a\" 1}"), InvalidArgument);
  EXPECT_THROW(parse_json("tru"), InvalidArgument);
  EXPECT_THROW(parse_json("1 2"), InvalidArgument);  // trailing garbage
  EXPECT_THROW(parse_json("\"unterminated"), InvalidArgument);
  EXPECT_THROW(parse_json("1.2.3"), InvalidArgument);
}

TEST(JsonParse, RejectsNestingPastTheDepthLimit) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const JsonValue at_limit = parse_json(nested(kMaxJsonDepth));
  EXPECT_EQ(at_limit.size(), 1u);
  EXPECT_THROW(parse_json(nested(kMaxJsonDepth + 1)), InvalidArgument);
  EXPECT_THROW(parse_json(std::string(kMaxJsonDepth + 1, '{')),
               InvalidArgument);
  // Deep enough to overflow the stack of an unbounded recursive parser.
  EXPECT_THROW(parse_json(std::string(100000, '[')), InvalidArgument);
  // Objects and arrays count alike.
  std::string mixed;
  for (std::size_t i = 0; i < kMaxJsonDepth; ++i)
    mixed += i % 2 ? "[" : "{\"k\":";
  mixed += "1";
  for (std::size_t i = kMaxJsonDepth; i-- > 0;) mixed += i % 2 ? "]" : "}";
  EXPECT_NO_THROW(parse_json(mixed));
}

TEST(JsonParse, TypeMismatchesThrow) {
  const JsonValue v = parse_json("[1]");
  EXPECT_THROW(v.as_bool(), InvalidArgument);
  EXPECT_THROW(v.as_number(), InvalidArgument);
  EXPECT_THROW(v.as_string(), InvalidArgument);
  EXPECT_THROW(v.members(), InvalidArgument);
  EXPECT_NO_THROW(v.items());
}

TEST(JsonParse, RoundTripsWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("cache-misses");
  w.key("values").begin_array().value(1.5).value(2.0).end_array();
  w.key("ok").value(true);
  w.key("n").value(std::uint64_t{7});
  w.end_object();
  const JsonValue v = parse_json(w.str());
  EXPECT_EQ(v.at("name").as_string(), "cache-misses");
  EXPECT_DOUBLE_EQ(v.at("values").at(0).as_number(), 1.5);
  EXPECT_TRUE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("n").as_int(), 7);
}

TEST(JsonNumberExact, RoundTripsDoublesBitForBit) {
  const double values[] = {1.0 / 3.0, 1e-17, 123456789.123456789,
                           -0.1, 2.5e300};
  for (double v : values) {
    const JsonValue parsed = parse_json(json_number_exact(v));
    EXPECT_EQ(parsed.as_number(), v);  // exact, not almost-equal
  }
}

}  // namespace
}  // namespace sce::util
