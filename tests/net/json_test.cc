// The strict JSON layer under the network protocol. The contracts that
// matter to the serving stack: hostile bytes fail cleanly with a byte
// offset (never UB, never unbounded recursion), numbers round-trip
// bit-exactly (the server's bit-identity golden depends on it) and are
// written and read exactly as printf %lld/%.17g and strtod would, and
// out-of-range literals deliberately saturate (overflow to ±inf, so
// request validation can reject them by name; underflow to a signed 0).

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "vsj/net/json.h"

namespace vsj::net {
namespace {

JsonValue MustParse(const std::string& text) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &value, &error)) << error;
  return value;
}

std::string ParseError(const std::string& text, size_t max_depth = 64) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(ParseJson(text, &value, &error, max_depth)) << text;
  return error;
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(MustParse("null").is_null());
  EXPECT_TRUE(MustParse("true").AsBool());
  EXPECT_FALSE(MustParse("false").AsBool());
  EXPECT_DOUBLE_EQ(MustParse("-12.5e2").AsNumber(), -1250.0);
  EXPECT_EQ(MustParse("\"hi\"").AsString(), "hi");
  EXPECT_EQ(MustParse("  42 ").AsNumber(), 42.0);
}

TEST(JsonParseTest, NestedDocument) {
  const JsonValue doc =
      MustParse("{\"a\":[1,2,{\"b\":true}],\"c\":\"x\",\"d\":null}");
  ASSERT_TRUE(doc.is_object());
  const JsonValue* a = doc.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), 3u);
  EXPECT_EQ((*a)[1].AsNumber(), 2.0);
  EXPECT_TRUE((*a)[2].Find("b")->AsBool());
  EXPECT_TRUE(doc.Find("d")->is_null());
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonParseTest, DuplicateKeysLastWins) {
  const JsonValue doc = MustParse("{\"k\":1,\"k\":2}");
  EXPECT_EQ(doc.Find("k")->AsNumber(), 2.0);
  EXPECT_EQ(doc.size(), 2u);  // both members preserved for iteration
}

TEST(JsonParseTest, DepthLimitRejectsDeepNesting) {
  // A frame of pure '[' must fail cleanly, not overflow the stack.
  const std::string bomb(100000, '[');
  const std::string error = ParseError(bomb);
  EXPECT_NE(error.find("too deep"), std::string::npos) << error;

  // At the limit still parses (depth counts from 0, so max_depth = 8
  // admits 9 nesting levels); one more level is rejected.
  std::string ok;
  for (int i = 0; i < 9; ++i) ok += '[';
  for (int i = 0; i < 9; ++i) ok += ']';
  JsonValue value;
  std::string error2;
  EXPECT_TRUE(ParseJson(ok, &value, &error2, 8));
  EXPECT_FALSE(ParseJson("[" + ok + "]", &value, &error2, 8));
}

TEST(JsonParseTest, TrailingBytesRejected) {
  EXPECT_NE(ParseError("{} {}"), "");
  EXPECT_NE(ParseError("1 2"), "");
  EXPECT_NE(ParseError("null x"), "");
}

TEST(JsonParseTest, MalformedInputsRejectedWithByteOffset) {
  // The offset in the message points at (or near) the offending byte.
  EXPECT_NE(ParseError("{\"a\":}").find("5"), std::string::npos);
  EXPECT_NE(ParseError(""), "");
  EXPECT_NE(ParseError("{"), "");
  EXPECT_NE(ParseError("[1,]"), "");
  EXPECT_NE(ParseError("{\"a\" 1}"), "");
  EXPECT_NE(ParseError("\"unterminated"), "");
  EXPECT_NE(ParseError("tru"), "");
  EXPECT_NE(ParseError("NaN"), "");
  EXPECT_NE(ParseError("Infinity"), "");
  EXPECT_NE(ParseError("+1"), "");
  EXPECT_NE(ParseError("01"), "");
  EXPECT_NE(ParseError("1."), "");
  EXPECT_NE(ParseError(".5"), "");
  EXPECT_NE(ParseError("1e"), "");
  EXPECT_NE(ParseError("'single'"), "");
}

TEST(JsonParseTest, OverflowingLiteralSaturatesToInfinity) {
  // Deliberate: 1e999 is *representable* as +inf so the request
  // validation layer rejects it with "tau must be finite" instead of the
  // parser failing generically (the estimate_request regression).
  EXPECT_TRUE(std::isinf(MustParse("1e999").AsNumber()));
  EXPECT_TRUE(std::isinf(MustParse("-1e999").AsNumber()));
  EXPECT_GT(MustParse("1e999").AsNumber(), 0.0);
  // Underflow just goes to zero.
  EXPECT_EQ(MustParse("1e-999").AsNumber(), 0.0);
}

TEST(JsonParseTest, UnderflowingLiteralKeepsItsSign) {
  const double plus = MustParse("1e-400").AsNumber();
  EXPECT_EQ(plus, 0.0);
  EXPECT_FALSE(std::signbit(plus));
  const double minus = MustParse("-1e-400").AsNumber();
  EXPECT_EQ(minus, 0.0);
  EXPECT_TRUE(std::signbit(minus));
  // Below half the least denormal rounds to zero; at 4.9e-324 the least
  // denormal itself.
  EXPECT_EQ(MustParse("2.4e-324").AsNumber(), 0.0);
  EXPECT_EQ(MustParse("4.9e-324").AsNumber(),
            std::numeric_limits<double>::denorm_min());
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(MustParse("\"a\\n\\t\\\"\\\\b\\/\"").AsString(), "a\n\t\"\\b/");
  EXPECT_EQ(MustParse("\"\\u0041\"").AsString(), "A");
  // Two-byte and three-byte UTF-8 from \u escapes.
  EXPECT_EQ(MustParse("\"\\u00e9\"").AsString(), "\xc3\xa9");
  EXPECT_EQ(MustParse("\"\\u20ac\"").AsString(), "\xe2\x82\xac");
  // Surrogate pair -> 4-byte UTF-8 (U+1F600).
  EXPECT_EQ(MustParse("\"\\ud83d\\ude00\"").AsString(),
            "\xf0\x9f\x98\x80");
  // Lone / malformed surrogates are rejected.
  EXPECT_NE(ParseError("\"\\ud83d\""), "");
  EXPECT_NE(ParseError("\"\\ud83dx\""), "");
  EXPECT_NE(ParseError("\"\\ude00\""), "");
  EXPECT_NE(ParseError("\"\\uzzzz\""), "");
  // Raw control characters must be escaped.
  EXPECT_NE(ParseError("\"a\nb\""), "");
}

TEST(JsonSerializeTest, RoundTripPreservesStructure) {
  const std::string text =
      "{\"a\":[1,2.5,{\"b\":true}],\"c\":\"x\\ny\",\"d\":null}";
  const JsonValue doc = MustParse(text);
  const JsonValue again = MustParse(doc.Serialize());
  EXPECT_EQ(again.Serialize(), doc.Serialize());
}

TEST(JsonSerializeTest, NumbersPrintExactly) {
  std::string out;
  JsonValue::AppendNumber(&out, 42.0);
  EXPECT_EQ(out, "42");
  out.clear();
  JsonValue::AppendNumber(&out, -7.0);
  EXPECT_EQ(out, "-7");
  out.clear();
  // Largest exactly-representable integer prints without precision loss.
  JsonValue::AppendNumber(&out, 9007199254740991.0);
  EXPECT_EQ(out, "9007199254740991");
  out.clear();
  JsonValue::AppendNumber(&out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "null");
  out.clear();
  JsonValue::AppendNumber(&out, std::nan(""));
  EXPECT_EQ(out, "null");

  // %.17g round-trip: parse(serialize(x)) == x bitwise.
  for (const double v : {0.1, 1.0 / 3.0, 2.5e-17, 27.802916666666665}) {
    out.clear();
    JsonValue::AppendNumber(&out, v);
    EXPECT_EQ(MustParse(out).AsNumber(), v) << out;
  }
}

/// The number codec's reference: integers below 2^53 as printf %lld, other
/// finite doubles as printf %.17g (C locale), non-finite as null.
std::string PrintfNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[40];
  if (v == std::floor(v) && std::abs(v) < 9007199254740992.0) {
    std::snprintf(buffer, sizeof(buffer), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  }
  return buffer;
}

/// A seeded mix of the doubles the wire carries and the ones that stress a
/// number codec: random bit patterns (non-finite included), denormals, ±0,
/// integers around 2^53 and at or above 10^17, values in [0, 1) and
/// [0, 10^4).
std::vector<double> CodecInputs() {
  std::mt19937_64 rng(0x5eed'c0dec);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> inputs = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::epsilon()};
  for (int i = 0; i < 40000; ++i) {
    inputs.push_back(std::bit_cast<double>(rng()));
  }
  for (int i = 0; i < 10000; ++i) {
    const uint64_t sign = (rng() & 1) << 63;
    inputs.push_back(std::bit_cast<double>(sign | (rng() >> 12)));  // denormal
  }
  for (int k = -2000; k <= 2000; ++k) {
    const double v = 9007199254740992.0 + k;  // 2^53 + k
    inputs.push_back(v);
    inputs.push_back(-v);
  }
  for (int i = 0; i < 10000; ++i) {
    // Integral doubles in [1e17, 1e19]: exact integers, printed as %.17g.
    inputs.push_back(std::floor(1e17 + unit(rng) * (1e19 - 1e17)));
  }
  for (int i = 0; i < 20000; ++i) inputs.push_back(unit(rng));
  for (int i = 0; i < 20000; ++i) inputs.push_back(unit(rng) * 1e4);
  for (int i = 0; i < 2000; ++i) {
    inputs.push_back(std::floor(unit(rng) * 1e6) - 5e5);  // small integers
  }
  return inputs;
}

TEST(JsonNumberCodecTest, WritesPrintfBytesAndReadsStrtodBits) {
  const std::vector<double> inputs = CodecInputs();
  ASSERT_GE(inputs.size(), 100000u);
  std::string out;
  char longer[64];
  for (const double v : inputs) {
    const std::string expected = PrintfNumber(v);
    out.clear();
    JsonValue::AppendNumber(&out, v);
    ASSERT_EQ(out, expected) << std::bit_cast<uint64_t>(v);
    // The estimate fields print every double, integral or not, as %.17g.
    char g17[40];
    std::snprintf(g17, sizeof(g17), "%.17g", v);
    out.clear();
    JsonValue::AppendDouble(&out, v);
    ASSERT_EQ(out, std::isfinite(v) ? std::string(g17) : "null")
        << std::bit_cast<uint64_t>(v);
    if (!std::isfinite(v)) continue;
    // The parser reads the written token, and a longer one (more digits
    // than a double holds, so the last ones must round), to strtod's bits.
    std::snprintf(longer, sizeof(longer), "%.30e", v);
    for (const std::string& token : {expected, std::string(longer)}) {
      const double parsed = MustParse(token).AsNumber();
      ASSERT_EQ(std::bit_cast<uint64_t>(parsed),
                std::bit_cast<uint64_t>(std::strtod(token.c_str(), nullptr)))
          << token;
    }
  }
}

TEST(JsonSerializeTest, QuotedEscapesControlCharacters) {
  std::string out;
  JsonValue::AppendQuoted(&out, std::string_view("a\"\\\n\t\x01z", 7));
  EXPECT_EQ(out, "\"a\\\"\\\\\\n\\t\\u0001z\"");
  // And the escaped form parses back to the original bytes.
  EXPECT_EQ(MustParse(out).AsString(), std::string("a\"\\\n\t\x01z", 7));
}

TEST(JsonSerializeTest, BuildersChain) {
  JsonValue doc = JsonValue::Object();
  doc.Set("id", JsonValue::Number(7))
      .Set("ok", JsonValue::Bool(true))
      .Set("tags", JsonValue::Array()
                       .Append(JsonValue::Str("a"))
                       .Append(JsonValue::Str("b")));
  EXPECT_EQ(doc.Serialize(), "{\"id\":7,\"ok\":true,\"tags\":[\"a\",\"b\"]}");
}

}  // namespace
}  // namespace vsj::net
