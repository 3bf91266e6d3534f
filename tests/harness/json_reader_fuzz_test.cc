// Fuzz-style negative coverage for the bench JSON parser: truncation at every
// offset, hostile nesting depth, malformed escapes, duplicate keys, and number
// edge cases. The parser must reject (with an error, never a crash or hang)
// everything that is not one complete well-formed document.

#include <gtest/gtest.h>

#include <string>

#include "src/harness/json_reader.h"

namespace bullet {
namespace {

bool Parses(const std::string& text, std::string* error = nullptr) {
  JsonValue value;
  std::string scratch;
  return ParseJson(text, &value, error != nullptr ? error : &scratch);
}

TEST(JsonReaderFuzz, EveryProperPrefixOfAValidDocumentFails) {
  const std::string doc =
      R"({"schema":"bullet-bench-v2","points":[{"params":{"nodes":20},"metrics":)"
      R"({"a.p50_s":{"median":-1.5e2}}},[true,false,null,"A\n"]]})";
  JsonValue value;
  std::string error;
  ASSERT_TRUE(ParseJson(doc, &value, &error)) << error;
  for (size_t len = 0; len < doc.size(); ++len) {
    EXPECT_FALSE(Parses(doc.substr(0, len))) << "prefix length " << len;
  }
}

TEST(JsonReaderFuzz, DeepNestingFailsCleanlyInsteadOfOverflowingTheStack) {
  // 200k containers would blow the stack under naive recursion; the parser
  // caps nesting at 256 and reports it.
  for (const char* brackets : {"[", "{\"k\":"}) {
    std::string hostile;
    for (int i = 0; i < 200000; ++i) {
      hostile += brackets;
    }
    std::string error;
    EXPECT_FALSE(Parses(hostile, &error));
    EXPECT_NE(error.find("nesting"), std::string::npos) << error;
  }
  // At the limit itself, a balanced document still parses.
  std::string balanced(256, '[');
  balanced += std::string(256, ']');
  EXPECT_TRUE(Parses(balanced));
  EXPECT_FALSE(Parses("[" + balanced + "]"));
}

TEST(JsonReaderFuzz, BadEscapesAreRejected) {
  EXPECT_FALSE(Parses(R"("\q")"));          // unknown escape
  EXPECT_FALSE(Parses(R"("\u12")"));        // truncated \u
  EXPECT_FALSE(Parses(R"("\u12g4")"));      // bad hex digit
  EXPECT_FALSE(Parses("\"\\"));             // escape at end of input
  EXPECT_FALSE(Parses("\"abc"));            // unterminated string
  EXPECT_FALSE(Parses("\"a\nb\""));         // raw control character
  EXPECT_TRUE(Parses(R"("\" \\ \/ \b \f \n \r \t A")"));
}

std::string ParsedString(const std::string& doc) {
  JsonValue value;
  std::string error;
  if (!ParseJson(doc, &value, &error) || !value.is_string()) {
    ADD_FAILURE() << doc << ": " << error;
    return {};
  }
  return value.str();
}

TEST(JsonReaderFuzz, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(ParsedString(R"("\u0041")"), "A");
  EXPECT_EQ(ParsedString(R"("\u00e9")"), "\xC3\xA9");      // e-acute, 2-byte UTF-8
  EXPECT_EQ(ParsedString(R"("\u20AC")"), "\xE2\x82\xAC");  // euro sign, 3-byte UTF-8
  // Astral plane via a surrogate pair: U+1F600 (grinning face), 4-byte UTF-8.
  EXPECT_EQ(ParsedString(R"("\ud83d\ude00")"), "\xF0\x9F\x98\x80");
  EXPECT_EQ(ParsedString(R"("x\uD83D\uDE00y")"), "x\xF0\x9F\x98\x80y");
  // Highest code point, U+10FFFF.
  EXPECT_EQ(ParsedString(R"("\udbff\udfff")"), "\xF4\x8F\xBF\xBF");
  // \u0000 is a legal escape and must survive as an embedded NUL.
  EXPECT_EQ(ParsedString(R"("a\u0000b")"), std::string("a\0b", 3));
}

TEST(JsonReaderFuzz, LoneAndMismatchedSurrogatesAreRejected) {
  std::string error;
  EXPECT_FALSE(Parses(R"("\ud83d")", &error));     // lone high surrogate
  EXPECT_NE(error.find("surrogate"), std::string::npos) << error;
  EXPECT_FALSE(Parses(R"("\ude00")"));             // lone low surrogate
  EXPECT_FALSE(Parses(R"("\ud83dA")"));            // high followed by raw char
  EXPECT_FALSE(Parses(R"("\ud83d\n")"));           // high followed by other escape
  EXPECT_FALSE(Parses(R"("\ud83d\ud83d")"));       // high followed by another high
  EXPECT_FALSE(Parses(R"("\ud83d\u0041")"));       // high followed by a non-surrogate
  EXPECT_FALSE(Parses(R"("\ud83d\ude0")"));        // truncated low half
  EXPECT_FALSE(Parses(R"("\ud83d\u")"));           // bare second escape
  EXPECT_FALSE(Parses(R"("\ud83d)"));              // input ends after the high half
}

TEST(JsonReaderFuzz, DuplicateObjectKeysKeepTheFirstValue) {
  // Pinned behaviour: emplace into the member map means first-wins. bench
  // documents never emit duplicates; a hand-edited baseline that does must
  // behave deterministically.
  JsonValue value;
  std::string error;
  ASSERT_TRUE(ParseJson(R"({"k":1,"k":2,"other":3})", &value, &error)) << error;
  EXPECT_EQ(value.object().size(), 2u);
  EXPECT_DOUBLE_EQ(value.Find("k")->number(), 1.0);
}

TEST(JsonReaderFuzz, MalformedNumbersAndLiteralsAreRejected) {
  for (const char* bad : {"-", "1.2.3", "1e", "+1", "01x", "nan", "inf", "tru", "falsey",
                          "nulll", "1e999", "--5", "0x10"}) {
    EXPECT_FALSE(Parses(bad)) << bad;
  }
  for (const char* good : {"-0", "1.25e-3", "0", "123456789", "true", "false", "null"}) {
    EXPECT_TRUE(Parses(good)) << good;
  }
}

TEST(JsonReaderFuzz, StructuralGarbageIsRejected) {
  for (const char* bad : {"", "   ", "{", "}", "[", "]", "{]", "[}", "[1,]", "{\"a\":}",
                          "{\"a\"1}", "{1:2}", "[1 2]", "{\"a\":1,}", "[1],[2]", "{} {}",
                          "[1]x", ","}) {
    EXPECT_FALSE(Parses(bad)) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace bullet
