#include "src/harness/json_reader.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/harness/json_writer.h"

namespace bullet {
namespace {

JsonValue MustParse(const std::string& text) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &value, &error)) << text << ": " << error;
  return value;
}

TEST(JsonReaderTest, ParsesScalars) {
  EXPECT_TRUE(MustParse("null").is_null());
  EXPECT_TRUE(MustParse("true").boolean());
  EXPECT_FALSE(MustParse("false").boolean());
  EXPECT_DOUBLE_EQ(MustParse("42").number(), 42.0);
  EXPECT_DOUBLE_EQ(MustParse("-3.5e2").number(), -350.0);
  EXPECT_EQ(MustParse("\"hi\"").str(), "hi");
}

TEST(JsonReaderTest, ParsesNestedStructures) {
  const JsonValue doc = MustParse(
      R"({"schema":"bullet-bench-v2","points":[{"params":{"nodes":20},)"
      R"("metrics":{"Sys.p50_s":{"median":1.25,"p10":1,"p90":2}}}],"empty":[],"none":{}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.StringOr("schema", ""), "bullet-bench-v2");
  const JsonValue* points = doc.Find("points");
  ASSERT_TRUE(points != nullptr && points->is_array());
  ASSERT_EQ(points->array().size(), 1u);
  const JsonValue& point = points->array()[0];
  EXPECT_DOUBLE_EQ(point.Find("params")->Find("nodes")->number(), 20.0);
  const JsonValue* band = point.Find("metrics")->Find("Sys.p50_s");
  ASSERT_NE(band, nullptr);
  EXPECT_DOUBLE_EQ(band->Find("median")->number(), 1.25);
  EXPECT_TRUE(doc.Find("empty")->array().empty());
  EXPECT_TRUE(doc.Find("none")->object().empty());
}

TEST(JsonReaderTest, DecodesEscapes) {
  const JsonValue v = MustParse(R"("a\"b\\c\n\tA")");
  EXPECT_EQ(v.str(), "a\"b\\c\n\tA");
}

TEST(JsonReaderTest, RejectsMalformedInput) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(ParseJson("", &value, &error));
  EXPECT_FALSE(ParseJson("{", &value, &error));
  EXPECT_FALSE(ParseJson("{\"a\":}", &value, &error));
  EXPECT_FALSE(ParseJson("[1,]", &value, &error));
  EXPECT_FALSE(ParseJson("[1 2]", &value, &error));
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing", &value, &error));
  EXPECT_FALSE(ParseJson("\"unterminated", &value, &error));
  EXPECT_FALSE(ParseJson("nul", &value, &error));
  EXPECT_FALSE(ParseJson("01x", &value, &error));
  EXPECT_NE(error.find("offset"), std::string::npos);
}

TEST(JsonReaderTest, RoundTripsWriterOutput) {
  std::ostringstream os;
  JsonWriter writer(os);
  writer.BeginObject();
  writer.Field("name", "quote\"and\\slash");
  writer.Field("value", 1.5);
  writer.Key("list").BeginArray().Int(1).Number(2.5).EndArray();
  writer.EndObject();

  const JsonValue doc = MustParse(os.str());
  EXPECT_EQ(doc.StringOr("name", ""), "quote\"and\\slash");
  EXPECT_DOUBLE_EQ(doc.Find("value")->number(), 1.5);
  ASSERT_EQ(doc.Find("list")->array().size(), 2u);
  EXPECT_DOUBLE_EQ(doc.Find("list")->array()[1].number(), 2.5);
}

}  // namespace
}  // namespace bullet
