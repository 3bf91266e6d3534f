// Minimal JSON parser for the bench tooling (bench_check reads BENCH_*.json files
// back). Full JSON grammar: \uXXXX escapes decode to UTF-8, including surrogate
// pairs for astral code points (lone or mismatched surrogates are errors).
// Numbers parse as double, matching the writer. Containers may nest at most
// 256 deep (hostile inputs fail cleanly instead of exhausting the stack);
// duplicate object keys keep the first occurrence.

#ifndef SRC_HARNESS_JSON_READER_H_
#define SRC_HARNESS_JSON_READER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace bullet {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }

  double number() const { return number_; }
  bool boolean() const { return bool_; }
  const std::string& str() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::map<std::string, JsonValue>& object() const { return object_; }

  // Object member lookup; returns nullptr when absent or when this is not an
  // object, so chained lookups degrade gracefully.
  const JsonValue* Find(const std::string& key) const;

  // Convenience accessor with a default for optional members.
  std::string StringOr(const std::string& key, const std::string& fallback) const;

  static JsonValue MakeBool(bool v);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeArray(std::vector<JsonValue> v);
  static JsonValue MakeObject(std::map<std::string, JsonValue> v);

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// Parses one complete JSON document (trailing garbage is an error). On failure
// returns false and describes the problem (with offset) in *error.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

}  // namespace bullet

#endif  // SRC_HARNESS_JSON_READER_H_
