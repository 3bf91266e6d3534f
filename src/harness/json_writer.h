// Minimal streaming JSON writer used by the scenario runner to emit BENCH_*.json
// metric files. Handles commas/nesting, string escaping, and non-finite doubles
// (emitted as null so the output stays valid JSON).

#ifndef SRC_HARNESS_JSON_WRITER_H_
#define SRC_HARNESS_JSON_WRITER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace bullet {

std::string JsonEscape(const std::string& s);

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Writes the key of the next object member.
  JsonWriter& Key(const std::string& key);

  JsonWriter& String(const std::string& value);
  JsonWriter& Number(double value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Null();

  // Convenience for "key": value pairs.
  JsonWriter& Field(const std::string& key, const std::string& value) {
    return Key(key).String(value);
  }
  JsonWriter& Field(const std::string& key, const char* value) {
    return Key(key).String(value);
  }
  JsonWriter& Field(const std::string& key, double value) { return Key(key).Number(value); }
  JsonWriter& Field(const std::string& key, int64_t value) { return Key(key).Int(value); }
  JsonWriter& Field(const std::string& key, uint64_t value) { return Key(key).Uint(value); }
  JsonWriter& Field(const std::string& key, int value) {
    return Key(key).Int(static_cast<int64_t>(value));
  }

 private:
  void BeforeValue();

  std::ostream& os_;
  // One entry per open scope: true once the scope holds at least one element.
  std::vector<bool> has_element_;
  bool after_key_ = false;
};

}  // namespace bullet

#endif  // SRC_HARNESS_JSON_WRITER_H_
