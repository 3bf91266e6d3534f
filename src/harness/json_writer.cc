#include "src/harness/json_writer.h"

#include <cmath>
#include <cstdio>

namespace bullet {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) {
      os_ << ',';
    }
    has_element_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  os_ << '{';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  has_element_.pop_back();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  os_ << '[';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  has_element_.pop_back();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  if (!has_element_.empty() && has_element_.back()) {
    os_ << ',';
  }
  if (!has_element_.empty()) {
    has_element_.back() = true;
  }
  os_ << '"' << JsonEscape(key) << "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  BeforeValue();
  os_ << '"' << JsonEscape(value) << '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  if (!std::isfinite(value)) {
    return Null();
  }
  BeforeValue();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  os_ << buf;
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  os_ << value;
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  BeforeValue();
  os_ << value;
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  os_ << "null";
  return *this;
}

}  // namespace bullet
