#include "src/harness/json_reader.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace bullet {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

std::string JsonValue::StringOr(const std::string& key, const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->str() : fallback;
}

JsonValue JsonValue::MakeBool(bool v) {
  JsonValue out;
  out.type_ = Type::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::MakeNumber(double v) {
  JsonValue out;
  out.type_ = Type::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::MakeString(std::string v) {
  JsonValue out;
  out.type_ = Type::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> v) {
  JsonValue out;
  out.type_ = Type::kArray;
  out.array_ = std::move(v);
  return out;
}

JsonValue JsonValue::MakeObject(std::map<std::string, JsonValue> v) {
  JsonValue out;
  out.type_ = Type::kObject;
  out.object_ = std::move(v);
  return out;
}

namespace {

// Containers nest recursively in ParseValue; a hostile document of 100k '['s
// would otherwise recurse straight through the stack. Far deeper than any
// bench document, far shallower than any stack.
constexpr int kMaxNestingDepth = 256;

class Parser {
 public:
  Parser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  bool ParseDocument(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return true;
  }

 private:
  bool Fail(const std::string& what) {
    *error_ = what + " at offset " + std::to_string(pos_);
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* word, size_t len) {
    if (text_.compare(pos_, len, word) != 0) {
      return Fail(std::string("bad literal, expected '") + word + "'");
    }
    pos_ += len;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{': {
        if (depth_ >= kMaxNestingDepth) {
          return Fail("nesting deeper than 256 containers");
        }
        ++depth_;
        const bool ok = ParseObject(out);
        --depth_;
        return ok;
      }
      case '[': {
        if (depth_ >= kMaxNestingDepth) {
          return Fail("nesting deeper than 256 containers");
        }
        ++depth_;
        const bool ok = ParseArray(out);
        --depth_;
        return ok;
      }
      case '"': {
        std::string s;
        if (!ParseString(&s)) {
          return false;
        }
        *out = JsonValue::MakeString(std::move(s));
        return true;
      }
      case 't':
        if (!Literal("true", 4)) {
          return false;
        }
        *out = JsonValue::MakeBool(true);
        return true;
      case 'f':
        if (!Literal("false", 5)) {
          return false;
        }
        *out = JsonValue::MakeBool(false);
        return true;
      case 'n':
        if (!Literal("null", 4)) {
          return false;
        }
        *out = JsonValue();
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    ++pos_;  // '{'
    std::map<std::string, JsonValue> members;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      *out = JsonValue::MakeObject(std::move(members));
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
        return Fail("expected object key string");
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      members.emplace(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        *out = JsonValue::MakeObject(std::move(members));
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *out = JsonValue::MakeArray(std::move(items));
      return true;
    }
    while (true) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      items.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        *out = JsonValue::MakeArray(std::move(items));
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  // Reads 4 hex digits at pos_ (the body of a \uXXXX escape) into *code.
  bool ParseHex4(unsigned int* code) {
    if (pos_ + 4 > text_.size()) {
      return Fail("truncated \\u escape");
    }
    unsigned int v = 0;
    for (int k = 0; k < 4; ++k) {
      const char h = text_[pos_ + static_cast<size_t>(k)];
      v <<= 4;
      if (h >= '0' && h <= '9') {
        v |= static_cast<unsigned int>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        v |= static_cast<unsigned int>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        v |= static_cast<unsigned int>(h - 'A' + 10);
      } else {
        return Fail("bad hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *code = v;
    return true;
  }

  // UTF-8-encodes a code point (surrogates already combined by the caller).
  static void AppendUtf8(std::string* s, unsigned int cp) {
    if (cp < 0x80) {
      *s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *s += static_cast<char>(0xC0 | (cp >> 6));
      *s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *s += static_cast<char>(0xE0 | (cp >> 12));
      *s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *s += static_cast<char>(0xF0 | (cp >> 18));
      *s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    std::string s;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        *out = std::move(s);
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        s += c;
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) {
        return Fail("truncated escape sequence");
      }
      const char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"':
          s += '"';
          break;
        case '\\':
          s += '\\';
          break;
        case '/':
          s += '/';
          break;
        case 'b':
          s += '\b';
          break;
        case 'f':
          s += '\f';
          break;
        case 'n':
          s += '\n';
          break;
        case 'r':
          s += '\r';
          break;
        case 't':
          s += '\t';
          break;
        case 'u': {
          unsigned int code = 0;
          if (!ParseHex4(&code)) {
            return false;
          }
          if (code >= 0xDC00 && code <= 0xDFFF) {
            return Fail("lone low surrogate in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: JSON encodes astral code points as a \uXXXX
            // surrogate pair; the low half must follow immediately.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              return Fail("high surrogate not followed by \\u escape");
            }
            pos_ += 2;
            unsigned int low = 0;
            if (!ParseHex4(&low)) {
              return false;
            }
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("high surrogate not followed by a low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          AppendUtf8(&s, code);
          break;
        }
        default:
          return Fail("unknown escape sequence");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    // JSON numbers start with a digit after the optional minus; without this,
    // strtod's looser grammar would accept e.g. "+1".
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      pos_ = start;
      return Fail("expected a value");
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected a value");
    }
    const std::string token = text_.substr(start, pos_ - start);
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || errno != 0 || !std::isfinite(v)) {
      pos_ = start;
      return Fail("bad number '" + token + "'");
    }
    *out = JsonValue::MakeNumber(v);
    return true;
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  std::string scratch;
  Parser parser(text, error != nullptr ? error : &scratch);
  return parser.ParseDocument(out);
}

}  // namespace bullet
