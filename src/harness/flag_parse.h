// Strict full-string numeric parsing behind the scenario option rows' parse
// (scenario_registry.cc), which the CLI flags (scenario_runner.cc) and the sweep
// axis/spec-file grammar (sweep.cc) both call, so both surfaces accept exactly
// the same value syntax: no leading whitespace (strto* would skip it and accept
// e.g. " -1" for unsigned), no trailing garbage, no fractional integers, no
// out-of-range values, no nan/inf.

#ifndef SRC_HARNESS_FLAG_PARSE_H_
#define SRC_HARNESS_FLAG_PARSE_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace bullet {

inline bool ParseStrictInt64(const std::string& text, int64_t* out) {
  if (text.empty() || !(std::isdigit(static_cast<unsigned char>(text[0])) || text[0] == '-')) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno != 0) {
    return false;
  }
  *out = v;
  return true;
}

inline bool ParseStrictUint64(const std::string& text, uint64_t* out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno != 0) {
    return false;
  }
  *out = v;
  return true;
}

inline bool ParseStrictDouble(const std::string& text, double* out) {
  if (text.empty() || !(std::isdigit(static_cast<unsigned char>(text[0])) || text[0] == '-' ||
                        text[0] == '.')) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno != 0 || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace bullet

#endif  // SRC_HARNESS_FLAG_PARSE_H_
