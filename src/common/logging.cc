#include "src/common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace bullet {

namespace log_internal {

void CheckFail(const char* condition, const char* file, int line) {
  std::fprintf(stderr, "BULLET_CHECK failed: %s (%s:%d)\n", condition, file, line);
  std::fflush(stderr);
  std::abort();
}

}  // namespace log_internal

}  // namespace bullet
