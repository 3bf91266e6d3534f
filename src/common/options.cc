#include "src/common/options.h"

#include <cstdlib>
#include <cstring>

namespace bullet {

ReproScale GetReproScale() {
  // Pure read of the environment, re-evaluated per call so tests can setenv
  // between runs. getenv is safe from concurrent sweep workers as long as nothing
  // mutates the environment mid-sweep, which no library code does.
  ReproScale scale;
  const char* env = std::getenv("REPRO_SCALE");
  if (env != nullptr && std::strcmp(env, "full") == 0) {
    scale.file_scale = 1.0;
    scale.full = true;
  } else {
    // CI default: 20% of the paper's file sizes — large enough that transfer time,
    // not overlay formation, dominates, so orderings and rough factors match the
    // full-scale runs; small enough that the whole bench suite takes minutes.
    scale.file_scale = 0.20;
    scale.full = false;
  }
  return scale;
}

}  // namespace bullet
