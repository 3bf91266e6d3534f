// Scale knobs for scenario runs.
//
// The paper runs 100-node / 100 MB experiments on a ModelNet cluster; those parameters
// are faithful but slow for CI. REPRO_SCALE selects between:
//   ci   (default) — same topologies, smaller files; minutes for the whole suite.
//   full           — paper-scale file sizes.
// Individual benches read the struct and scale their file size only; topology sizes,
// loss processes and dynamics stay at paper values in both modes so that the *shape*
// of every result is preserved.

#ifndef SRC_COMMON_OPTIONS_H_
#define SRC_COMMON_OPTIONS_H_

#include <cstdint>

namespace bullet {

struct ReproScale {
  // Multiplier applied to the paper's file sizes (1.0 == paper scale).
  double file_scale = 1.0;
  bool full = false;
};

// Reads REPRO_SCALE from the environment ("ci" or "full"; unknown values mean ci).
ReproScale GetReproScale();

}  // namespace bullet

#endif  // SRC_COMMON_OPTIONS_H_
