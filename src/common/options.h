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

// Convenience: paper file size in bytes scaled for this run, rounded to a whole number
// of blocks.
int64_t ScaledFileBytes(int64_t paper_bytes, int64_t block_bytes);

}  // namespace bullet

#endif  // SRC_COMMON_OPTIONS_H_
