// The rsync algorithm: block signatures, delta computation against a signature, and
// patch application. This is a real implementation operating on bytes — Shotgun
// (Section 4.8) wraps it, and the Fig. 15 bench charges its actual delta sizes to the
// emulated network.
//
// Roles mirror rsync's batch mode as Shotgun uses it: the *source* holds both the old
// and new trees, computes per-file deltas once (signature of old, delta of new
// against it), bundles them, and multicasts the bundle; receivers patch their local
// old copies.

#ifndef SRC_RSYNCX_DELTA_H_
#define SRC_RSYNCX_DELTA_H_

#include <cstdint>
#include <vector>

#include "src/common/hash.h"

namespace bullet {

using Bytes = std::vector<uint8_t>;

struct BlockSignature {
  uint32_t weak = 0;      // rolling checksum
  Digest128 strong;       // collision check
};

struct FileSignature {
  size_t block_size = 0;
  uint64_t file_size = 0;
  std::vector<BlockSignature> blocks;

  int64_t WireBytes() const {
    return 16 + static_cast<int64_t>(blocks.size()) * 20;
  }
};

FileSignature ComputeSignature(const Bytes& data, size_t block_size);

// A delta is a sequence of copy-from-old / literal commands.
struct DeltaCommand {
  enum class Kind { kCopy, kLiteral };
  Kind kind = Kind::kLiteral;
  // kCopy: copy `count` consecutive old blocks starting at `block_index` (the final
  // block may be short).
  uint32_t block_index = 0;
  uint32_t count = 0;
  // kLiteral: raw bytes.
  Bytes literal;
};

struct FileDelta {
  size_t block_size = 0;
  uint64_t new_size = 0;
  std::vector<DeltaCommand> commands;
};

// Computes the delta turning `old` (described by `sig`) into `new_data`.
FileDelta ComputeDelta(const Bytes& new_data, const FileSignature& sig);

// Applies `delta` to `old_data`; returns the reconstructed new file. Returns an
// empty vector if the delta references blocks beyond the old file (corruption).
Bytes ApplyDelta(const Bytes& old_data, const FileDelta& delta);

}  // namespace bullet

#endif  // SRC_RSYNCX_DELTA_H_
