// LT-style rateless erasure codec (Section 2.2 of the paper).
//
// The encoder derives each encoded block deterministically from its sequence id: the
// id seeds a PRNG that draws a degree from the robust soliton distribution and a set
// of distinct source-block indices; the block payload is their XOR. Any party that
// knows (n, seed policy) can reconstruct the composition of any encoded id — this is
// what lets the source alone encode while receivers decode, with no per-block
// composition metadata beyond the 8-byte id.
//
// The decoder is the standard peeling decoder: degree-1 blocks release source blocks,
// releases are substituted into the remaining equations, newly released degree-1
// blocks keep the ripple going. It also exposes the decode-progress curve, which the
// paper leans on ("even with n received blocks, only 30 percent of the file content
// can be reconstructed") — see tests/codec/lt_codec_test.cc and bench_fig13.

#ifndef SRC_CODEC_LT_CODEC_H_
#define SRC_CODEC_LT_CODEC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/codec/degree_distribution.h"
#include "src/common/rng.h"

namespace bullet {

using Block = std::vector<uint8_t>;

// Deterministic composition of encoded block `encoded_id`: the sorted, distinct
// source-block indices XOR-ed together.
std::vector<uint32_t> EncodedComposition(uint32_t encoded_id, uint32_t num_blocks,
                                         const RobustSoliton& soliton, uint64_t stream_seed);

class LtEncoder {
 public:
  // `file` is padded internally to a whole number of blocks.
  LtEncoder(std::vector<uint8_t> file, size_t block_bytes, uint64_t stream_seed = 0x17);

  uint32_t num_blocks() const { return num_blocks_; }
  size_t block_bytes() const { return block_bytes_; }
  int64_t file_bytes() const { return static_cast<int64_t>(file_.size()); }

  // Produces the payload of encoded block `encoded_id`.
  Block Encode(uint32_t encoded_id) const;

  const RobustSoliton& soliton() const { return soliton_; }
  uint64_t stream_seed() const { return stream_seed_; }

 private:
  std::vector<uint8_t> file_;
  size_t block_bytes_;
  uint32_t num_blocks_;
  uint64_t stream_seed_;
  RobustSoliton soliton_;
};

class LtDecoder {
 public:
  LtDecoder(uint32_t num_blocks, size_t block_bytes, uint64_t stream_seed = 0x17);

  // Feeds one encoded block. Returns the number of source blocks newly recovered by
  // the peeling ripple this block triggered (possibly 0).
  int AddEncoded(uint32_t encoded_id, Block payload);

  bool complete() const { return recovered_count_ == num_blocks_; }
  uint32_t recovered_count() const { return recovered_count_; }

  // Recovered file (unpadded up to `file_bytes` if given). Requires complete().
  std::vector<uint8_t> Reconstruct(int64_t file_bytes = -1) const;

  // Decode-progress curve: recovered_count after each received block.
  const std::vector<uint32_t>& progress() const { return progress_; }

 private:
  struct Equation {
    std::vector<uint32_t> unknowns;  // unresolved source indices
    Block payload;
  };

  // Substitute a recovered source block into pending equations.
  void Propagate(uint32_t source_index);

  uint32_t num_blocks_;
  size_t block_bytes_;
  uint64_t stream_seed_;
  RobustSoliton soliton_;

  std::vector<Block> recovered_;        // empty until recovered
  std::vector<char> is_recovered_;
  uint32_t recovered_count_ = 0;

  std::vector<std::unique_ptr<Equation>> equations_;
  // source index -> equation slots referencing it
  std::vector<std::vector<size_t>> index_to_equations_;
  std::vector<uint32_t> ripple_;  // recovered indices pending propagation
  std::vector<uint32_t> progress_;
};

}  // namespace bullet

#endif  // SRC_CODEC_LT_CODEC_H_
