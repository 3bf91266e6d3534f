// 64-bit availability sketch carried in RanSub summaries.
//
// A RanSub summary must stay small (it is merged and shipped up and down the control
// tree every epoch), yet a Bullet' receiver wants to estimate how many *useful* blocks
// a candidate sender holds. We map each block id to one of 64 buckets and set the
// bucket bit when any block in it is held. The receiver estimates overlap by comparing
// the candidate's sketch with its own: buckets set by the candidate but not by the
// receiver definitely contain blocks the receiver misses.

#ifndef SRC_COMMON_SKETCH_H_
#define SRC_COMMON_SKETCH_H_

#include <cstddef>
#include <cstdint>

namespace bullet {

class AvailabilitySketch {
 public:
  AvailabilitySketch() = default;

  void AddBlock(uint32_t block_id);

  uint64_t bits() const { return bits_; }
  void set_bits(uint64_t b) { bits_ = b; }

  // Number of buckets the candidate covers that `mine` does not. Higher means the
  // candidate likely holds more blocks useful to the holder of `mine`.
  int NovelBucketsVs(const AvailabilitySketch& mine) const;

  // Wire size of the sketch inside a summary.
  static constexpr size_t kWireBytes = 8;

 private:
  uint64_t bits_ = 0;
};

}  // namespace bullet

#endif  // SRC_COMMON_SKETCH_H_
