#include "src/common/sketch.h"

#include <bit>

#include "src/common/hash.h"

namespace bullet {

void AvailabilitySketch::AddBlock(uint32_t block_id) {
  bits_ |= uint64_t{1} << (Mix64(block_id) & 63u);
}

int AvailabilitySketch::NovelBucketsVs(const AvailabilitySketch& mine) const {
  return std::popcount(bits_ & ~mine.bits_);
}

}  // namespace bullet
