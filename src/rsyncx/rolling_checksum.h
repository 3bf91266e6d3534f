// The rsync weak rolling checksum (Tridgell's thesis [27], chapter 3): a 32-bit
// Adler-style sum s(k,l) = a + 2^16 b that can slide one byte in O(1). Shotgun's
// delta computation uses it to find old-file blocks anywhere in the new file.

#ifndef SRC_RSYNCX_ROLLING_CHECKSUM_H_
#define SRC_RSYNCX_ROLLING_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace bullet {

class RollingChecksum {
 public:
  // Initializes over data[0, len).
  void Init(const uint8_t* data, size_t len);
  // Slides the window one byte: removes `out` (the oldest byte), appends `in`.
  void Roll(uint8_t out, uint8_t in);

  uint32_t value() const { return (b_ << 16) | (a_ & 0xffff); }

  // One-shot convenience.
  static uint32_t Compute(const uint8_t* data, size_t len);

 private:
  uint32_t a_ = 0;
  uint32_t b_ = 0;
  size_t len_ = 0;
};

}  // namespace bullet

#endif  // SRC_RSYNCX_ROLLING_CHECKSUM_H_
