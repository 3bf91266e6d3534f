// Block availability bitmap.
//
// Bullet' peers exchange *incremental* diffs of their block maps (Section 3.3.4 of the
// paper), so the bitmap supports extracting "set here but not there" differences.

#ifndef SRC_COMMON_BITMAP_H_
#define SRC_COMMON_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bullet {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t size);

  void Resize(size_t size);

  size_t size() const { return size_; }
  size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == size_; }

  // Inline: the request pickers test a bit per candidate scanned.
  bool Test(size_t i) const {
    return i < size_ && ((words_[i / kWordBits] >> (i % kWordBits)) & 1u) != 0;
  }
  // Returns true if the bit was newly set (i.e. it was previously clear).
  bool Set(size_t i);

  // All indices that are set here. O(size).
  std::vector<uint32_t> SetBits() const;

  // All indices set in `this` but not in `other`. The bitmaps may have different
  // sizes; indices beyond other's size count as "not in other".
  std::vector<uint32_t> DiffFrom(const Bitmap& other) const;

 private:
  static constexpr size_t kWordBits = 64;

  size_t size_ = 0;
  size_t count_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace bullet

#endif  // SRC_COMMON_BITMAP_H_
