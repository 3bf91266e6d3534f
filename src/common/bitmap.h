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

// A bitmap of at most 64 bits keeps its one word inline; a larger one owns a
// heap array of words. Most bitmaps are small (a BitTorrent peer's piece map
// has 16 bits on routed_shared's 4 MB file), and each one costs no allocation.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t size);
  // Move-only: no code copies or reassigns a bitmap. Moving (a container
  // growing) leaves `other` empty.
  Bitmap(Bitmap&& other) noexcept;
  Bitmap(const Bitmap&) = delete;
  Bitmap& operator=(const Bitmap&) = delete;
  Bitmap& operator=(Bitmap&&) = delete;
  ~Bitmap() { Release(); }

  // Clears every bit and sets the size.
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

  static size_t NumWords(size_t size) { return (size + kWordBits - 1) / kWordBits; }
  // Frees the heap words, if any, and points words_ at the inline word.
  void Release();

  size_t size_ = 0;
  size_t count_ = 0;
  // NumWords(size_) words: &inline_word_ while size_ <= kWordBits, else an
  // owned heap array.
  uint64_t* words_ = &inline_word_;
  uint64_t inline_word_ = 0;
};

}  // namespace bullet

#endif  // SRC_COMMON_BITMAP_H_
