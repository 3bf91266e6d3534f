#include "src/common/bitmap.h"

#include <algorithm>
#include <bit>

namespace bullet {

// A BitTorrent `Peer` entry holds one, and the entries are the largest
// per-peer allocation at routed_shared's live-heap peak.
static_assert(sizeof(Bitmap) <= 40, "a bitmap outgrew 40 bytes");

Bitmap::Bitmap(size_t size) { Resize(size); }

Bitmap::Bitmap(Bitmap&& other) noexcept
    : size_(other.size_), count_(other.count_), inline_word_(other.inline_word_) {
  if (size_ > kWordBits) {
    words_ = other.words_;
    other.words_ = &other.inline_word_;
  }
  other.size_ = 0;
  other.count_ = 0;
  other.inline_word_ = 0;
}

void Bitmap::Release() {
  if (size_ > kWordBits) {
    delete[] words_;
    words_ = &inline_word_;
  }
}

void Bitmap::Resize(size_t size) {
  // A heap array of the right length is reused.
  if (size_ <= kWordBits || NumWords(size) != NumWords(size_)) {
    // Allocated before the old array goes, so a throwing new leaves it intact.
    uint64_t* words = size > kWordBits ? new uint64_t[NumWords(size)] : &inline_word_;
    Release();
    words_ = words;
  }
  size_ = size;
  count_ = 0;
  inline_word_ = 0;
  std::fill_n(words_, NumWords(size), uint64_t{0});
}

bool Bitmap::Set(size_t i) {
  if (i >= size_) {
    return false;
  }
  uint64_t& w = words_[i / kWordBits];
  const uint64_t mask = uint64_t{1} << (i % kWordBits);
  if (w & mask) {
    return false;
  }
  w |= mask;
  ++count_;
  return true;
}

std::vector<uint32_t> Bitmap::SetBits() const {
  std::vector<uint32_t> out;
  out.reserve(count_);
  for (size_t wi = 0; wi < NumWords(size_); ++wi) {
    uint64_t w = words_[wi];
    while (w != 0) {
      const int bit = std::countr_zero(w);
      out.push_back(static_cast<uint32_t>(wi * kWordBits + static_cast<size_t>(bit)));
      w &= w - 1;
    }
  }
  return out;
}

std::vector<uint32_t> Bitmap::DiffFrom(const Bitmap& other) const {
  std::vector<uint32_t> out;
  const size_t their_words = NumWords(other.size_);
  for (size_t wi = 0; wi < NumWords(size_); ++wi) {
    const uint64_t theirs = wi < their_words ? other.words_[wi] : 0;
    uint64_t w = words_[wi] & ~theirs;
    while (w != 0) {
      const int bit = std::countr_zero(w);
      out.push_back(static_cast<uint32_t>(wi * kWordBits + static_cast<size_t>(bit)));
      w &= w - 1;
    }
  }
  return out;
}

}  // namespace bullet
