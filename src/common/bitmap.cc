#include "src/common/bitmap.h"

#include <bit>

namespace bullet {

Bitmap::Bitmap(size_t size) { Resize(size); }

void Bitmap::Resize(size_t size) {
  size_ = size;
  words_.assign((size + kWordBits - 1) / kWordBits, 0);
  count_ = 0;
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
  for (size_t wi = 0; wi < words_.size(); ++wi) {
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
  for (size_t wi = 0; wi < words_.size(); ++wi) {
    const uint64_t theirs = wi < other.words_.size() ? other.words_[wi] : 0;
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
