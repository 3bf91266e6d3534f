#include "src/common/bitmap.h"

#include <bit>

namespace bullet {

namespace {
constexpr size_t kDiffHeaderBytes = 8;
}  // namespace

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

void Bitmap::Clear(size_t i) {
  if (i >= size_) {
    return;
  }
  uint64_t& w = words_[i / kWordBits];
  const uint64_t mask = uint64_t{1} << (i % kWordBits);
  if (w & mask) {
    w &= ~mask;
    --count_;
  }
}

void Bitmap::ClearAll() {
  words_.assign(words_.size(), 0);
  count_ = 0;
}

size_t Bitmap::FirstClear() const {
  for (size_t wi = 0; wi < words_.size(); ++wi) {
    if (words_[wi] != ~uint64_t{0}) {
      const size_t bit = static_cast<size_t>(std::countr_one(words_[wi]));
      const size_t idx = wi * kWordBits + bit;
      if (idx < size_) {
        return idx;
      }
    }
  }
  return size_;
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

size_t Bitmap::IntersectCount(const Bitmap& other) const {
  size_t n = 0;
  const size_t words = words_.size() < other.words_.size() ? words_.size() : other.words_.size();
  for (size_t wi = 0; wi < words; ++wi) {
    n += static_cast<size_t>(std::popcount(words_[wi] & other.words_[wi]));
  }
  return n;
}

size_t Bitmap::WireBytes() const { return kDiffHeaderBytes + (size_ + 7) / 8; }

}  // namespace bullet
