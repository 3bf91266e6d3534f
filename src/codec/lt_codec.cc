#include "src/codec/lt_codec.h"

#include <algorithm>

#include "src/common/hash.h"

namespace bullet {

namespace {

void XorInto(Block& dst, const Block& src) {
  const size_t n = std::min(dst.size(), src.size());
  for (size_t i = 0; i < n; ++i) {
    dst[i] ^= src[i];
  }
}

}  // namespace

std::vector<uint32_t> EncodedComposition(uint32_t encoded_id, uint32_t num_blocks,
                                         const RobustSoliton& soliton, uint64_t stream_seed) {
  Rng rng(Mix64(stream_seed ^ (static_cast<uint64_t>(encoded_id) + 1)));
  uint32_t degree = soliton.Sample(rng);
  degree = std::min(degree, num_blocks);
  std::vector<uint32_t> indices;
  indices.reserve(degree);
  // Distinct indices by rejection; degree << n in the common case.
  while (indices.size() < degree) {
    const uint32_t idx = static_cast<uint32_t>(rng.UniformInt(0, num_blocks - 1));
    if (std::find(indices.begin(), indices.end(), idx) == indices.end()) {
      indices.push_back(idx);
    }
  }
  std::sort(indices.begin(), indices.end());
  return indices;
}

LtEncoder::LtEncoder(std::vector<uint8_t> file, size_t block_bytes, uint64_t stream_seed)
    : file_(std::move(file)),
      block_bytes_(block_bytes),
      stream_seed_(stream_seed),
      soliton_(1) {
  const size_t padded = (file_.size() + block_bytes_ - 1) / block_bytes_ * block_bytes_;
  file_.resize(std::max(padded, block_bytes_), 0);
  num_blocks_ = static_cast<uint32_t>(file_.size() / block_bytes_);
  soliton_ = RobustSoliton(num_blocks_);
}

Block LtEncoder::Encode(uint32_t encoded_id) const {
  const auto indices = EncodedComposition(encoded_id, num_blocks_, soliton_, stream_seed_);
  Block out(block_bytes_, 0);
  for (const uint32_t idx : indices) {
    const uint8_t* src = file_.data() + static_cast<size_t>(idx) * block_bytes_;
    for (size_t i = 0; i < block_bytes_; ++i) {
      out[i] ^= src[i];
    }
  }
  return out;
}

LtDecoder::LtDecoder(uint32_t num_blocks, size_t block_bytes, uint64_t stream_seed)
    : num_blocks_(num_blocks),
      block_bytes_(block_bytes),
      stream_seed_(stream_seed),
      soliton_(num_blocks),
      recovered_(num_blocks),
      is_recovered_(num_blocks, 0),
      index_to_equations_(num_blocks) {}

int LtDecoder::AddEncoded(uint32_t encoded_id, Block payload) {
  const uint32_t before = recovered_count_;

  auto eq = std::make_unique<Equation>();
  eq->payload = std::move(payload);
  // Reduce the fresh equation by everything already recovered.
  for (const uint32_t idx : EncodedComposition(encoded_id, num_blocks_, soliton_, stream_seed_)) {
    if (is_recovered_[idx]) {
      XorInto(eq->payload, recovered_[idx]);
    } else {
      eq->unknowns.push_back(idx);
    }
  }

  if (eq->unknowns.empty()) {
    // Nothing new (pure redundancy).
  } else if (eq->unknowns.size() == 1) {
    const uint32_t idx = eq->unknowns[0];
    if (!is_recovered_[idx]) {
      is_recovered_[idx] = 1;
      recovered_[idx] = std::move(eq->payload);
      ++recovered_count_;
      ripple_.push_back(idx);
    }
  } else {
    const size_t slot = equations_.size();
    for (const uint32_t idx : eq->unknowns) {
      index_to_equations_[idx].push_back(slot);
    }
    equations_.push_back(std::move(eq));
  }

  // Drain the ripple.
  while (!ripple_.empty()) {
    const uint32_t idx = ripple_.back();
    ripple_.pop_back();
    Propagate(idx);
  }

  progress_.push_back(recovered_count_);
  return static_cast<int>(recovered_count_ - before);
}

void LtDecoder::Propagate(uint32_t source_index) {
  auto slots = std::move(index_to_equations_[source_index]);
  index_to_equations_[source_index].clear();
  for (const size_t slot : slots) {
    Equation* eq = equations_[slot].get();
    if (eq == nullptr) {
      continue;
    }
    auto it = std::find(eq->unknowns.begin(), eq->unknowns.end(), source_index);
    if (it == eq->unknowns.end()) {
      continue;
    }
    XorInto(eq->payload, recovered_[source_index]);
    eq->unknowns.erase(it);
    if (eq->unknowns.size() == 1) {
      const uint32_t idx = eq->unknowns[0];
      if (!is_recovered_[idx]) {
        is_recovered_[idx] = 1;
        recovered_[idx] = std::move(eq->payload);
        ++recovered_count_;
        ripple_.push_back(idx);
      }
      equations_[slot].reset();
    } else if (eq->unknowns.empty()) {
      equations_[slot].reset();
    }
  }
}

std::vector<uint8_t> LtDecoder::Reconstruct(int64_t file_bytes) const {
  std::vector<uint8_t> out;
  out.reserve(static_cast<size_t>(num_blocks_) * block_bytes_);
  for (uint32_t idx = 0; idx < num_blocks_; ++idx) {
    if (!is_recovered_[idx]) {
      return {};
    }
    out.insert(out.end(), recovered_[idx].begin(), recovered_[idx].end());
  }
  if (file_bytes >= 0 && static_cast<size_t>(file_bytes) <= out.size()) {
    out.resize(static_cast<size_t>(file_bytes));
  }
  return out;
}

}  // namespace bullet
