#include "src/common/hash.h"

namespace bullet {

namespace {
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t Fnv1a64Seeded(const void* data, size_t len, uint64_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = kFnvOffset ^ seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}
}  // namespace

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Digest128 StrongDigest(const void* data, size_t len) {
  Digest128 d;
  d.lo = Mix64(Fnv1a64Seeded(data, len, 0x243f6a8885a308d3ULL));
  d.hi = Mix64(Fnv1a64Seeded(data, len, 0x13198a2e03707344ULL));
  return d;
}

}  // namespace bullet
