#include "common/hash.hpp"

#include "common/assert.hpp"

namespace ncc {

uint64_t mod61(uint64_t x) {
  uint64_t r = (x & kMersenne61) + (x >> 61);
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

uint64_t mulmod61(uint64_t a, uint64_t b) {
  __uint128_t p = static_cast<__uint128_t>(a) * b;
  uint64_t lo = static_cast<uint64_t>(p & kMersenne61);
  uint64_t hi = static_cast<uint64_t>(p >> 61);
  uint64_t r = lo + hi;
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

KWiseHash::KWiseHash(uint32_t k, Rng& rng) {
  NCC_ASSERT(k >= 1);
  coeffs_.resize(k);
  for (auto& c : coeffs_) c = rng.next_below(kMersenne61);
  // Ensure the function is non-constant for k >= 2 (probability ~2^-61 issue,
  // but determinism demands we not rely on luck).
  if (k >= 2 && coeffs_[1] == 0) coeffs_[1] = 1;
}

uint64_t KWiseHash::operator()(uint64_t x) const {
  uint64_t xm = mod61(x);
  // Horner evaluation, high-to-low degree.
  uint64_t acc = 0;
  for (size_t i = coeffs_.size(); i-- > 0;) {
    acc = mod61(mulmod61(acc, xm) + coeffs_[i]);
  }
  return acc;
}

uint64_t KWiseHash::to_range(uint64_t x, uint64_t range) const {
  NCC_ASSERT(range > 0);
  // Multiply-shift style mapping from [0, p) to [0, range); bias is O(range/p).
  __uint128_t v = static_cast<__uint128_t>((*this)(x)) * range;
  return static_cast<uint64_t>(v / kMersenne61);
}

HashFamily::HashFamily(uint32_t count, uint32_t k, uint64_t seed) {
  Rng rng(mix64(seed ^ 0x9a11f0153acc5eedULL));
  fns_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) fns_.emplace_back(k, rng);
}

const KWiseHash& HashFamily::fn(uint32_t i) const {
  NCC_ASSERT(i < fns_.size());
  return fns_[i];
}

uint64_t HashFamily::bits(uint64_t x, uint32_t count) const {
  NCC_ASSERT(count <= 64 && count <= fns_.size());
  if (count == 0) return 0;
  // Every function has the same k. Each product is below p^2 < 2^122, so a
  // sum of k <= 64 of them fits 128 bits and is reduced once at the end.
  const size_t k = fns_[0].coeffs_.size();
  NCC_ASSERT(k <= 64);
  uint64_t pw[64];
  pw[0] = 1;
  const uint64_t xm = mod61(x);
  for (size_t i = 1; i < k; ++i) pw[i] = mulmod61(pw[i - 1], xm);
  uint64_t out = 0;
  for (uint32_t t = 0; t < count; ++t) {
    const uint64_t* c = fns_[t].coeffs_.data();
    __uint128_t s = 0;
    for (size_t i = 0; i < k; ++i) s += static_cast<__uint128_t>(c[i]) * pw[i];
    // 2^61 = 1 (mod p): fold the 61-bit limbs of s.
    uint64_t folded = static_cast<uint64_t>(s & kMersenne61) +
                      static_cast<uint64_t>((s >> 61) & kMersenne61) +
                      static_cast<uint64_t>(s >> 122);
    out |= (mod61(folded) & 1u) << t;
  }
  return out;
}

uint64_t HashFamily::randomness_words() const {
  uint64_t w = 0;
  for (const auto& f : fns_) w += f.randomness_words();
  return w;
}

}  // namespace ncc
