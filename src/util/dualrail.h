// 64-pattern-wide three-valued words for bit-parallel simulation.
//
// A Word64 carries 64 independent three-valued values using one L rail and
// one H rail (same semantics as the scalar encoding in logic.h, one bit per
// lane).  The PROOFS-style baseline packs 64 faulty machines per word, the
// batched good machine 64 input vectors per word, and the macro table builder
// 64 truth-table entries per word.
#pragma once

#include <cstdint>

#include "util/logic.h"

namespace cfs {

struct Word64 {
  std::uint64_t l = 0;  ///< optimistic rail
  std::uint64_t h = 0;  ///< pessimistic rail

  friend bool operator==(const Word64&, const Word64&) = default;
};

/// All 64 lanes set to the same scalar value.
constexpr Word64 splat64(Val v) {
  const std::uint8_t c = code(v);
  return Word64{(c & 1u) ? ~0ull : 0ull, (c & 2u) ? ~0ull : 0ull};
}

constexpr Word64 w_and(Word64 a, Word64 b) {
  return {a.l & b.l, a.h & b.h};
}
constexpr Word64 w_or(Word64 a, Word64 b) { return {a.l | b.l, a.h | b.h}; }
constexpr Word64 w_not(Word64 a) { return {~a.h, ~a.l}; }
constexpr Word64 w_xor(Word64 a, Word64 b) {
  return w_or(w_and(a, w_not(b)), w_and(w_not(a), b));
}

/// Lanes where a and b hold an identical value (0==0, 1==1, X==X).
constexpr std::uint64_t w_eq(Word64 a, Word64 b) {
  return ~((a.l ^ b.l) | (a.h ^ b.h));
}

/// Lanes where both values are binary and complementary (hard difference).
constexpr std::uint64_t w_hard_diff(Word64 a, Word64 b) {
  const std::uint64_t a_bin = ~(a.l ^ a.h);  // lanes where a is 0 or 1
  const std::uint64_t b_bin = ~(b.l ^ b.h);
  return a_bin & b_bin & (a.l ^ b.l);
}

/// Lanes where the value is X.
constexpr std::uint64_t w_is_x(Word64 a) { return ~a.l & a.h; }

/// Lanes where the value is binary (0 or 1).
constexpr std::uint64_t w_is_binary(Word64 a) { return ~(a.l ^ a.h) ; }

/// Read lane `i` back as a scalar value.
constexpr Val w_get(Word64 a, unsigned i) {
  const std::uint8_t c = static_cast<std::uint8_t>(
      (((a.h >> i) & 1u) << 1) | ((a.l >> i) & 1u));
  return from_code(c);
}

/// Set lane `i` to a scalar value.
constexpr void w_set(Word64& a, unsigned i, Val v) {
  const std::uint64_t m = 1ull << i;
  const std::uint8_t c = code(v);
  a.l = (c & 1u) ? (a.l | m) : (a.l & ~m);
  a.h = (c & 2u) ? (a.h | m) : (a.h & ~m);
}

/// Blend: lanes in `mask` taken from `b`, others from `a`.
constexpr Word64 w_select(std::uint64_t mask, Word64 b, Word64 a) {
  return {(a.l & ~mask) | (b.l & mask), (a.h & ~mask) | (b.h & mask)};
}

// ---------------------------------------------------------------------------
// Multi-word (up to 256-lane) extensions.
//
// A value wider than 64 lanes is `n` consecutive Word64s: lane i lives in
// word i/64, bit i%64.  Lanes never interact in any dual-rail op, so every
// multi-word op is the Word64 op applied word-wise; the fixed small bound
// (kMaxBatchWords = 4, i.e. 256 lanes) keeps the loops fully unrollable --
// on AVX2 the four l rails and four h rails each fill one 256-bit register.
// ---------------------------------------------------------------------------

/// Hard cap on words per multi-word value (4 * 64 = 256 lanes).
inline constexpr unsigned kMaxBatchWords = 4;
inline constexpr unsigned kMaxBatchLanes = kMaxBatchWords * 64;

constexpr void wn_splat(Word64* a, unsigned n, Val v) {
  const Word64 w = splat64(v);
  for (unsigned i = 0; i < n; ++i) a[i] = w;
}
constexpr void wn_copy(Word64* dst, const Word64* src, unsigned n) {
  for (unsigned i = 0; i < n; ++i) dst[i] = src[i];
}
constexpr void wn_and(Word64* acc, const Word64* b, unsigned n) {
  for (unsigned i = 0; i < n; ++i) acc[i] = w_and(acc[i], b[i]);
}
constexpr void wn_or(Word64* acc, const Word64* b, unsigned n) {
  for (unsigned i = 0; i < n; ++i) acc[i] = w_or(acc[i], b[i]);
}
constexpr void wn_xor(Word64* acc, const Word64* b, unsigned n) {
  for (unsigned i = 0; i < n; ++i) acc[i] = w_xor(acc[i], b[i]);
}
constexpr void wn_not(Word64* a, unsigned n) {
  for (unsigned i = 0; i < n; ++i) a[i] = w_not(a[i]);
}

/// All lanes of `a` and `b` hold identical values.
constexpr bool wn_eq(const Word64* a, const Word64* b, unsigned n) {
  std::uint64_t diff = 0;
  for (unsigned i = 0; i < n; ++i) {
    diff |= (a[i].l ^ b[i].l) | (a[i].h ^ b[i].h);
  }
  return diff == 0;
}

/// Read lane `lane` (0 .. 64n-1) back as a scalar value.
constexpr Val wn_get(const Word64* a, unsigned lane) {
  return w_get(a[lane >> 6], lane & 63u);
}

/// Set lane `lane` (0 .. 64n-1) to a scalar value.
constexpr void wn_set(Word64* a, unsigned lane, Val v) {
  w_set(a[lane >> 6], lane & 63u, v);
}

}  // namespace cfs
