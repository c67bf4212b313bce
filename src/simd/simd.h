// Host instruction-set detection (DESIGN.md §16).
//
// The engine's hot loops are plain scalar code; nothing dispatches on the
// ISA.  What remains names the widest vector instruction set the host
// supports, so a benchmark report can record the machine it ran on.
// Header-only: a caller needs no library to link.
#pragma once

#include <cstdint>
#include <string_view>

namespace cfs::simd {

enum class Isa : std::uint8_t { Scalar, Sse42, Avx2, Neon };

/// Canonical lower-case name ("scalar", "sse4.2", "avx2", "neon").
inline std::string_view isa_name(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return "scalar";
    case Isa::Sse42: return "sse4.2";
    case Isa::Avx2: return "avx2";
    case Isa::Neon: return "neon";
  }
  return "?";
}

/// Widest vector ISA this host supports.  x86 asks CPUID through
/// __builtin_cpu_supports (AVX2 counts only together with BMI1, as every
/// AVX2 part ships it); NEON is architectural on aarch64.
inline Isa detect_isa() {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi")) {
    return Isa::Avx2;
  }
  if (__builtin_cpu_supports("sse4.2")) return Isa::Sse42;
  return Isa::Scalar;
#elif defined(__aarch64__)
  return Isa::Neon;
#else
  return Isa::Scalar;
#endif
}

}  // namespace cfs::simd
