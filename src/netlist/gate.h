// Gate kinds and their three-valued evaluation.
//
// Evaluation comes in two flavours, mirroring the paper: a generic fold over
// the packed pin state for any fanin up to kMaxPins, and a 256-entry lookup
// table for gates with at most four inputs ("fast evaluation is extremely
// important in concurrent fault simulation because each faulty gate is
// explicitly evaluated one by one.  Normally this is achieved through table
// look up.").
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "util/logic.h"
#include "util/packed_state.h"

namespace cfs {

enum class GateKind : std::uint8_t {
  Input,  ///< primary input; value driven externally
  Buf,
  Not,
  And,
  Nand,
  Or,
  Nor,
  Xor,
  Xnor,
  Dff,    ///< D flip-flop; output is the latched state, fanin 0 is D
  Macro,  ///< collapsed fanout-free region evaluated via its truth table
};

/// Upper-case canonical name as used in .bench files ("AND", "DFF", ...).
std::string_view kind_name(GateKind k);

/// Parse a .bench gate keyword (case-insensitive; accepts BUF and BUFF).
/// Throws cfs::Error for unknown keywords.
GateKind kind_from_name(std::string_view name);

/// True for gates whose output is a combinational function of their pins
/// (everything except Input and Dff; Macro counts as combinational).
constexpr bool is_combinational(GateKind k) {
  return k != GateKind::Input && k != GateKind::Dff;
}

/// Fanin arity constraints: {min, max} pins for a kind.
constexpr std::pair<unsigned, unsigned> arity(GateKind k) {
  switch (k) {
    case GateKind::Input: return {0, 0};
    case GateKind::Buf:
    case GateKind::Not:
    case GateKind::Dff: return {1, 1};
    default: return {1, kMaxPins};
  }
}

/// Generic three-valued evaluation of a non-macro kind over a packed state.
/// Input and Dff return the state's current output slot unchanged.
Val eval_kind(GateKind k, GateState s, unsigned nfanins);

/// 256-entry lookup table mapping the low 8 bits of a packed state (up to
/// four 2-bit pin codes) to the 2-bit output code of kind `k` with `nfanins`
/// pins (nfanins <= 4, combinational kinds only).  Tables are built once and
/// shared; the returned reference is valid for the program lifetime.
const std::array<std::uint8_t, 256>& fast_table(GateKind k, unsigned nfanins);

/// Number of pins a single flat table covers.  Gates up to this arity are
/// one lookup; wider gates split into a low chunk of kEvalChunkPins pins and
/// a high chunk of the remainder, each reduced by table, joined by a third
/// 16-entry table.
inline constexpr unsigned kEvalChunkPins = 8;

/// Resolved table-eval descriptor of one (kind, arity): everything a gate
/// evaluation needs so that no hot loop ever folds over pins.
///
///   nfanins <= kEvalChunkPins : out = from_code(lo[s & lo_mask]); hi == null
///   nfanins  > kEvalChunkPins : out = from_code(
///       join[(lo[s & lo_mask] << 2) | hi[(s >> 2*kEvalChunkPins) & hi_mask]])
///
/// In the wide form `lo` and `hi` hold pure associative reductions (AND / OR
/// / XOR of the chunk's pins, no output inversion) and `join` combines the
/// two chunk codes and applies the kind's inversion.  Every entry normalises
/// the invalid dual-rail code 1 to X, matching eval_kind()'s state_get
/// semantics bit for bit.  Pointers are valid for the program lifetime.
struct EvalTable {
  const std::uint8_t* lo = nullptr;    ///< 4^min(n, kEvalChunkPins) entries
  const std::uint8_t* hi = nullptr;    ///< 4^(n - kEvalChunkPins), or null
  const std::uint8_t* join = nullptr;  ///< 16 entries ((lo_code<<2)|hi_code)
  std::uint32_t lo_mask = 0;
  std::uint32_t hi_mask = 0;
};

/// Table-eval descriptor for combinational kind `k` with `nfanins` pins
/// (1 <= nfanins <= kMaxPins; Buf/Not only at arity 1).  Tables are built
/// lazily per (kind, arity) and shared for the program lifetime.
EvalTable eval_table(GateKind k, unsigned nfanins);

}  // namespace cfs
