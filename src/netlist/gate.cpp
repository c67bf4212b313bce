#include "netlist/gate.h"

#include <mutex>
#include <vector>

#include "util/error.h"
#include "util/strings.h"

namespace cfs {

std::string_view kind_name(GateKind k) {
  switch (k) {
    case GateKind::Input: return "INPUT";
    case GateKind::Buf: return "BUF";
    case GateKind::Not: return "NOT";
    case GateKind::And: return "AND";
    case GateKind::Nand: return "NAND";
    case GateKind::Or: return "OR";
    case GateKind::Nor: return "NOR";
    case GateKind::Xor: return "XOR";
    case GateKind::Xnor: return "XNOR";
    case GateKind::Dff: return "DFF";
    case GateKind::Macro: return "MACRO";
  }
  return "?";
}

GateKind kind_from_name(std::string_view name) {
  const std::string u = upper(name);
  if (u == "BUF" || u == "BUFF") return GateKind::Buf;
  if (u == "NOT" || u == "INV") return GateKind::Not;
  if (u == "AND") return GateKind::And;
  if (u == "NAND") return GateKind::Nand;
  if (u == "OR") return GateKind::Or;
  if (u == "NOR") return GateKind::Nor;
  if (u == "XOR") return GateKind::Xor;
  if (u == "XNOR") return GateKind::Xnor;
  if (u == "DFF") return GateKind::Dff;
  if (u == "INPUT") return GateKind::Input;
  throw Error("unknown gate kind: " + std::string(name));
}

Val eval_kind(GateKind k, GateState s, unsigned nfanins) {
  switch (k) {
    case GateKind::Input:
    case GateKind::Dff:
      return state_out(s);
    case GateKind::Buf:
      return state_get(s, 0);
    case GateKind::Not:
      return v_not(state_get(s, 0));
    case GateKind::And:
    case GateKind::Nand: {
      Val r = Val::One;
      for (unsigned i = 0; i < nfanins; ++i) r = v_and(r, state_get(s, i));
      return k == GateKind::And ? r : v_not(r);
    }
    case GateKind::Or:
    case GateKind::Nor: {
      Val r = Val::Zero;
      for (unsigned i = 0; i < nfanins; ++i) r = v_or(r, state_get(s, i));
      return k == GateKind::Or ? r : v_not(r);
    }
    case GateKind::Xor:
    case GateKind::Xnor: {
      Val r = Val::Zero;
      for (unsigned i = 0; i < nfanins; ++i) r = v_xor(r, state_get(s, i));
      return k == GateKind::Xor ? r : v_not(r);
    }
    case GateKind::Macro:
      throw Error("eval_kind cannot evaluate Macro gates; use the circuit's truth table");
  }
  return Val::X;
}

Word64 eval_kind_word(GateKind k, std::span<const Word64> pins) {
  switch (k) {
    case GateKind::Buf:
      return pins[0];
    case GateKind::Not:
      return w_not(pins[0]);
    case GateKind::And:
    case GateKind::Nand: {
      Word64 r = splat64(Val::One);
      for (const Word64& w : pins) r = w_and(r, w);
      return k == GateKind::And ? r : w_not(r);
    }
    case GateKind::Or:
    case GateKind::Nor: {
      Word64 r = splat64(Val::Zero);
      for (const Word64& w : pins) r = w_or(r, w);
      return k == GateKind::Or ? r : w_not(r);
    }
    case GateKind::Xor:
    case GateKind::Xnor: {
      Word64 r = splat64(Val::Zero);
      for (const Word64& w : pins) r = w_xor(r, w);
      return k == GateKind::Xor ? r : w_not(r);
    }
    case GateKind::Input:
    case GateKind::Dff:
    case GateKind::Macro:
      break;
  }
  throw Error("eval_kind_word: combinational non-macro kinds only");
}

namespace {

// Fast tables for the 8 combinational kinds x fanin 1..4.
struct FastTables {
  std::array<std::array<std::uint8_t, 256>, 8 * 5> tables{};
  FastTables() {
    for (unsigned ki = 0; ki < 8; ++ki) {
      const GateKind k = static_cast<GateKind>(ki + 1);  // Buf..Xnor
      for (unsigned n = 1; n <= 4; ++n) {
        auto& t = tables[ki * 5 + n];
        for (unsigned idx = 0; idx < 256; ++idx) {
          // Normalise every pin code through from_code so the invalid code 1
          // behaves as X, then evaluate.
          GateState s = 0;
          for (unsigned p = 0; p < n; ++p) {
            s = state_set(s, p, from_code(static_cast<std::uint8_t>(idx >> (2 * p))));
          }
          t[idx] = code(eval_kind(k, s, n));
        }
      }
    }
  }
};

const FastTables& fast_tables() {
  static const FastTables t;
  return t;
}

}  // namespace

const std::array<std::uint8_t, 256>& fast_table(GateKind k, unsigned nfanins) {
  const unsigned ki = static_cast<unsigned>(k) - 1;
  return fast_tables().tables[ki * 5 + nfanins];
}

namespace {

// Associative reduction underlying a kind (inversion handled by the join).
Val reduce_identity(GateKind k) {
  switch (k) {
    case GateKind::And:
    case GateKind::Nand: return Val::One;
    default: return Val::Zero;
  }
}

Val reduce_op(GateKind k, Val a, Val b) {
  switch (k) {
    case GateKind::And:
    case GateKind::Nand: return v_and(a, b);
    case GateKind::Xor:
    case GateKind::Xnor: return v_xor(a, b);
    default: return v_or(a, b);  // Or/Nor; Buf/Not never take the wide path
  }
}

constexpr bool inverting(GateKind k) {
  return k == GateKind::Not || k == GateKind::Nand || k == GateKind::Nor ||
         k == GateKind::Xnor;
}

// Reduce `npins` pins of the low bits of an index with kind `k`'s
// associative op, normalising the invalid code 1 to X per pin.
Val reduce_pins(GateKind k, std::uint32_t idx, unsigned npins) {
  Val r = reduce_identity(k);
  for (unsigned p = 0; p < npins; ++p) {
    r = reduce_op(k, r, from_code(static_cast<std::uint8_t>(idx >> (2 * p))));
  }
  return r;
}

// Lazily-built shared tables: per (kind, arity) one flat output table for
// n <= kEvalChunkPins, plus per (kind, chunk arity) reduce tables and a
// 16-entry join for wider gates.  Built under a mutex, read lock-free ever
// after (vectors are sized once and never touched again).
struct EvalTableRegistry {
  std::mutex mu;
  // [kind 0..7 == Buf..Xnor][n 0..kEvalChunkPins]; empty until first use.
  std::vector<std::uint8_t> full[8][kEvalChunkPins + 1];
  std::vector<std::uint8_t> reduce[8][kEvalChunkPins + 1];
  std::array<std::uint8_t, 16> join[8];
  bool join_built[8] = {};

  const std::vector<std::uint8_t>& full_table(unsigned ki, unsigned n) {
    auto& t = full[ki][n];
    if (t.empty()) {
      const GateKind k = static_cast<GateKind>(ki + 1);
      const std::size_t entries = std::size_t{1} << (2 * n);
      t.resize(entries);
      for (std::uint32_t idx = 0; idx < entries; ++idx) {
        GateState s = 0;
        for (unsigned p = 0; p < n; ++p) {
          s = state_set(s, p,
                        from_code(static_cast<std::uint8_t>(idx >> (2 * p))));
        }
        t[idx] = code(eval_kind(k, s, n));
      }
    }
    return t;
  }

  const std::vector<std::uint8_t>& reduce_table(unsigned ki, unsigned n) {
    auto& t = reduce[ki][n];
    if (t.empty()) {
      const GateKind k = static_cast<GateKind>(ki + 1);
      const std::size_t entries = std::size_t{1} << (2 * n);
      t.resize(entries);
      for (std::uint32_t idx = 0; idx < entries; ++idx) {
        t[idx] = code(reduce_pins(k, idx, n));
      }
    }
    return t;
  }

  const std::array<std::uint8_t, 16>& join_table(unsigned ki) {
    auto& t = join[ki];
    if (!join_built[ki]) {
      const GateKind k = static_cast<GateKind>(ki + 1);
      for (unsigned a = 0; a < 4; ++a) {
        for (unsigned b = 0; b < 4; ++b) {
          Val v = reduce_op(k, from_code(static_cast<std::uint8_t>(a)),
                            from_code(static_cast<std::uint8_t>(b)));
          if (inverting(k)) v = v_not(v);
          t[(a << 2) | b] = code(v);
        }
      }
      join_built[ki] = true;
    }
    return t;
  }
};

EvalTableRegistry& eval_registry() {
  static EvalTableRegistry r;
  return r;
}

}  // namespace

EvalTable eval_table(GateKind k, unsigned nfanins) {
  if (!is_combinational(k) || k == GateKind::Macro) {
    throw Error("eval_table: combinational non-macro kinds only");
  }
  if (nfanins < 1 || nfanins > kMaxPins) {
    throw Error("eval_table: arity out of range");
  }
  const unsigned ki = static_cast<unsigned>(k) - 1;
  EvalTableRegistry& reg = eval_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  EvalTable t;
  if (nfanins <= kEvalChunkPins) {
    t.lo = reg.full_table(ki, nfanins).data();
    t.lo_mask = (1u << (2 * nfanins)) - 1;
  } else {
    t.lo = reg.reduce_table(ki, kEvalChunkPins).data();
    t.lo_mask = (1u << (2 * kEvalChunkPins)) - 1;
    t.hi = reg.reduce_table(ki, nfanins - kEvalChunkPins).data();
    t.hi_mask = (1u << (2 * (nfanins - kEvalChunkPins))) - 1;
    t.join = reg.join_table(ki).data();
  }
  return t;
}

}  // namespace cfs
