// Immutable levelized gate-level circuit.
//
// A Circuit is built once (by netlist::Builder, the .bench parser, the
// synthetic generator, or macro extraction) and then shared read-only by all
// simulators.  Connectivity is stored CSR-style: flat fanin / fanout arrays
// indexed by per-gate offsets, 32-bit gate ids throughout.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/gate.h"
#include "util/logic.h"

namespace cfs {

using GateId = std::uint32_t;
inline constexpr GateId kNoGate = 0xFFFFFFFFu;

/// One sink of a gate's output: the consuming gate and which of its pins.
struct Fanout {
  GateId gate;
  std::uint16_t pin;
};

/// A 2-bit-packed truth table over `num_inputs` three-valued inputs.
/// Entry index is the packed pin state (state_input_index); entries are
/// dual-rail output codes.
struct TruthTable {
  std::uint8_t num_inputs = 0;
  std::vector<std::uint8_t> out;  // 4^num_inputs entries

  Val eval(std::uint32_t input_index) const {
    return from_code(out[input_index]);
  }
  std::size_t bytes() const { return out.capacity() + sizeof(*this); }
};

/// Raw material handed to the Circuit constructor by builders.
struct CircuitData {
  std::string name;
  std::vector<GateKind> kinds;
  std::vector<std::string> names;               // one per gate
  std::vector<std::vector<GateId>> fanins;      // one vector per gate
  std::vector<GateId> primary_inputs;           // declared order
  std::vector<GateId> primary_outputs;          // declared order (gate ids)
  std::vector<std::uint32_t> tables_of;         // per gate: table id or kNoGate
  std::vector<TruthTable> tables;
};

class Circuit {
 public:
  /// Validates, computes fanouts, levelizes, and freezes the circuit.
  /// Throws cfs::Error on arity violations, dangling ids, or combinational
  /// cycles.
  explicit Circuit(CircuitData data);

  const std::string& name() const { return name_; }
  std::size_t num_gates() const { return kinds_.size(); }

  GateKind kind(GateId g) const { return kinds_[g]; }
  const std::string& gate_name(GateId g) const { return names_[g]; }

  std::span<const GateId> fanins(GateId g) const {
    return {fanin_flat_.data() + fanin_off_[g],
            fanin_off_[g + 1] - fanin_off_[g]};
  }
  unsigned num_fanins(GateId g) const {
    return fanin_off_[g + 1] - fanin_off_[g];
  }
  std::span<const Fanout> fanouts(GateId g) const {
    return {fanout_flat_.data() + fanout_off_[g],
            fanout_off_[g + 1] - fanout_off_[g]};
  }
  unsigned num_fanouts(GateId g) const {
    return fanout_off_[g + 1] - fanout_off_[g];
  }

  /// Levels: PIs and DFF outputs are level 0; a combinational gate is one
  /// above its deepest fanin.
  unsigned level(GateId g) const { return levels_[g]; }
  unsigned num_levels() const { return num_levels_; }

  bool is_po(GateId g) const { return po_flag_[g] != 0; }

  std::span<const GateId> inputs() const { return primary_inputs_; }
  std::span<const GateId> outputs() const { return primary_outputs_; }
  std::span<const GateId> dffs() const { return dffs_; }

  /// All combinational gates in non-decreasing level order.
  std::span<const GateId> topo_order() const { return topo_; }

  /// Gate id for a signal name, or kNoGate.
  GateId find(std::string_view name) const;

  /// Truth table id of a Macro gate (kNoGate for ordinary gates).
  std::uint32_t table_of(GateId g) const { return tables_of_[g]; }
  const TruthTable& table(std::uint32_t id) const { return tables_[id]; }
  std::size_t num_tables() const { return tables_.size(); }

  /// Evaluate gate `g` on a packed state.  Fully table-driven for every
  /// combinational gate (Macro gates index their truth table, every other
  /// kind its shared per-(kind, arity) flat table; gates wider than
  /// kEvalChunkPins compose two chunk reductions through a 16-entry join) --
  /// no hot-path evaluation ever folds over pins.  Input/Dff return the
  /// state's output slot.  Bit-identical to eval_fold() by construction.
  Val eval(GateId g, GateState s) const {
    const std::uint8_t* lo = eval_lo_[g];
    if (lo == nullptr) return state_out(s);  // Input / Dff
    const std::uint8_t c0 = lo[static_cast<std::uint32_t>(s) & eval_mask_[g]];
    const std::uint8_t* hi = eval_hi_[g];
    if (hi == nullptr) return from_code(c0);
    const std::uint8_t c1 =
        hi[static_cast<std::uint32_t>(s >> (2 * kEvalChunkPins)) &
           eval_hi_mask_[g]];
    return from_code(eval_join_[g][(c0 << 2) | c1]);
  }

  /// Fold-based oracle evaluation: the pre-table reference semantics
  /// (eval_kind over the packed pins; Macro gates still go through their
  /// truth table, which is their definition).  Kept off the hot paths --
  /// engines route here only under CsimOptions::fold_eval, and the
  /// differential tests pin eval() == eval_fold() bit for bit.
  Val eval_fold(GateId g, GateState s) const {
    const GateKind k = kinds_[g];
    if (k == GateKind::Macro) {
      return tables_[tables_of_[g]].eval(state_input_index(s, num_fanins(g)));
    }
    return eval_kind(k, s, num_fanins(g));
  }

  /// Evaluate with an override truth table (functional faults in macro mode).
  Val eval_with_table(GateId g, GateState s, const TruthTable& t) const {
    return t.eval(state_input_index(s, num_fanins(g)));
  }

  /// Approximate bytes of the frozen circuit image (for MEM reporting).
  std::size_t bytes() const;

  /// Summary statistics used by Table 2.
  struct Stats {
    std::size_t num_pis = 0, num_pos = 0, num_dffs = 0;
    std::size_t num_comb_gates = 0;  // excludes PIs and DFFs
    unsigned num_levels = 0;
    std::size_t max_fanin = 0, max_fanout = 0;
  };
  Stats stats() const;

 private:
  std::string name_;
  std::vector<GateKind> kinds_;
  std::vector<std::string> names_;
  std::vector<std::uint32_t> fanin_off_, fanout_off_;
  std::vector<GateId> fanin_flat_;
  std::vector<Fanout> fanout_flat_;
  std::vector<std::uint32_t> levels_;
  std::vector<std::uint8_t> po_flag_;
  std::vector<GateId> primary_inputs_, primary_outputs_, dffs_;
  std::vector<GateId> topo_;
  std::vector<std::uint32_t> tables_of_;
  std::vector<TruthTable> tables_;
  // Per-gate table-eval descriptors, SoA so the hot loop touches only the
  // arrays it needs: eval_lo_/eval_mask_ serve every gate up to
  // kEvalChunkPins (and all Macro gates); the hi/join arrays are consulted
  // only for wider gates.  Null eval_lo_ marks a source (Input/Dff).
  std::vector<const std::uint8_t*> eval_lo_;
  std::vector<const std::uint8_t*> eval_hi_;
  std::vector<const std::uint8_t*> eval_join_;
  std::vector<std::uint32_t> eval_mask_;
  std::vector<std::uint32_t> eval_hi_mask_;
  std::unordered_map<std::string, GateId> by_name_;
  unsigned num_levels_ = 0;
};

}  // namespace cfs
