// The immutable half of the concurrent fault simulator.
//
// Everything ConcurrentSim derives purely from (Circuit, FaultUniverse,
// MacroFaultMap) lives here: the fault descriptor table, the per-gate
// site-fault index, the per-gate activation rows (which site faults can
// differ from the good machine under each good input, DESIGN.md section
// 22), and the transition-mode driver groupings.  A SimModel is read-only
// after construction and carries no simulation state, so any number of
// engines -- in particular the shards of a multi-threaded ShardedSim -- can
// share one instance concurrently instead of each rebuilding the tables.
//
// The model borrows the circuit, the universe, and (if given) the macro
// fault map; the caller keeps them alive for the model's lifetime.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "faults/fault.h"
#include "faults/macro_map.h"
#include "netlist/circuit.h"
#include "util/logic.h"

namespace cfs {

/// Per-fault global information (the paper's fault *descriptor*): the site,
/// the forced value, and in macro mode the faulty lookup table of a
/// functional fault.  Detection status is run state and lives in the engine.
struct FaultDescriptor {
  GateId site_gate = kNoGate;
  std::uint16_t site_pin = kFaultOutPin;
  FaultType type = FaultType::StuckAt;
  bool masked = false;          // functional fault equal to good function
  Val forced = Val::Zero;       // stuck value / transition destination
  const std::uint8_t* table = nullptr;  // faulty macro table, or null
};

class SimModel {
 public:
  /// Plain mode: faults of `u` on circuit `c`.  In macro mode pass the
  /// extracted circuit as `c` and the fault map as `mmap` (the universe
  /// still indexes the *original* faults; only sites move).  Validates site
  /// ranges and transition-universe homogeneity, throwing cfs::Error.
  SimModel(const Circuit& c, const FaultUniverse& u,
           const MacroFaultMap* mmap = nullptr);

  const Circuit& circuit() const { return *c_; }
  const FaultUniverse& universe() const { return *u_; }
  const MacroFaultMap* macro_map() const { return mmap_; }

  std::size_t num_faults() const { return descr_.size(); }
  bool transition_mode() const { return transition_mode_; }

  const FaultDescriptor& descriptor(std::uint32_t id) const {
    return descr_[id];
  }
  /// Raw descriptor array (hot-path access; indexed by fault id).
  const FaultDescriptor* descriptors() const { return descr_.data(); }

  /// Sorted ids of the non-masked faults sited at gate `g`.
  std::span<const std::uint32_t> site_faults(GateId g) const {
    return {site_flat_.data() + site_off_[g], site_off_[g + 1] - site_off_[g]};
  }

  /// Activation row of combinational gate `g` under the good input index
  /// `in` (state_input_index of its good pins): bit j is set when site
  /// fault j of site_faults(g), with no divergent fanin, can differ from
  /// the good machine at g -- a stuck-at pin whose good value is not the
  /// forced one, a stuck-at output whose forced value is not the good
  /// output, a functional fault whose table gives another output, or a
  /// transition pin that shows its target or X (a candidate only: the
  /// fault's previous value decides at run time).  A gate with more than
  /// kMaxRowPins pins or more than 64 site faults has no rows and answers
  /// all ones, so every site fault counts as active there.
  std::uint64_t site_activation(GateId g, std::uint32_t in) const {
    const RowRef r = row_ref_[g];
    switch (r.width) {
      case 8: return rows8_[r.off + kActivationRowOf[in]];
      case 16: return rows16_[r.off + kActivationRowOf[in]];
      case 32: return rows32_[r.off + kActivationRowOf[in]];
      case 64: return rows64_[r.off + kActivationRowOf[in]];
      default: return ~std::uint64_t{0};
    }
  }
  /// Widest gate that gets activation rows: 3^4 rows per gate.
  static constexpr unsigned kMaxRowPins = 4;

  /// Transition mode: the driver gate feeding fault `id`'s site pin.
  GateId site_driver(std::uint32_t id) const { return site_driver_[id]; }

  /// Transition mode: sorted ids of the faults whose site pin is driven by
  /// gate `d` (for the end-of-frame previous-value sweep).
  std::span<const std::uint32_t> faults_by_driver(GateId d) const {
    return {driver_flat_.data() + driver_off_[d],
            driver_off_[d + 1] - driver_off_[d]};
  }

  /// Bytes held by the model's tables (macro tables included when owned by
  /// the borrowed MacroFaultMap).
  std::size_t bytes() const;

 private:
  // Row number of a packed input index over up to kMaxRowPins pins: pin
  // p's good code (0, X, 1) is the base-3 digit (0, 1, 2) of weight 3^p.
  // Code 1 never occurs in a good state; it reads as X.
  static constexpr std::array<std::uint8_t, 256> kActivationRowOf = [] {
    std::array<std::uint8_t, 256> t{};
    for (unsigned in = 0; in < 256; ++in) {
      unsigned row = 0;
      for (unsigned p = kMaxRowPins; p-- > 0;) {
        const unsigned c = (in >> (2 * p)) & 3u;
        row = row * 3 + (c == 0 ? 0 : c == 3 ? 2 : 1);
      }
      t[in] = static_cast<std::uint8_t>(row);
    }
    return t;
  }();

  // Where a gate's rows live: `width` bits per row (8, 16, 32 or 64; 0 =
  // no rows), 3^k rows from index `off` of the rows vector of that width.
  struct RowRef {
    std::uint32_t off = 0;
    std::uint8_t width = 0;
  };

  void build_activation_rows();

  const Circuit* c_;
  const FaultUniverse* u_;
  const MacroFaultMap* mmap_;
  bool transition_mode_ = false;

  std::vector<FaultDescriptor> descr_;
  // Per-gate fault-id groupings, CSR-flattened: one contiguous id array plus
  // per-gate offsets, so a merge's site scan walks a flat span instead of
  // chasing a vector-of-vectors header (one indirection and one cache line
  // fewer per processed gate).
  std::vector<std::uint32_t> site_off_;    // n+1 offsets into site_flat_
  std::vector<std::uint32_t> site_flat_;   // site fault ids, sorted per gate
  std::vector<GateId> site_driver_;        // transition mode
  std::vector<std::uint32_t> driver_off_;  // n+1 offsets into driver_flat_
  std::vector<std::uint32_t> driver_flat_;
  std::vector<RowRef> row_ref_;  // per gate
  std::vector<std::uint8_t> rows8_;
  std::vector<std::uint16_t> rows16_;
  std::vector<std::uint32_t> rows32_;
  std::vector<std::uint64_t> rows64_;
};

}  // namespace cfs
