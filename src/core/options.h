// Configuration switches for the concurrent fault simulator.
//
// The paper evaluates four variants built from two independent switches:
//   csim    : neither improvement
//   csim-V  : split visible/invisible fault lists
//   csim-M  : macro extraction (selected by constructing the engine over a
//             macro-extracted circuit with a MacroFaultMap)
//   csim-MV : both
// plus event-driven fault dropping, which all variants use (we expose it as
// a switch for the ablation bench).
#pragma once

#include <cstddef>

namespace cfs {

struct CsimOptions {
  /// Keep visible and invisible fault elements on separate lists so fanout
  /// processing never examines invisible faults (paper §2.2, the "V" in
  /// csim-V).
  bool split_lists = true;

  /// Event-driven fault dropping: hard-detected faults are purged lazily
  /// whenever a list containing them is traversed (paper §2.2).
  bool drop_detected = true;

  /// Naive reference path: tear down and rebuild every destination list on
  /// each merge instead of updating it in place, never skip a merge, and
  /// evaluate every site fault of a merged gate instead of only those its
  /// activation rows mark.  Slower by construction -- kept as the oracle
  /// for the differential merge tests.
  bool rebuild_lists = false;

  /// Oracle evaluation path: fold over pins with eval_kind instead of the
  /// flat per-(kind, arity) lookup tables.  Slower by construction -- kept
  /// as the reference semantics for the table-vs-fold differential tests;
  /// outputs are bit-identical either way.
  bool fold_eval = false;

  /// Compact the element pool on reset(): forget the scrambled free list
  /// and rebuild every fault list contiguously in traversal order.  Useful
  /// between test sequences to restore list-order locality.
  bool compact_pool = false;

  /// Element-pool pre-size hint (elements).  0 sizes the pool from the
  /// engine's owned-fault count; ShardedSim threads per-shard universe
  /// sizes through here.
  std::size_t reserve_elements = 0;

  /// Hard ceiling on live fault-list elements (the paper's dominant MEM
  /// term).  0 = unlimited.  When set, the engine's pool throws
  /// cfs::PoolBudgetError instead of growing past the budget; the campaign
  /// runner (resil/campaign.h) catches it and degrades to multi-pass
  /// simulation over a suspended remainder of the fault universe.
  std::size_t max_elements = 0;
};

}  // namespace cfs
