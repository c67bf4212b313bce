// Counter registry: the telemetry backbone of the paper's evaluation.
//
// Tables 2-6 of the paper compare engines by *counts* -- fault-list
// elements touched, events scheduled, faults dropped -- not by opaque CPU
// seconds alone.  Every engine owns one `Counters` block (a fixed array of
// uint64_t indexed by the `Counter` enum) and increments it from the hot
// paths through the CFS_COUNT macros.  A build with -DCFS_OBS_ENABLED=0
// (CMake: -DCFS_OBS=OFF) compiles every increment to nothing, so the
// instrumented engine and the bare engine are the same machine code; the
// default build pays one predictable increment per counted event.
//
// Counters come in two determinism classes.  *Fault-level* counters
// (detections, faults dropped) advance exactly once per fault-status
// transition, and every transition happens inside the fault's owner shard,
// so their sums are bit-identical for any shard count.  *Element-level*
// counters (traversals, allocations, migrations) measure work, and work
// depends on which faults share an engine -- a shard re-merges a gate only
// when one of *its* faults changes there -- so their sums are comparable
// but not invariant.  counter_shard_invariant() encodes the class; tests
// and the JSON exporter rely on it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#ifndef CFS_OBS_ENABLED
#define CFS_OBS_ENABLED 1
#endif

namespace cfs::obs {

enum class Counter : unsigned {
  // Element-level (work done; shard-dependent).
  ElementsTraversed,   ///< cursor steps over live fault-list elements
  ElementsCopied,      ///< elements emitted by a multi-list merge
  ElementsAllocated,   ///< pool allocations of fault-list elements
  ElementsFreed,       ///< pool frees (churn, convergence, drops)
  ElementsReused,      ///< surviving elements patched in place by a merge
  ElementsRecycled,    ///< unlinked elements respliced for an insert in the
                       ///< same merge (no pool round trip)
  ListsUnchanged,      ///< in-place list applications that touched nothing
  MergesSkipped,       ///< gate merges skipped: nothing to introduce, no
                       ///< list at the gate, nothing visible on a fanin
  DropUnlinksLazy,     ///< dropped-fault elements unlinked mid-traversal
  DropSkipsEager,      ///< dropped site faults skipped before materialising
  VisToInvMigrations,  ///< visible elements that converged to invisible
  InvToVisMigrations,  ///< invisible elements that re-diverged to visible
  MacroTableLookups,   ///< functional-fault evaluations via a macro table
  TableEvals,          ///< hot-path gate evaluations served by a flat table
  EventsScheduled,     ///< gate ids newly entered into the level queue
  BitmapCoalesced,     ///< schedule() ORs absorbed by an already-set bit
  SentinelHits,        ///< list traversals that reached the shared sentinel
  BatchWordsEvaluated, ///< packed good-machine Word64 gate evaluations
  BatchLanesWasted,    ///< idle lanes across packed good-machine steps
  Rebalances,          ///< dynamic ownership repartitions (driver)
  FaultsMigrated,      ///< faults whose owner shard changed in a repartition
  ElementsMigrated,    ///< live elements carried by migrated faults
  // Fault-level (status transitions; shard-invariant sums).
  DetectionsHard,      ///< faults newly promoted to Detect::Hard
  DetectionsPotential, ///< faults newly promoted to Detect::Potential
  FaultsDropped,       ///< hard detections that armed event-driven dropping
  kCount
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);

constexpr std::string_view counter_name(Counter c) {
  switch (c) {
    case Counter::ElementsTraversed: return "elements_traversed";
    case Counter::ElementsCopied: return "elements_copied";
    case Counter::ElementsAllocated: return "elements_allocated";
    case Counter::ElementsFreed: return "elements_freed";
    case Counter::ElementsReused: return "elements_reused";
    case Counter::ElementsRecycled: return "elements_recycled";
    case Counter::ListsUnchanged: return "lists_unchanged";
    case Counter::MergesSkipped: return "merges_skipped";
    case Counter::DropUnlinksLazy: return "drop_unlinks_lazy";
    case Counter::DropSkipsEager: return "drop_skips_eager";
    case Counter::VisToInvMigrations: return "vis_to_inv_migrations";
    case Counter::InvToVisMigrations: return "inv_to_vis_migrations";
    case Counter::MacroTableLookups: return "macro_table_lookups";
    case Counter::TableEvals: return "table_evals";
    case Counter::EventsScheduled: return "events_scheduled";
    case Counter::BitmapCoalesced: return "bitmap_coalesced";
    case Counter::SentinelHits: return "sentinel_hits";
    case Counter::BatchWordsEvaluated: return "batch_words_evaluated";
    case Counter::BatchLanesWasted: return "batch_lanes_wasted";
    case Counter::Rebalances: return "rebalances";
    case Counter::FaultsMigrated: return "faults_migrated";
    case Counter::ElementsMigrated: return "elements_migrated";
    case Counter::DetectionsHard: return "detections_hard";
    case Counter::DetectionsPotential: return "detections_potential";
    case Counter::FaultsDropped: return "faults_dropped";
    case Counter::kCount: break;
  }
  return "?";
}

/// True for counters whose *sum over shards* is a pure function of the
/// (circuit, universe, test set): one increment per fault-status
/// transition, each owned by exactly one shard.
constexpr bool counter_shard_invariant(Counter c) {
  return c == Counter::DetectionsHard || c == Counter::DetectionsPotential ||
         c == Counter::FaultsDropped;
}

/// One engine's counter block.  Plain aggregate: copy, sum, compare.
struct Counters {
  std::array<std::uint64_t, kNumCounters> v{};

  std::uint64_t get(Counter c) const {
    return v[static_cast<std::size_t>(c)];
  }
  void bump(Counter c, std::uint64_t n = 1) {
    v[static_cast<std::size_t>(c)] += n;
  }
  void merge(const Counters& o) {
    for (std::size_t i = 0; i < kNumCounters; ++i) v[i] += o.v[i];
  }
  void reset() { v.fill(0); }
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (std::uint64_t x : v) t += x;
    return t;
  }
  bool operator==(const Counters&) const = default;
};

}  // namespace cfs::obs

// Hot-path increment macros.  `cs` is a Counters lvalue, `which` an
// unqualified Counter enumerator.
#if CFS_OBS_ENABLED
#define CFS_COUNT(cs, which) (cs).bump(::cfs::obs::Counter::which)
#define CFS_COUNT_N(cs, which, n) (cs).bump(::cfs::obs::Counter::which, (n))
#else
#define CFS_COUNT(cs, which) ((void)0)
#define CFS_COUNT_N(cs, which, n) ((void)0)
#endif
