// Balanced partition of a fault universe into disjoint shards.
//
// Once the good machine is fixed, every faulty machine is independent: the
// concurrent simulator's verdict for a fault does not depend on which other
// faults share its engine.  Any disjoint cover of the universe is therefore
// a correct unit of parallelism, and the partition is free to serve speed.
//
// One rule places every fault: a shard is a contiguous run of a fixed fault
// *order*, cut at equal weight.  The initial split weighs each fault 1, so
// shard sizes differ by at most one; partition_by_weight() re-cuts the same
// order by caller-supplied per-fault weights (live fault-list elements in
// practice), so a repartition moves only faults near the cuts.  Both cuts
// are pure functions of (order, weights, shard count), so a sharded run is
// reproducible without storing the partition.
//
// The order is the caller's choice; ShardedSim passes the *site order*
// (fault ids grouped by site gate, gates by level then id, masked faults
// last).  Keeping a gate's site faults in one shard is what lets the other
// shards skip that gate's merge outright (DESIGN.md section 18); a split
// that spreads a site's faults over the shards makes every shard merge at
// every event there.
#pragma once

#include <cstdint>
#include <vector>

#include "faults/fault.h"

namespace cfs {

class FaultPartition {
 public:
  /// Split fault ids [0, num_faults) into `num_shards` contiguous runs of
  /// `order`, each fault weighing 1.  `order` is a permutation of the ids;
  /// empty means ascending id.  `num_shards` is clamped to at least 1.
  /// Throws cfs::Error if `order` is not a permutation of the universe.
  FaultPartition(std::size_t num_faults, unsigned num_shards,
                 std::vector<std::uint32_t> order = {});

  unsigned num_shards() const { return num_shards_; }
  std::size_t num_faults() const { return num_faults_; }

  /// Shard owning fault `id`.
  unsigned shard_of(std::uint32_t id) const { return owner_[id]; }

  /// Sorted fault ids owned by shard `s`.
  const std::vector<std::uint32_t>& shard(unsigned s) const {
    return shards_[s];
  }

  /// Faults owned by shard `s` (the per-shard universe size; used to size
  /// element pools before the first vector runs and again after each
  /// repartition).
  std::size_t shard_size(unsigned s) const { return shards_[s].size(); }

  /// Re-cut the order at equal `weights` (one non-negative weight per
  /// fault; size must equal num_faults(), throws otherwise).  The fault at
  /// order position i, with weight w_i after a prefix of weight P_i out of
  /// a total W, goes to shard floor(K * (P_i + w_i / 2) / W): its midpoint
  /// picks the shard, so the heaviest shard carries at most W / K plus the
  /// largest single weight.  A zero total falls back to the equal-count
  /// split.  Returns the number of faults whose owner changed.
  std::size_t partition_by_weight(const std::vector<std::uint64_t>& weights);

  /// Deterministic merge of shard-local detection arrays: each fault's
  /// status is read from its owner shard, so the result is independent of
  /// thread scheduling.  Every array must cover the full universe (size
  /// num_faults()); throws otherwise.
  std::vector<Detect> merge(
      const std::vector<const std::vector<Detect>*>& per_shard) const;

 private:
  // Assign owners by cutting the order at equal weight (null: every fault
  // weighs 1) and rebuild the sorted per-shard lists.  Returns the number
  // of faults whose owner changed.
  std::size_t cut(const std::vector<std::uint64_t>* weights);

  std::size_t num_faults_;
  unsigned num_shards_;
  std::vector<std::uint32_t> order_;  // empty: ascending id
  std::vector<std::vector<std::uint32_t>> shards_;
  std::vector<std::uint32_t> owner_;  // per-fault owner shard
};

}  // namespace cfs
