#include "faults/partition.h"

#include <string>
#include <utility>

#include "util/error.h"

namespace cfs {

FaultPartition::FaultPartition(std::size_t num_faults, unsigned num_shards,
                               std::vector<std::uint32_t> order)
    : num_faults_(num_faults),
      num_shards_(num_shards == 0 ? 1 : num_shards),
      order_(std::move(order)),
      shards_(num_shards_),
      owner_(num_faults, 0) {
  if (!order_.empty()) {
    // n distinct in-range ids are a permutation.
    std::vector<std::uint8_t> seen(num_faults_, 0);
    bool ok = order_.size() == num_faults_;
    for (std::size_t i = 0; ok && i < order_.size(); ++i) {
      ok = order_[i] < num_faults_ && seen[order_[i]]++ == 0;
    }
    if (!ok) {
      throw Error("FaultPartition: the fault order is not a permutation of "
                  "the universe");
    }
  }
  cut(nullptr);
}

std::size_t FaultPartition::partition_by_weight(
    const std::vector<std::uint64_t>& weights) {
  if (weights.size() != num_faults_) {
    throw Error("FaultPartition::partition_by_weight: expected " +
                std::to_string(num_faults_) + " weights, got " +
                std::to_string(weights.size()));
  }
  return cut(&weights);
}

std::size_t FaultPartition::cut(const std::vector<std::uint64_t>* weights) {
  // 128-bit arithmetic: K * (2 * prefix + w) and K * 2 * total must not
  // wrap for any weight vector a caller can hand in.
  using Wide = unsigned __int128;
  Wide total = 0;
  if (weights != nullptr) {
    for (const std::uint64_t w : *weights) total += w;
  }
  if (total == 0) {
    weights = nullptr;  // nothing to balance: split the count evenly
    total = num_faults_;
  }
  const Wide k = num_shards_;
  Wide prefix = 0;
  std::uint32_t shard = 0;
  std::size_t moved = 0;
  for (std::size_t i = 0; i < num_faults_; ++i) {
    const std::uint32_t id =
        order_.empty() ? static_cast<std::uint32_t>(i) : order_[i];
    const std::uint64_t w = weights == nullptr ? 1 : (*weights)[id];
    // The shard the fault's midpoint falls in, floor(K * mid / W).  Twice
    // the midpoint never decreases along the order, so the shard index
    // only steps forward; the last shard also takes a zero-weight tail
    // whose midpoint sits on W itself.
    const Wide mid2 = 2 * prefix + w;
    while (shard + 1 < num_shards_ && k * mid2 >= (shard + 1) * 2 * total) {
      ++shard;
    }
    prefix += w;
    if (owner_[id] != shard) {
      owner_[id] = shard;
      ++moved;
    }
  }
  for (auto& s : shards_) s.clear();
  for (std::uint32_t id = 0; id < num_faults_; ++id) {
    shards_[owner_[id]].push_back(id);  // ascending id: shard() stays sorted
  }
  return moved;
}

std::vector<Detect> FaultPartition::merge(
    const std::vector<const std::vector<Detect>*>& per_shard) const {
  if (per_shard.size() != num_shards_) {
    throw Error("FaultPartition::merge: expected " +
                std::to_string(num_shards_) + " shard arrays, got " +
                std::to_string(per_shard.size()));
  }
  for (const auto* s : per_shard) {
    if (s == nullptr || s->size() != num_faults_) {
      throw Error("FaultPartition::merge: shard array does not cover the "
                  "universe");
    }
  }
  std::vector<Detect> out(num_faults_);
  for (std::uint32_t id = 0; id < num_faults_; ++id) {
    out[id] = (*per_shard[shard_of(id)])[id];
  }
  return out;
}

}  // namespace cfs
