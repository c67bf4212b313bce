// Dynamic shard rebalancing: pins and load bound of the contiguous weighted
// re-cut, the partition-invariance of live-element weights, bit-identical
// results across threads x batch x rebalance policy (status, detection
// order, deterministic counters, campaign digest), checkpoint/resume
// composition, and the rebalance telemetry (SimStats, timeline samples).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "core/concurrent_sim.h"
#include "faults/partition.h"
#include "gen/iscas_profiles.h"
#include "patterns/pattern.h"
#include "obs/timeline.h"
#include "resil/campaign.h"
#include "sim/sharded_sim.h"
#include "util/error.h"

namespace cfs {
namespace {

using resil::CampaignOptions;
using resil::CampaignResult;
using resil::CampaignRunner;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

RebalancePolicy every_n(std::uint64_t n) {
  RebalancePolicy rp;
  rp.mode = RebalancePolicy::Mode::Every;
  rp.every = n;
  return rp;
}

RebalancePolicy auto_policy(double threshold, std::uint64_t cooldown) {
  RebalancePolicy rp;
  rp.mode = RebalancePolicy::Mode::Auto;
  rp.threshold = threshold;
  rp.cooldown = cooldown;
  return rp;
}

// ---------------------------------------------------------------------------
// FaultPartition: re-cutting the order by weight
// ---------------------------------------------------------------------------

TEST(WeightedPartition, ContiguousCutIsDeterministicAndPinned) {
  FaultPartition p(6, 2);
  // The initial split cuts the ascending-id order in half.
  const std::vector<std::uint32_t> half0 = {0, 1, 2};
  EXPECT_EQ(p.shard(0), half0);
  const std::vector<std::uint64_t> w = {10, 30, 20, 20, 5, 15};
  // Total 100: a fault belongs to shard 0 when its weight midpoint lies
  // below 50.  Midpoints in order: 5, 25 | 50, 70, 82.5, 92.5.
  //   s0 = {0, 1} (load 40)   s1 = {2, 3, 4, 5} (load 60)
  const std::size_t moved = p.partition_by_weight(w);
  const std::vector<std::uint32_t> want_s0 = {0, 1};
  const std::vector<std::uint32_t> want_s1 = {2, 3, 4, 5};
  EXPECT_EQ(p.shard(0), want_s0);
  EXPECT_EQ(p.shard(1), want_s1);
  // Only fault 2, whose midpoint sits on the cut, changed owner.
  EXPECT_EQ(moved, 1u);
  // Re-cutting the same weights is a fixed point: nothing moves.
  EXPECT_EQ(p.partition_by_weight(w), 0u);
  EXPECT_EQ(p.shard(0), want_s0);
  EXPECT_EQ(p.shard(1), want_s1);
}

TEST(WeightedPartition, CutFollowsTheGivenOrder) {
  // Order positions 0..5 hold ids 5, 3, 1, 0, 2, 4.  Two per shard:
  FaultPartition p(6, 3, {5, 3, 1, 0, 2, 4});
  EXPECT_EQ(p.shard(0), (std::vector<std::uint32_t>{3, 5}));
  EXPECT_EQ(p.shard(1), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(p.shard(2), (std::vector<std::uint32_t>{2, 4}));
  // Weights in order: 0, 6, 0, 4, 2, 0 (total 12, cuts at 4 and 8).
  // Midpoints: 0, 3 | 6 | 8, 11, 12 -- the trailing zero-weight fault sits
  // on the far end and stays in the last shard.
  std::vector<std::uint64_t> w(6, 0);
  w[3] = 6;
  w[0] = 4;
  w[2] = 2;
  EXPECT_EQ(p.partition_by_weight(w), 1u);  // fault 0: shard 1 -> 2
  EXPECT_EQ(p.shard(0), (std::vector<std::uint32_t>{3, 5}));
  EXPECT_EQ(p.shard(1), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(p.shard(2), (std::vector<std::uint32_t>{0, 2, 4}));
}

TEST(WeightedPartition, RejectsAnOrderThatIsNotAPermutation) {
  EXPECT_THROW(FaultPartition(4, 2, {0, 1, 2}), Error);
  EXPECT_THROW(FaultPartition(4, 2, {0, 1, 1, 3}), Error);
  EXPECT_THROW(FaultPartition(4, 2, {0, 1, 2, 4}), Error);
}

TEST(WeightedPartition, CoverStaysDisjointSortedAndSized) {
  const std::size_t nf = 257;
  FaultPartition p(nf, 4);
  std::vector<std::uint64_t> w(nf);
  for (std::size_t i = 0; i < nf; ++i) w[i] = (i * 37) % 19;
  p.partition_by_weight(w);
  std::vector<unsigned> seen(nf, 0);
  std::size_t total = 0;
  for (unsigned s = 0; s < p.num_shards(); ++s) {
    EXPECT_EQ(p.shard_size(s), p.shard(s).size());
    total += p.shard_size(s);
    std::uint32_t prev = 0;
    bool first = true;
    for (std::uint32_t id : p.shard(s)) {
      EXPECT_EQ(p.shard_of(id), s);
      if (!first) {
        EXPECT_LT(prev, id);  // ascending => sorted, unique
      }
      prev = id;
      first = false;
      ++seen[id];
    }
  }
  EXPECT_EQ(total, nf);
  for (std::size_t i = 0; i < nf; ++i) EXPECT_EQ(seen[i], 1u) << "fault " << i;
}

TEST(WeightedPartition, BalancesLoadsWithinCutBound) {
  const std::size_t nf = 400;
  // A scrambled order, as the site order is relative to fault ids.
  std::vector<std::uint32_t> order(nf);
  for (std::size_t i = 0; i < nf; ++i) {
    order[i] = static_cast<std::uint32_t>((i * 263) % nf);
  }
  std::vector<std::uint64_t> w(nf);
  std::uint64_t sum = 0, largest = 0;
  for (std::size_t i = 0; i < nf; ++i) {
    w[i] = (i * 7919) % 97;  // includes zero weights
    sum += w[i];
    largest = std::max(largest, w[i]);
  }
  for (unsigned k : {2u, 3u, 4u, 7u}) {
    FaultPartition p(nf, k, order);
    p.partition_by_weight(w);
    std::uint64_t heaviest = 0;
    for (unsigned s = 0; s < k; ++s) {
      std::uint64_t load = 0;
      for (std::uint32_t id : p.shard(s)) load += w[id];
      heaviest = std::max(heaviest, load);
    }
    // Each shard holds the faults whose midpoints fall in its 1/K of the
    // total, so it overshoots by at most half a weight at either end.
    EXPECT_LE(k * heaviest, sum + k * largest) << k << " shards";
    // Each shard is one contiguous run of the order.
    for (std::size_t i = 1; i < nf; ++i) {
      EXPECT_LE(p.shard_of(order[i - 1]), p.shard_of(order[i]))
          << k << " shards, position " << i;
    }
    // Unchanged weights: the re-cut is a fixed point.
    EXPECT_EQ(p.partition_by_weight(w), 0u) << k << " shards";
  }
}

TEST(WeightedPartition, ZeroTotalWeightSplitsTheCountEvenly) {
  const std::vector<std::uint32_t> order = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  const FaultPartition fresh(10, 3, order);
  FaultPartition p(10, 3, order);
  std::vector<std::uint64_t> w(10, 0);
  w[9] = 50;  // everything else on the last shard
  ASSERT_GT(p.partition_by_weight(w), 0u);
  EXPECT_GT(p.partition_by_weight(std::vector<std::uint64_t>(10, 0)), 0u);
  for (unsigned s = 0; s < 3; ++s) {
    EXPECT_EQ(p.shard(s), fresh.shard(s)) << "shard " << s;
  }
  EXPECT_EQ(p.shard(0), (std::vector<std::uint32_t>{7, 8, 9}));
  EXPECT_EQ(p.shard(1), (std::vector<std::uint32_t>{3, 4, 5, 6}));
  EXPECT_EQ(p.shard(2), (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(WeightedPartition, MergeReadsOwnerShardAfterRepartition) {
  FaultPartition p(6, 2);
  ASSERT_EQ(p.partition_by_weight({10, 30, 20, 20, 5, 15}), 1u);
  // Owner shard says Hard; the foreign shard disagrees on every fault.
  std::vector<Detect> a(6, Detect::None), b(6, Detect::None);
  for (std::uint32_t id = 0; id < 6; ++id) {
    (p.shard_of(id) == 0 ? a : b)[id] = Detect::Hard;
  }
  const std::vector<Detect> m = p.merge({&a, &b});
  for (std::uint32_t id = 0; id < 6; ++id) {
    EXPECT_EQ(m[id], Detect::Hard) << "fault " << id;
  }
}

TEST(WeightedPartition, RejectsWrongWeightCount) {
  FaultPartition p(8, 2);
  EXPECT_THROW(p.partition_by_weight(std::vector<std::uint64_t>(7, 1)),
               Error);
}

// ---------------------------------------------------------------------------
// Live-element weights and the in-run repartition
// ---------------------------------------------------------------------------

TEST(LiveWeights, AccumulationIsPartitionInvariant) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 24, 3);

  ShardedOptions one;
  one.num_threads = 1;
  ShardedSim single(c, u, one);
  ShardedOptions four;
  four.num_threads = 4;
  ShardedSim quad(c, u, four);
  for (std::size_t i = 0; i < p.size(); ++i) {
    single.apply_vector(p[i]);
    quad.apply_vector(p[i]);
  }
  std::vector<std::uint64_t> w1(u.size(), 0), w4(u.size(), 0);
  single.engine(0).accumulate_live_weights(w1);
  for (unsigned s = 0; s < quad.num_shards(); ++s) {
    quad.engine(s).accumulate_live_weights(w4);
  }
  // A fault's live-element count is a pure function of the good machine
  // and its own divergences -- which shard simulates it is irrelevant.
  EXPECT_EQ(w1, w4);
}

// The auto trigger measures the load the re-cut equalizes: per shard, the
// summed cut weight -- a fault's live elements, floored at 1 while it is
// live -- not the shard's pool population.
TEST(LiveWeights, ImbalanceRatioMeasuresTheCutWeight) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 24, 3);

  ShardedOptions four;
  four.num_threads = 4;
  ShardedSim sim(c, u, four);
  for (std::size_t i = 0; i < p.size(); ++i) sim.apply_vector(p[i]);

  std::vector<std::uint64_t> w(u.size(), 0);
  for (unsigned s = 0; s < sim.num_shards(); ++s) {
    sim.engine(s).accumulate_live_weights(w);
  }
  const std::vector<Detect>& st = sim.status();
  std::vector<std::uint64_t> load(sim.num_shards(), 0);
  for (std::uint32_t id = 0; id < u.size(); ++id) {
    const std::uint64_t weight =
        st[id] == Detect::Hard ? w[id] : std::max<std::uint64_t>(w[id], 1);
    load[sim.partition().shard_of(id)] += weight;
  }
  std::uint64_t total = 0, heaviest = 0;
  for (const std::uint64_t l : load) {
    total += l;
    heaviest = std::max(heaviest, l);
  }
  ASSERT_GT(total, 0u);
  EXPECT_DOUBLE_EQ(sim.imbalance_ratio(),
                   static_cast<double>(heaviest) * sim.num_shards() /
                       static_cast<double>(total));
}

TEST(Rebalance, ExplicitRepartitionKeepsEnginesValidAndBitIdentical) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 48, 5);

  ShardedOptions ref_opt;
  ref_opt.num_threads = 4;
  ShardedSim ref(c, u, ref_opt);
  ShardedSim sim(c, u, ref_opt);
  for (std::size_t i = 0; i < p.size(); ++i) {
    ref.apply_vector(p[i]);
    sim.apply_vector(p[i]);
    if (i == 15 || i == 31) {
      const std::size_t moved = sim.rebalance_now();
      EXPECT_GT(moved, 0u) << "vector " << i;
      // shard_size hints fed Pool::reserve for the new slices; the
      // repartitioned engines must still pass the deep structural check
      // once the next vector settles them.
      sim.apply_vector(p[++i]);
      ref.apply_vector(p[i]);
      for (unsigned s = 0; s < sim.num_shards(); ++s) {
        sim.engine(s).validate();
      }
    }
  }
  EXPECT_EQ(sim.status(), ref.status());
  EXPECT_EQ(sim.rebalances(), 2u);
  EXPECT_GT(sim.faults_migrated(), 0u);
  // The repartition just balanced live elements; the ratio right after it
  // must not exceed the static partition's by more than rounding noise.
  EXPECT_GE(sim.imbalance_ratio(), 1.0);
  EXPECT_EQ(ref.rebalances(), 0u);
}

TEST(Rebalance, SingleShardIsANoOp) {
  const Circuit c = make_benchmark("s27");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  ShardedOptions so;
  so.num_threads = 1;
  so.rebalance = every_n(1);
  ShardedSim sim(c, u, so);
  const PatternSet p = PatternSet::random(c.inputs().size(), 8, 2);
  for (std::size_t i = 0; i < p.size(); ++i) sim.apply_vector(p[i]);
  EXPECT_EQ(sim.rebalances(), 0u);
  EXPECT_EQ(sim.rebalance_now(), 0u);
}

// ---------------------------------------------------------------------------
// threads x batch x rebalance grid: everything deterministic is invariant
// ---------------------------------------------------------------------------

struct GridResult {
  std::vector<Detect> status;
  std::vector<std::tuple<std::uint32_t, std::uint32_t, bool>> observations;
  std::uint64_t hard = 0, potential = 0, dropped = 0;
};

GridResult run_grid_point(const Circuit& c, const FaultUniverse& u,
                          const TestSuite& t, unsigned threads,
                          unsigned batch, const RebalancePolicy& rp) {
  ShardedOptions so;
  so.num_threads = threads;
  so.batch_width = batch;
  so.rebalance = rp;
  ShardedSim sim(c, u, so);
  GridResult g;
  sim.set_detection_observer(
      [&g](std::uint32_t fault, std::uint32_t po, bool hard) {
        g.observations.emplace_back(fault, po, hard);
      });
  sim.run(t, Val::X);
  g.status = sim.status();
  const SimStats st = sim.stats();
  g.hard = st.total.counters.get(obs::Counter::DetectionsHard);
  g.potential = st.total.counters.get(obs::Counter::DetectionsPotential);
  g.dropped = st.total.counters.get(obs::Counter::FaultsDropped);
  return g;
}

TEST(RebalanceGrid, StatusOrderAndCountersInvariant) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  TestSuite t;
  t.sequences().push_back(PatternSet::random(c.inputs().size(), 40, 9));
  t.sequences().push_back(PatternSet::random(c.inputs().size(), 24, 10));

  const GridResult ref =
      run_grid_point(c, u, t, 1, 1, RebalancePolicy{});
  // Coverage from the status vector, not the counters: the suite must
  // actually detect something even in OBS-off builds where the counter
  // registry (and with it GridResult's hard/potential/dropped, compared
  // below as all-zeros) is compiled out.
  ASSERT_GT(summarize(ref.status).hard, 0u);
  ASSERT_FALSE(ref.observations.empty());
  const RebalancePolicy policies[] = {RebalancePolicy{},
                                      auto_policy(1.05, 2), every_n(3)};
  for (unsigned threads : {1u, 2u, 4u}) {
    for (unsigned batch : {1u, 64u}) {
      for (const RebalancePolicy& rp : policies) {
        const GridResult g = run_grid_point(c, u, t, threads, batch, rp);
        const std::string at = "threads=" + std::to_string(threads) +
                               " batch=" + std::to_string(batch) + " mode=" +
                               std::to_string(static_cast<int>(rp.mode));
        EXPECT_EQ(g.status, ref.status) << at;
        EXPECT_EQ(g.observations, ref.observations) << at;
        EXPECT_EQ(g.hard, ref.hard) << at;
        EXPECT_EQ(g.potential, ref.potential) << at;
        EXPECT_EQ(g.dropped, ref.dropped) << at;
      }
    }
  }
}

TEST(RebalanceGrid, TransitionModeStatusInvariant) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_transition(c);
  TestSuite t;
  t.sequences().push_back(PatternSet::random(c.inputs().size(), 32, 13));

  ShardedOptions base;
  base.num_threads = 1;
  ShardedSim ref(c, u, base);
  ref.run(t, Val::X);

  ShardedOptions so;
  so.num_threads = 4;
  so.rebalance = every_n(5);
  ShardedSim sim(c, u, so);
  sim.run(t, Val::X);
  EXPECT_GT(sim.rebalances(), 0u);
  EXPECT_EQ(sim.status(), ref.status());
}

// ---------------------------------------------------------------------------
// Campaign composition: digest invariance, checkpoint/resume
// ---------------------------------------------------------------------------

// Re-cuts move faults between engines mid-run, so each input runs at
// several shards under two policies against its 1-shard campaign.  The
// transition input re-cuts at every 4-vector checkpoint segment: a newly
// owned fault's previous pin value must follow it into the new shard's
// end-of-vector sweep, or the later frames read a stale value.
TEST(RebalanceCampaign, DigestInvariantAcrossPolicies) {
  struct Input {
    const char* circuit;
    bool transition;
    unsigned threads;
    std::size_t vectors;
    std::uint64_t seed;
    std::uint64_t checkpoint_every;
    Val ff_init;
  };
  for (const Input& in : {Input{"s298", false, 2, 48, 21, 0, Val::X},
                          Input{"s1494", true, 4, 256, 9, 4, Val::Zero}}) {
    SCOPED_TRACE(in.circuit);
    const Circuit c = make_benchmark(in.circuit);
    const FaultUniverse u = in.transition ? FaultUniverse::all_transition(c)
                                          : FaultUniverse::all_stuck_at(c);
    TestSuite t;
    t.sequences().push_back(
        PatternSet::random(c.inputs().size(), in.vectors, in.seed));

    CampaignOptions one;
    one.ff_init = in.ff_init;
    const CampaignResult base = CampaignRunner(c, u, t, one).run();
    ASSERT_GT(base.detections_hard, 0u);

    const std::string ck = tmp_path("rebalance_policies.ck");
    for (const RebalancePolicy& rp : {auto_policy(1.0, 1), every_n(4)}) {
      CampaignOptions co = one;
      co.sharded.num_threads = in.threads;
      co.sharded.rebalance = rp;
      if (in.checkpoint_every != 0) {
        co.checkpoint_path = ck;
        co.checkpoint_every = in.checkpoint_every;
      }
      const CampaignResult r = CampaignRunner(c, u, t, co).run();
      EXPECT_EQ(r.digest(), base.digest());
      EXPECT_EQ(r.status, base.status);
      EXPECT_EQ(r.detected_at, base.detected_at);
      EXPECT_EQ(r.detections_hard, base.detections_hard);
      EXPECT_GT(r.rebalances, 0u);
    }
    std::remove(ck.c_str());
  }
}

// Campaigns consult the policy once per segment, and Every fires at the
// first segment end at least `every` vectors after the last re-cut: a
// 97-vector sequence is one segment without checkpoints (one re-cut, where
// a vector-count modulo would never fire), and 14 segments with a
// checkpoint every 7.
TEST(RebalanceCampaign, EveryFiresAtSegmentEnds) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  TestSuite t;
  t.sequences().push_back(PatternSet::random(c.inputs().size(), 97, 23));

  CampaignOptions co;
  co.sharded.num_threads = 2;
  co.sharded.rebalance = every_n(3);
  const CampaignResult one = CampaignRunner(c, u, t, co).run();
  EXPECT_EQ(one.rebalances, 1u);

  const std::string ck = tmp_path("rebalance_segments.ck");
  co.checkpoint_path = ck;
  co.checkpoint_every = 7;
  const CampaignResult many = CampaignRunner(c, u, t, co).run();
  EXPECT_EQ(many.rebalances, 14u);
  EXPECT_EQ(many.digest(), one.digest());
  std::remove(ck.c_str());
}

TEST(RebalanceCampaign, CheckpointBetweenRebalancesResumesBitIdentical) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  TestSuite t;
  t.sequences().push_back(PatternSet::random(c.inputs().size(), 56, 22));

  CampaignOptions off;
  off.sharded.num_threads = 2;
  const CampaignResult full = CampaignRunner(c, u, t, off).run();

  // Rebalance every 3 vectors, checkpoint every 7: the halt at vector 26
  // lands between a rebalance (24) and the next checkpoint (28), so the
  // resume restores a snapshot whose partition history differs from what
  // the resumed simulator (fresh equal-count split) starts with.
  const std::string ck = tmp_path("rebalance_resume.ck");
  CampaignOptions first;
  first.sharded.num_threads = 2;
  first.sharded.rebalance = every_n(3);
  first.checkpoint_path = ck;
  first.checkpoint_every = 7;
  first.halt_after = 26;
  const CampaignResult halted = CampaignRunner(c, u, t, first).run();
  ASSERT_TRUE(halted.halted);
  ASSERT_GT(halted.rebalances, 0u);

  CampaignOptions second;
  second.sharded.num_threads = 4;  // resume with a different shard count too
  second.sharded.rebalance = auto_policy(1.1, 2);
  second.resume_path = ck;
  const CampaignResult tail = CampaignRunner(c, u, t, second).run();
  EXPECT_EQ(tail.digest(), full.digest());
  std::remove(ck.c_str());
}

// ---------------------------------------------------------------------------
// Telemetry: SimStats fields, counters, timeline samples
// ---------------------------------------------------------------------------

TEST(RebalanceTelemetry, StatsAndTimelineCarryRebalances) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  TestSuite t;
  t.sequences().push_back(PatternSet::random(c.inputs().size(), 24, 31));

  ShardedOptions so;
  so.num_threads = 4;
  so.rebalance = every_n(4);
  ShardedSim sim(c, u, so);
  obs::Timeline timeline(64, 1);
  sim.set_timeline(&timeline);
  sim.run(t, Val::X);

  const SimStats st = sim.stats();
  EXPECT_EQ(st.rebalances, sim.rebalances());
  EXPECT_GT(st.rebalances, 0u);
  EXPECT_GT(st.faults_migrated, 0u);
  EXPECT_EQ(st.total.counters.get(obs::Counter::Rebalances),
            CFS_OBS_ENABLED ? st.rebalances : 0u);

  // The work section carries the cumulative repartition count: it is
  // non-decreasing and ends at the driver's total.
  ASSERT_GT(timeline.size(), 0u);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    EXPECT_GE(timeline.at(i).rebalances, prev);
    prev = timeline.at(i).rebalances;
  }
  // The last sample precedes the final vector's rebalance check, so it
  // trails by at most one repartition.
  EXPECT_GE(prev + 1, st.rebalances);
}

TEST(RebalanceTelemetry, OffPolicyReportsZeros) {
  const Circuit c = make_benchmark("s27");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  ShardedOptions so;
  so.num_threads = 2;
  ShardedSim sim(c, u, so);
  const PatternSet p = PatternSet::random(c.inputs().size(), 12, 1);
  for (std::size_t i = 0; i < p.size(); ++i) sim.apply_vector(p[i]);
  const SimStats st = sim.stats();
  EXPECT_EQ(st.rebalances, 0u);
  EXPECT_EQ(st.faults_migrated, 0u);
  EXPECT_EQ(st.elements_migrated, 0u);
}

}  // namespace
}  // namespace cfs
