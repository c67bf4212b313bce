// Two-dimensional parallelism: the BatchPlan pattern grouping, the packed
// multi-word good machine (up to kMaxBatchLanes lanes), and the batched
// sharded driver.
//
// The contract under test is lockstep equivalence: BatchGoodSim must agree
// lane-for-lane with an independent scalar GoodSim trajectory, and
// ShardedSim must produce bit-identical detection status, observation
// streams, and deterministic counters for every --batch x --threads
// combination, on stuck-at, macro, and transition runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/concurrent_sim.h"
#include "gen/circuit_gen.h"
#include "harness/runner.h"
#include "netlist/macro_extract.h"
#include "obs/counters.h"
#include "patterns/batch_plan.h"
#include "patterns/pattern.h"
#include "sim/batch_good_sim.h"
#include "sim/good_sim.h"
#include "sim/sharded_sim.h"
#include "util/dualrail.h"

namespace cfs {
namespace {

Circuit comb_circuit(unsigned gates = 120, std::uint64_t seed = 31) {
  GenProfile gp;
  gp.name = "batch-comb";
  gp.num_pis = 10;
  gp.num_pos = 6;
  gp.num_dffs = 0;
  gp.num_gates = gates;
  gp.seed = seed;
  return generate_circuit(gp);
}

Circuit seq_circuit(unsigned gates = 150, std::uint64_t seed = 77) {
  GenProfile gp;
  gp.name = "batch-seq";
  gp.num_pis = 8;
  gp.num_pos = 5;
  gp.num_dffs = 12;
  gp.num_gates = gates;
  gp.seed = seed;
  return generate_circuit(gp);
}

// A suite of `n` sequences with assorted lengths (including an empty one),
// the shape the sequential batcher has to pack across.
TestSuite multi_seq_suite(std::size_t num_inputs, std::size_t n,
                          std::uint64_t seed, unsigned x_permille = 50) {
  TestSuite t;
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t len = 1 + (s * 7 + 3) % 9;  // 1..9, varied
    t.sequences().push_back(
        PatternSet::random(num_inputs, len, seed + s, x_permille));
  }
  return t;
}

// ---------------------------------------------------------------------------
// BatchPlan
// ---------------------------------------------------------------------------

TEST(BatchPlan, CombinationalPacksVectorsAcrossSequences) {
  const Circuit c = comb_circuit();
  TestSuite t = multi_seq_suite(c.inputs().size(), 5, 11);
  const BatchPlan plan = BatchPlan::build(c, t, 64);
  EXPECT_TRUE(plan.combinational());
  EXPECT_EQ(plan.width(), 64u);
  EXPECT_EQ(plan.total_vectors(), t.total_vectors());

  // Lane-major traversal of the bands must enumerate the suite in order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
  for (const BatchBand& band : plan.bands()) {
    EXPECT_LE(band.lanes.size(), 64u);
    for (const BatchLane& lane : band.lanes) {
      EXPECT_LE(lane.count, 1u);  // one vector per lane in comb mode
      for (std::uint32_t v = 0; v < lane.count; ++v) {
        order.emplace_back(lane.seq, lane.begin + v);
      }
    }
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> want;
  for (std::uint32_t s = 0; s < t.num_sequences(); ++s) {
    for (std::uint32_t v = 0; v < t.sequences()[s].size(); ++v) {
      want.emplace_back(s, v);
    }
  }
  EXPECT_EQ(order, want);
}

TEST(BatchPlan, SequentialPacksWholeSequencesPerLane) {
  const Circuit c = seq_circuit();
  TestSuite t = multi_seq_suite(c.inputs().size(), 7, 23);
  const BatchPlan plan = BatchPlan::build(c, t, 4);
  EXPECT_FALSE(plan.combinational());
  EXPECT_EQ(plan.width(), 4u);
  EXPECT_EQ(plan.total_vectors(), t.total_vectors());

  std::size_t seqs_seen = 0;
  for (const BatchBand& band : plan.bands()) {
    EXPECT_LE(band.lanes.size(), 4u);
    std::uint32_t max_len = 0;
    for (const BatchLane& lane : band.lanes) {
      EXPECT_EQ(lane.begin, 0u);  // a lane is a whole sequence
      EXPECT_EQ(lane.count, t.sequences()[lane.seq].size());
      max_len = std::max(max_len, lane.count);
      EXPECT_EQ(lane.seq, seqs_seen);  // suite order preserved
      ++seqs_seen;
    }
    EXPECT_EQ(band.steps, max_len);
  }
  EXPECT_EQ(seqs_seen, t.num_sequences());
}

TEST(BatchPlan, WidthClampedToMaxLanesAndEmptySequencesKept) {
  const Circuit c = seq_circuit();
  TestSuite t;
  t.sequences().push_back(PatternSet::random(c.inputs().size(), 3, 1));
  t.sequences().push_back(PatternSet(c.inputs().size()));  // empty
  t.sequences().push_back(PatternSet::random(c.inputs().size(), 2, 2));
  const BatchPlan wide = BatchPlan::build(c, t, 1000);
  EXPECT_EQ(wide.width(), kMaxBatchLanes);
  const BatchPlan narrow = BatchPlan::build(c, t, 0);
  EXPECT_EQ(narrow.width(), 1u);

  // The empty sequence must survive as a zero-length lane so replay still
  // issues its reset.
  std::size_t lanes = 0, empties = 0;
  for (const BatchBand& band : wide.bands()) {
    for (const BatchLane& lane : band.lanes) {
      ++lanes;
      empties += lane.count == 0;
    }
  }
  EXPECT_EQ(lanes, 3u);
  EXPECT_EQ(empties, 1u);
}

// ---------------------------------------------------------------------------
// BatchGoodSim lockstep vs scalar GoodSim
// ---------------------------------------------------------------------------

TEST(BatchGoodSim, CombinationalLanesMatchScalarReference) {
  const Circuit c = comb_circuit(200, 5);
  const std::size_t npis = c.inputs().size();
  const PatternSet pats = PatternSet::random(npis, 64, 99, 120);

  BatchGoodSim bsim(c);
  bsim.reset();
  for (std::size_t pi = 0; pi < npis; ++pi) {
    Word64 w;
    for (unsigned lane = 0; lane < 64; ++lane) w_set(w, lane, pats[lane][pi]);
    bsim.set_input(static_cast<unsigned>(pi), w);
  }
  bsim.settle();

  GoodSim ref(c);
  for (unsigned lane = 0; lane < 64; ++lane) {
    ref.reset();
    ref.apply(pats[lane]);
    for (GateId g = 0; g < c.num_gates(); ++g) {
      ASSERT_EQ(w_get(bsim.value(g), lane), ref.value(g))
          << "gate " << g << " lane " << lane;
    }
  }
}

TEST(BatchGoodSim, SequentialLanesTrackIndependentSequences) {
  const Circuit c = seq_circuit(220, 13);
  const std::size_t npis = c.inputs().size();
  constexpr unsigned kLanes = 9;
  constexpr unsigned kSteps = 6;
  std::vector<PatternSet> seqs;
  for (unsigned l = 0; l < kLanes; ++l) {
    seqs.push_back(PatternSet::random(npis, kSteps, 300 + l, 80));
  }

  for (Val ff_init : {Val::X, Val::Zero}) {
    BatchGoodSim bsim(c, ff_init);
    bsim.reset(ff_init);
    std::vector<GoodSim> refs;
    refs.reserve(kLanes);
    for (unsigned l = 0; l < kLanes; ++l) refs.emplace_back(c, ff_init);

    for (unsigned step = 0; step < kSteps; ++step) {
      for (std::size_t pi = 0; pi < npis; ++pi) {
        Word64 w = splat64(Val::X);
        for (unsigned l = 0; l < kLanes; ++l) w_set(w, l, seqs[l][step][pi]);
        bsim.set_input(static_cast<unsigned>(pi), w);
      }
      bsim.settle();
      for (unsigned l = 0; l < kLanes; ++l) {
        refs[l].apply(seqs[l][step]);
        for (GateId g = 0; g < c.num_gates(); ++g) {
          ASSERT_EQ(w_get(bsim.value(g), l), refs[l].value(g))
              << "step " << step << " gate " << g << " lane " << l;
        }
      }
      bsim.clock();
      for (unsigned l = 0; l < kLanes; ++l) refs[l].clock();
    }
  }
}

TEST(BatchGoodSim, MultiWordCombinationalLanesMatchScalarReference) {
  const Circuit c = comb_circuit(200, 5);
  const std::size_t npis = c.inputs().size();
  const PatternSet pats = PatternSet::random(npis, kMaxBatchLanes, 99, 120);

  BatchGoodSim bsim(c, Val::X, kMaxBatchLanes);
  ASSERT_EQ(bsim.words_per_gate(), kMaxBatchWords);
  ASSERT_EQ(bsim.lanes(), kMaxBatchLanes);
  bsim.reset();
  std::vector<Word64> w(bsim.words_per_gate());
  for (std::size_t pi = 0; pi < npis; ++pi) {
    wn_splat(w.data(), kMaxBatchWords, Val::X);
    for (unsigned lane = 0; lane < kMaxBatchLanes; ++lane) {
      wn_set(w.data(), lane, pats[lane][pi]);
    }
    bsim.set_input(static_cast<unsigned>(pi), w.data());
  }
  bsim.settle();

  GoodSim ref(c);
  for (unsigned lane = 0; lane < kMaxBatchLanes; ++lane) {
    ref.reset();
    ref.apply(pats[lane]);
    for (GateId g = 0; g < c.num_gates(); ++g) {
      ASSERT_EQ(wn_get(bsim.value_words(g), lane), ref.value(g))
          << "gate " << g << " lane " << lane;
    }
  }
}

TEST(BatchGoodSim, MultiWordSequentialLanesTrackIndependentSequences) {
  const Circuit c = seq_circuit(220, 13);
  const std::size_t npis = c.inputs().size();
  constexpr unsigned kLanes = 130;  // 3 words, last word partially used
  constexpr unsigned kSteps = 4;
  std::vector<PatternSet> seqs;
  for (unsigned l = 0; l < kLanes; ++l) {
    seqs.push_back(PatternSet::random(npis, kSteps, 300 + l, 80));
  }

  BatchGoodSim bsim(c, Val::Zero, kLanes);
  ASSERT_EQ(bsim.words_per_gate(), 3u);
  bsim.reset(Val::Zero);
  std::vector<GoodSim> refs;
  refs.reserve(kLanes);
  for (unsigned l = 0; l < kLanes; ++l) refs.emplace_back(c, Val::Zero);

  std::vector<Word64> w(bsim.words_per_gate());
  for (unsigned step = 0; step < kSteps; ++step) {
    for (std::size_t pi = 0; pi < npis; ++pi) {
      wn_splat(w.data(), bsim.words_per_gate(), Val::X);
      for (unsigned l = 0; l < kLanes; ++l) wn_set(w.data(), l, seqs[l][step][pi]);
      bsim.set_input(static_cast<unsigned>(pi), w.data());
    }
    bsim.settle();
    for (unsigned l = 0; l < kLanes; ++l) {
      refs[l].apply(seqs[l][step]);
      for (GateId g = 0; g < c.num_gates(); ++g) {
        ASSERT_EQ(wn_get(bsim.value_words(g), l), refs[l].value(g))
            << "step " << step << " gate " << g << " lane " << l;
      }
    }
    bsim.clock();
    for (unsigned l = 0; l < kLanes; ++l) refs[l].clock();
  }
}

#if CFS_OBS_ENABLED
TEST(BatchGoodSim, CountsPackedWordEvaluations) {
  const Circuit c = comb_circuit(80, 3);
  BatchGoodSim bsim(c);
  bsim.reset();
  const obs::Counters& cnt = bsim.counters();
  EXPECT_GT(cnt.get(obs::Counter::BatchWordsEvaluated), 0u);
}
#endif

// ---------------------------------------------------------------------------
// ShardedSim: batch x threads invariance
// ---------------------------------------------------------------------------

struct DetRecord {
  std::vector<Detect> status;
  std::vector<std::tuple<std::uint32_t, std::uint32_t, bool>> observations;
  std::uint64_t hard = 0, potential = 0, dropped = 0;
};

DetRecord run_config(const Circuit& c, const FaultUniverse& u,
                     const TestSuite& t, unsigned threads, unsigned batch,
                     bool split_lists, const MacroFaultMap* mmap = nullptr,
                     bool observe = true) {
  ShardedOptions sopt;
  sopt.num_threads = threads;
  sopt.batch_width = batch;
  sopt.csim.split_lists = split_lists;
  ShardedSim sim(c, u, sopt, mmap);
  DetRecord r;
  if (observe) {
    sim.set_detection_observer(
        [&r](std::uint32_t fault, std::uint32_t po, bool hard) {
          r.observations.emplace_back(fault, po, hard);
        });
  }
  sim.run(t, Val::X);
  r.status = sim.status();
  const obs::Counters& cnt = sim.stats().total.counters;
  r.hard = cnt.get(obs::Counter::DetectionsHard);
  r.potential = cnt.get(obs::Counter::DetectionsPotential);
  r.dropped = cnt.get(obs::Counter::FaultsDropped);
  return r;
}

TEST(ShardedBatch, StuckAtInvariantAcrossBatchAndThreads) {
  const Circuit c = seq_circuit(260, 41);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = multi_seq_suite(c.inputs().size(), 9, 400);

  const DetRecord ref = run_config(c, u, t, 1, 1, true);
  EXPECT_FALSE(ref.observations.empty());
  for (unsigned threads : {1u, 2u}) {
    for (unsigned batch : {8u, 64u, 256u}) {
      const DetRecord got = run_config(c, u, t, threads, batch, true);
      EXPECT_EQ(got.status, ref.status)
          << "threads " << threads << " batch " << batch;
      EXPECT_EQ(got.observations, ref.observations)
          << "threads " << threads << " batch " << batch;
      EXPECT_EQ(got.hard, ref.hard);
      EXPECT_EQ(got.potential, ref.potential);
      EXPECT_EQ(got.dropped, ref.dropped);
    }
  }
}

TEST(ShardedBatch, CombinationalInvariantAcrossBatchAndThreads) {
  const Circuit c = comb_circuit(240, 19);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = multi_seq_suite(c.inputs().size(), 3, 500, 100);

  const DetRecord ref = run_config(c, u, t, 1, 1, true);
  for (unsigned batch : {2u, 8u, 64u, 100u, 256u}) {
    const DetRecord got = run_config(c, u, t, 2, batch, true);
    EXPECT_EQ(got.status, ref.status) << "batch " << batch;
    EXPECT_EQ(got.observations, ref.observations) << "batch " << batch;
  }
}

TEST(ShardedBatch, MacroModeInvariant) {
  const Circuit c = seq_circuit(200, 53);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const MacroExtraction ext = extract_macros(c);
  const MacroFaultMap mmap = map_faults_to_macros(c, ext, u);
  const TestSuite t = multi_seq_suite(c.inputs().size(), 6, 600);

  const DetRecord ref =
      run_config(ext.circuit, u, t, 1, 1, true, &mmap, false);
  for (unsigned batch : {8u, 64u}) {
    const DetRecord got =
        run_config(ext.circuit, u, t, 2, batch, true, &mmap, false);
    EXPECT_EQ(got.status, ref.status) << "batch " << batch;
  }
}

TEST(ShardedBatch, TransitionModeInvariant) {
  const Circuit c = seq_circuit(180, 67);
  const FaultUniverse u = FaultUniverse::all_transition(c);
  const TestSuite t = multi_seq_suite(c.inputs().size(), 6, 700);

  const RunResult ref = run_csim_transition(c, u, t, Val::X);
  for (unsigned threads : {1u, 2u}) {
    for (unsigned batch : {8u, 64u, 256u}) {
      const RunResult got =
          run_csim_transition(c, u, t, Val::X, true, threads, nullptr, batch);
      EXPECT_EQ(got.cov.hard, ref.cov.hard)
          << "threads " << threads << " batch " << batch;
      EXPECT_EQ(got.cov.potential, ref.cov.potential);
      EXPECT_EQ(got.batch, batch);
    }
  }
}

TEST(ShardedBatch, RunnerParityWithSingleEngine) {
  const Circuit c = seq_circuit(160, 83);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = multi_seq_suite(c.inputs().size(), 8, 800);

  const RunResult base = run_csim(c, u, t, CsimVariant::V, Val::X);
  const RunResult batched =
      run_csim(c, u, t, CsimVariant::V, Val::X, true, 2, nullptr, 64);
  EXPECT_EQ(batched.cov.hard, base.cov.hard);
  EXPECT_EQ(batched.cov.potential, base.cov.potential);
  EXPECT_EQ(batched.cov.total, base.cov.total);
  EXPECT_EQ(batched.batch, 64u);
  EXPECT_EQ(base.batch, 1u);
#if CFS_OBS_ENABLED
  // The packed good machine actually ran: driver-side telemetry is present.
  EXPECT_GT(batched.stats.total.counters.get(
                obs::Counter::BatchWordsEvaluated),
            0u);
#endif
}

}  // namespace
}  // namespace cfs
