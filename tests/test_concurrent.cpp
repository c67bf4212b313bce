// Concurrent fault simulator: behavioural unit tests on small circuits
// where detections can be reasoned about by hand, consistency between the
// four paper variants, the one-settle vector loop (a clock's captured
// masters stay pending until the next vector) across API boundaries, and
// the empty-gate merge skip's bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <tuple>

#include "baseline/serial_sim.h"
#include "core/concurrent_sim.h"
#include "faults/macro_map.h"
#include "gen/iscas_profiles.h"
#include "gen/known_circuits.h"
#include "netlist/builder.h"
#include "netlist/macro_extract.h"
#include "patterns/pattern.h"
#include "sim/sharded_sim.h"
#include "util/error.h"

namespace cfs {
namespace {

std::vector<Val> bits(std::initializer_list<int> v) {
  std::vector<Val> out;
  for (int b : v) out.push_back(b ? Val::One : Val::Zero);
  return out;
}

std::uint32_t fault_id(const Circuit& c, const FaultUniverse& u,
                       const std::string& gate, std::uint16_t pin, Val v) {
  const GateId g = c.find(gate);
  for (std::uint32_t i = 0; i < u.size(); ++i) {
    if (u[i].gate == g && u[i].pin == pin && u[i].value == v) return i;
  }
  ADD_FAILURE() << "no such fault " << gate;
  return 0;
}

TEST(Concurrent, DetectsOutputStuckOnBuffer) {
  Builder b("wire");
  b.add_input("a");
  b.add_gate(GateKind::Buf, "y", {"a"});
  b.mark_output("y");
  const Circuit c = b.build();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  ConcurrentSim sim(c, u);
  sim.apply_vector(bits({1}));  // detects all s-a-0 on the path
  const auto sa0 = fault_id(c, u, "y", kFaultOutPin, Val::Zero);
  const auto sa1 = fault_id(c, u, "y", kFaultOutPin, Val::One);
  EXPECT_EQ(sim.status()[sa0], Detect::Hard);
  EXPECT_EQ(sim.status()[sa1], Detect::None);
  sim.apply_vector(bits({0}));
  EXPECT_EQ(sim.status()[sa1], Detect::Hard);
}

TEST(Concurrent, VisibleListTracksDivergence) {
  Builder b("and2");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateKind::And, "y", {"a", "c"});
  b.mark_output("y");
  const Circuit c = b.build();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  ConcurrentSim sim(c, u);
  sim.set_inputs(bits({1, 1}));
  sim.settle();
  // good y = 1; y s-a-0 and a s-a-0 (which kills y) must be visible at y.
  const auto vis = sim.visible_at(c.find("y"));
  const auto y_sa0 = fault_id(c, u, "y", kFaultOutPin, Val::Zero);
  bool found = false;
  for (const auto& [id, v] : vis) {
    if (id == y_sa0) {
      found = true;
      EXPECT_EQ(v, Val::Zero);
    }
    EXPECT_NE(v, sim.good_value(c.find("y")));
  }
  EXPECT_TRUE(found);
}

TEST(Concurrent, ConvergenceRemovesElements) {
  Builder b("conv");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateKind::And, "y", {"a", "c"});
  b.mark_output("y");
  const Circuit c = b.build();
  // Only the input-a stem fault matters here: use a custom 1-fault universe.
  FaultUniverse u;
  u.add({FaultType::StuckAt, c.find("a"), kFaultOutPin, Val::Zero});
  CsimOptions opt;
  opt.drop_detected = false;  // keep elements alive to observe convergence
  ConcurrentSim sim(c, u, opt);
  sim.set_inputs(bits({1, 1}));
  sim.settle();
  EXPECT_EQ(sim.visible_at(c.find("y")).size(), 1u);  // a s-a-0 -> y=0
  sim.set_inputs(bits({1, 0}));
  sim.settle();
  // Now good y = 0 too: the fault converges at y.
  EXPECT_TRUE(sim.visible_at(c.find("y")).empty());
}

TEST(Concurrent, DroppedFaultsStopConsumingElements) {
  const Circuit c = make_s27();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  ConcurrentSim dropping(c, u, CsimOptions{.split_lists = true,
                                           .drop_detected = true});
  ConcurrentSim keeping(c, u, CsimOptions{.split_lists = true,
                                          .drop_detected = false});
  const PatternSet p = PatternSet::random(4, 50, 99);
  for (std::size_t i = 0; i < p.size(); ++i) {
    dropping.apply_vector(p[i]);
    keeping.apply_vector(p[i]);
  }
  // Same coverage either way; fewer live elements with dropping.
  EXPECT_EQ(summarize(dropping.status()).hard,
            summarize(keeping.status()).hard);
  EXPECT_LT(dropping.live_elements(), keeping.live_elements());
}

TEST(Concurrent, SplitAndCombinedListsAgree) {
  const Circuit c = make_s27();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  ConcurrentSim split(c, u, CsimOptions{.split_lists = true});
  ConcurrentSim combined(c, u, CsimOptions{.split_lists = false});
  const PatternSet p = PatternSet::random(4, 80, 5, /*x_permille=*/100);
  for (std::size_t i = 0; i < p.size(); ++i) {
    split.apply_vector(p[i]);
    combined.apply_vector(p[i]);
  }
  EXPECT_EQ(split.status(), combined.status());
}

TEST(Concurrent, MacroModeAgreesWithPlain) {
  const Circuit c = make_s27();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const MacroExtraction ext = extract_macros(c);
  const MacroFaultMap mm = map_faults_to_macros(c, ext, u);
  ConcurrentSim plain(c, u);
  ConcurrentSim macro(ext.circuit, u, CsimOptions{}, &mm);
  const PatternSet p = PatternSet::random(4, 80, 6, /*x_permille=*/100);
  for (std::size_t i = 0; i < p.size(); ++i) {
    plain.apply_vector(p[i]);
    macro.apply_vector(p[i]);
  }
  EXPECT_EQ(plain.status(), macro.status());
}

TEST(Concurrent, MatchesSerialOnS27) {
  const Circuit c = make_s27();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(4, 60, 12);
  ConcurrentSim sim(c, u);
  for (std::size_t i = 0; i < p.size(); ++i) sim.apply_vector(p[i]);
  const SerialResult sr = serial_fault_sim(c, u, p.vectors());
  EXPECT_EQ(sim.status(), sr.status);
}

TEST(Concurrent, ResetClearsStateButKeepsStatus) {
  const Circuit c = make_s27();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  ConcurrentSim sim(c, u);
  const PatternSet p = PatternSet::random(4, 30, 3);
  for (std::size_t i = 0; i < p.size(); ++i) sim.apply_vector(p[i]);
  const auto cov = sim.coverage();
  ASSERT_GT(cov.hard, 0u);
  sim.reset();
  EXPECT_EQ(sim.coverage().hard, cov.hard);  // status preserved
  sim.reset(Val::X, /*clear_status=*/true);
  EXPECT_EQ(sim.coverage().hard, 0u);
}

TEST(Concurrent, PotentialDetectionFromXState) {
  // With FFs at X, a fault observable only through an X-state path reports
  // Potential, not Hard.
  const Circuit c = make_shift_register(2);
  FaultUniverse u;
  u.add({FaultType::StuckAt, c.dffs()[1], kFaultOutPin, Val::One});
  ConcurrentSim sim(c, u);  // FFs X
  sim.apply_vector(bits({0}));
  // good q1 = X, faulty = 1 -> PO good is X: no detection at all yet.
  // After two clocks of 0s the good q1 becomes 0 and the fault is hard.
  sim.apply_vector(bits({0}));
  sim.apply_vector(bits({0}));
  EXPECT_EQ(sim.status()[0], Detect::Hard);
}

TEST(Concurrent, WrongVectorWidthThrows) {
  const Circuit c = make_s27();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  ConcurrentSim sim(c, u);
  EXPECT_THROW(sim.apply_vector(bits({0, 1})), Error);
}

TEST(Concurrent, MixedUniverseRejected) {
  const Circuit c = make_s27();
  FaultUniverse u;
  u.add({FaultType::Transition, c.find("G8"), 0, Val::One});
  u.add({FaultType::StuckAt, c.find("G8"), kFaultOutPin, Val::One});
  EXPECT_THROW(ConcurrentSim(c, u), Error);
}

TEST(Concurrent, ApplyVectorReturnsNewDetections) {
  const Circuit c = make_s27();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  ConcurrentSim sim(c, u);
  const PatternSet p = PatternSet::random(4, 40, 21);
  std::size_t total = 0;
  for (std::size_t i = 0; i < p.size(); ++i) total += sim.apply_vector(p[i]);
  EXPECT_EQ(total, sim.coverage().hard);
}

// ---------------------------------------------------------------------------
// One settle per vector
// ---------------------------------------------------------------------------

TEST(OneSettleLoop, GateFedByInputAndFlipFlopIsVisitedOncePerVector) {
  // y = XOR(a, q) with q = DFF(b).  a and b toggle on every vector, so y's
  // input pin changes when a vector drives a and its flip-flop pin changes
  // when the clock commits q.  y is the only combinational gate, and the
  // committed q settles together with the next vector's inputs: one visit
  // per vector, not one after the clock and another after the inputs.
  Builder b("pi_and_q");
  b.add_input("a");
  b.add_input("b");
  b.add_dff("q", "b");
  b.add_gate(GateKind::Xor, "y", {"a", "q"});
  b.mark_output("y");
  const Circuit c = b.build();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  ConcurrentSim sim(c, u);
  sim.reset(Val::Zero);
  for (int v = 0; v < 8; ++v) {
    const std::uint64_t before = sim.gates_processed();
    sim.apply_vector(bits({v % 2, 1 - v % 2}));
    EXPECT_EQ(sim.gates_processed() - before, 1u) << "vector " << v;
  }
}

// (vector, fault, PO position, hard) per detection-observer call.
using ObsLog =
    std::vector<std::tuple<std::size_t, std::uint32_t, std::uint32_t, bool>>;

struct LoopRun {
  std::vector<Detect> status;
  ObsLog obs;
  RunStateSnapshot snap;
};

/// The reference: every vector through apply_vector() on one engine.
LoopRun apply_only(const Circuit& c, const FaultUniverse& u,
                   const PatternSet& p) {
  LoopRun r;
  std::size_t vec = 0;
  ConcurrentSim sim(c, u);
  sim.set_detection_observer(
      [&](std::uint32_t f, std::uint32_t po, bool hard) {
        r.obs.emplace_back(vec, f, po, hard);
      });
  sim.reset(Val::Zero);
  for (vec = 0; vec < p.size(); ++vec) sim.apply_vector(p[vec]);
  r.status = sim.status();
  r.snap = sim.capture_run_state();
  return r;
}

// Vectors 17 and 30 start on a fresh engine restored from the previous
// engine's snapshot.
bool hop_before(std::size_t vec) { return vec == 17 || vec == 30; }

/// One engine mixing apply_vector() with the granular calls, hopping to a
/// fresh engine through capture_run_state()/restore_run_state() twice.
/// Stuck-at mode runs every third vector as set_inputs/settle/
/// sample_outputs/clock.  The granular vector has no pass 2, so transition
/// mode instead follows every third apply_vector() with a bare settle(),
/// which commits and settles the pending capture eagerly.  Hops land once
/// with a capture pending (vector 17) and once without (vector 30).
LoopRun mixed_engine(const Circuit& c, const FaultUniverse& u,
                     const PatternSet& p, bool transition) {
  LoopRun r;
  std::size_t vec = 0;
  const auto observe = [&](std::uint32_t f, std::uint32_t po, bool hard) {
    r.obs.emplace_back(vec, f, po, hard);
  };
  auto sim = std::make_unique<ConcurrentSim>(c, u);
  sim->set_detection_observer(observe);
  sim->reset(Val::Zero);
  for (vec = 0; vec < p.size(); ++vec) {
    if (hop_before(vec)) {
      const RunStateSnapshot snap = sim->capture_run_state();
      const std::vector<Detect> st = sim->status();
      sim = std::make_unique<ConcurrentSim>(c, u);
      sim->set_detection_observer(observe);
      sim->restore_run_state(snap, st);
    }
    const bool granular = vec % 3 == 2;
    if (granular && !transition) {
      sim->set_inputs(p[vec]);
      sim->settle();
      sim->sample_outputs();
      sim->clock();
    } else {
      sim->apply_vector(p[vec]);
      if (granular) sim->settle();
    }
  }
  r.status = sim->status();
  r.snap = sim->capture_run_state();
  return r;
}

/// The same two hops on a 4-shard ShardedSim.
LoopRun sharded_hops(const Circuit& c, const FaultUniverse& u,
                     const PatternSet& p) {
  LoopRun r;
  std::size_t vec = 0;
  const auto observe = [&](std::uint32_t f, std::uint32_t po, bool hard) {
    r.obs.emplace_back(vec, f, po, hard);
  };
  ShardedOptions opt;
  opt.num_threads = 4;
  auto sim = std::make_unique<ShardedSim>(c, u, opt);
  sim->set_detection_observer(observe);
  sim->reset(Val::Zero);
  for (vec = 0; vec < p.size(); ++vec) {
    if (hop_before(vec)) {
      const RunStateSnapshot snap = sim->capture_run_state();
      const std::vector<Detect> st = sim->status();
      sim = std::make_unique<ShardedSim>(c, u, opt);
      sim->set_detection_observer(observe);
      sim->restore_run_state(snap, st);
    }
    sim->apply_vector(p[vec]);
  }
  r.status = sim->status();
  r.snap = sim->capture_run_state();
  return r;
}

void expect_same_run(const LoopRun& got, const LoopRun& ref) {
  EXPECT_EQ(got.status, ref.status);
  EXPECT_EQ(got.obs, ref.obs);
  EXPECT_TRUE(got.snap == ref.snap) << "final snapshots differ";
}

TEST(OneSettleLoop, PendingCaptureCrossesApiBoundariesStuckAt) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 48, 5);
  const LoopRun ref = apply_only(c, u, p);
  ASSERT_FALSE(ref.obs.empty());
  expect_same_run(mixed_engine(c, u, p, /*transition=*/false), ref);
  expect_same_run(sharded_hops(c, u, p), ref);
}

TEST(OneSettleLoop, PendingCaptureCrossesApiBoundariesTransition) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_transition(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 48, 6);
  const LoopRun ref = apply_only(c, u, p);
  ASSERT_FALSE(ref.obs.empty());
  expect_same_run(mixed_engine(c, u, p, /*transition=*/true), ref);
  expect_same_run(sharded_hops(c, u, p), ref);
}

// ---------------------------------------------------------------------------
// The empty-gate merge skip.  Its per-gate count of introducible site faults
// must follow every change of ownership, suspension and status: a stale low
// count silently skips a real merge.  validate() recounts, so each run below
// validates after every vector and after every hook.
// ---------------------------------------------------------------------------

/// apply_only(), with `hook` run on the engine before vector `at`.
LoopRun apply_with_hook(const Circuit& c, const FaultUniverse& u,
                        const PatternSet& p, std::size_t at,
                        const std::function<void(ConcurrentSim&)>& hook) {
  LoopRun r;
  std::size_t vec = 0;
  ConcurrentSim sim(c, u);
  sim.set_detection_observer(
      [&](std::uint32_t f, std::uint32_t po, bool hard) {
        r.obs.emplace_back(vec, f, po, hard);
      });
  sim.reset(Val::Zero);
  for (vec = 0; vec < p.size(); ++vec) {
    if (vec == at) {
      hook(sim);
      sim.validate();
    }
    sim.apply_vector(p[vec]);
    sim.validate();
  }
  r.status = sim.status();
  r.snap = sim.capture_run_state();
  return r;
}

TEST(MergeSkip, SuspendRestoreUnsuspendRestoreMatchesFreshEngine) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 48, 5);
  const LoopRun ref = apply_only(c, u, p);
  std::vector<std::uint8_t> mask(u.size(), 0);
  for (std::size_t id = 0; id < u.size(); id += 3) mask[id] = 1;
  expect_same_run(
      apply_with_hook(c, u, p, 17,
                      [&](ConcurrentSim& sim) {
                        const RunStateSnapshot snap = sim.capture_run_state();
                        const std::vector<Detect> st = sim.status();
                        sim.set_suspended(mask);
                        sim.restore_run_state(snap, st);
                        sim.validate();
                        sim.set_suspended({});
                        sim.restore_run_state(snap, st);
                      }),
      ref);
}

TEST(MergeSkip, SetShardRestoreMatchesFreshEngine) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 48, 5);
  const LoopRun ref = apply_only(c, u, p);
  expect_same_run(
      apply_with_hook(c, u, p, 17,
                      [&](ConcurrentSim& sim) {
                        const RunStateSnapshot snap = sim.capture_run_state();
                        const std::vector<Detect> st = sim.status();
                        // Narrow to one half of the universe, then widen
                        // back to all of it.
                        sim.set_shard(FaultPartition(u.size(), 2), 1);
                        sim.restore_run_state(snap, st);
                        sim.validate();
                        sim.set_shard(FaultPartition(u.size(), 1), 0);
                        sim.restore_run_state(snap, st);
                      }),
      ref);
}

TEST(MergeSkip, AdoptStatusResetMatchesFreshEngine) {
  // Two sequences.  The reference resets one engine between them; the
  // resumed run hands the first engine's status to a new engine, which
  // must drop the already-detected faults from its site counts.
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 48, 5);
  constexpr std::size_t kSecond = 20;
  LoopRun ref, got;
  std::size_t vec = 0;
  const auto observer = [&vec](LoopRun& r) {
    return [&r, &vec](std::uint32_t f, std::uint32_t po, bool hard) {
      r.obs.emplace_back(vec, f, po, hard);
    };
  };

  ConcurrentSim one(c, u);
  one.set_detection_observer(observer(ref));
  one.reset(Val::Zero);
  for (vec = 0; vec < p.size(); ++vec) {
    if (vec == kSecond) one.reset(Val::Zero);
    one.apply_vector(p[vec]);
  }
  ref.status = one.status();
  ref.snap = one.capture_run_state();

  auto sim = std::make_unique<ConcurrentSim>(c, u);
  sim->set_detection_observer(observer(got));
  sim->reset(Val::Zero);
  for (vec = 0; vec < p.size(); ++vec) {
    if (vec == kSecond) {
      const std::vector<Detect> st = sim->status();
      ASSERT_GT(std::count(st.begin(), st.end(), Detect::Hard), 0);
      sim = std::make_unique<ConcurrentSim>(c, u);
      sim->set_detection_observer(observer(got));
      sim->adopt_status(st);
      sim->reset(Val::Zero);
      sim->validate();
    }
    sim->apply_vector(p[vec]);
    sim->validate();
  }
  got.status = sim->status();
  got.snap = sim->capture_run_state();
  expect_same_run(got, ref);
}

TEST(MergeSkip, EveryShardValidatesAfterEveryVector) {
  // Four site-ordered shards, re-cut every five vectors: every shard's
  // counts stay exact through set_shard, restore and dropping, while a
  // large share of the gate visits skips its merge.
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 48, 5);
  const LoopRun ref = apply_only(c, u, p);
  ShardedOptions opt;
  opt.num_threads = 4;
  opt.rebalance.mode = RebalancePolicy::Mode::Every;
  opt.rebalance.every = 5;
  ShardedSim sim(c, u, opt);
  sim.reset(Val::Zero);
  for (std::size_t vec = 0; vec < p.size(); ++vec) {
    sim.apply_vector(p[vec]);
    for (unsigned s = 0; s < sim.num_shards(); ++s) {
      ASSERT_NO_THROW(sim.engine(s).validate())
          << "shard " << s << ", vector " << vec;
    }
  }
  EXPECT_EQ(sim.status(), ref.status);
  EXPECT_GT(sim.rebalances(), 0u);
#if CFS_OBS_ENABLED
  const SimStats st = sim.stats();
  EXPECT_GT(4 * st.total.counters.get(obs::Counter::MergesSkipped),
            st.total.gates_processed);
#endif
}

}  // namespace
}  // namespace cfs
