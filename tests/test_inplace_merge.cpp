// Differential check for the in-place fault-list update: the production
// engine patches destination lists element by element (apply_list_inplace),
// while CsimOptions::rebuild_lists selects the naive tear-down-and-rebuild
// reference the in-place path replaced.  The reference also walks every
// site fault at every merge, where the production merge visits only those
// its activation rows and the transition pass rules mark (DESIGN.md
// section 22).  Both must agree on *everything*
// observable -- per-vector detection counts, the exact detection event
// order, the final status, and the per-gate visible sequences -- across
// random circuits, all four engine variants, transition mode, and the
// pool-compaction path between test sequences.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/concurrent_sim.h"
#include "faults/macro_map.h"
#include "gen/circuit_gen.h"
#include "netlist/macro_extract.h"
#include "patterns/pattern.h"

namespace cfs {
namespace {

struct Scenario {
  std::uint64_t circuit_seed;
  unsigned pis, pos, dffs, gates;
  unsigned vectors;
  unsigned x_permille;
  Val ff_init;
};

using Observation = std::tuple<std::uint32_t, std::uint32_t, bool>;

void record_observations(ConcurrentSim& sim, std::vector<Observation>* out) {
  sim.set_detection_observer(
      [out](std::uint32_t fault, std::uint32_t po, bool hard) {
        out->emplace_back(fault, po, hard);
      });
}

// Drive `sim` and `ref` through the same vectors in lockstep and require
// identical behaviour after every single vector, not just at the end.
void run_lockstep(ConcurrentSim& sim, ConcurrentSim& ref, const PatternSet& p,
                  bool deep_validate) {
  std::vector<Observation> sim_obs, ref_obs;
  record_observations(sim, &sim_obs);
  record_observations(ref, &ref_obs);
  for (std::size_t i = 0; i < p.size(); ++i) {
    sim_obs.clear();
    ref_obs.clear();
    const std::size_t sim_newly = sim.apply_vector(p[i]);
    const std::size_t ref_newly = ref.apply_vector(p[i]);
    ASSERT_EQ(sim_newly, ref_newly) << "vector " << i;
    ASSERT_EQ(sim_obs, ref_obs) << "detection order diverged at vector " << i;
    ASSERT_EQ(sim.status(), ref.status()) << "vector " << i;
    if (deep_validate) {
      ASSERT_NO_THROW(sim.validate()) << "vector " << i;
      for (GateId g = 0; g < sim.circuit().num_gates(); ++g) {
        ASSERT_EQ(sim.visible_at(g), ref.visible_at(g))
            << "gate " << g << " vector " << i;
      }
    }
  }
}

class InplaceMergeDifferential : public ::testing::TestWithParam<Scenario> {};

TEST_P(InplaceMergeDifferential, MatchesNaiveRebuildAllVariants) {
  const Scenario s = GetParam();
  GenProfile gp;
  gp.name = "inplace" + std::to_string(s.circuit_seed);
  gp.num_pis = s.pis;
  gp.num_pos = s.pos;
  gp.num_dffs = s.dffs;
  gp.num_gates = s.gates;
  gp.seed = s.circuit_seed;
  const Circuit c = generate_circuit(gp);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p =
      PatternSet::random(c.inputs().size(), s.vectors,
                         s.circuit_seed * 101 + 13, s.x_permille);

  const MacroExtraction ext = extract_macros(c);
  const MacroFaultMap mm = map_faults_to_macros(c, ext, u);
  struct Variant {
    const char* name;
    bool split;
    bool macro;
  };
  for (const Variant v : {Variant{"csim", false, false},
                          Variant{"csim-V", true, false},
                          Variant{"csim-M", false, true},
                          Variant{"csim-MV", true, true}}) {
    SCOPED_TRACE(v.name);
    CsimOptions opt;
    opt.split_lists = v.split;
    CsimOptions ref_opt = opt;
    ref_opt.rebuild_lists = true;
    const Circuit& cc = v.macro ? ext.circuit : c;
    const MacroFaultMap* map = v.macro ? &mm : nullptr;
    ConcurrentSim sim(cc, u, opt, map);
    ConcurrentSim ref(cc, u, ref_opt, map);
    sim.reset(s.ff_init);
    ref.reset(s.ff_init);
    run_lockstep(sim, ref, p, /*deep_validate=*/true);
  }
}

TEST_P(InplaceMergeDifferential, MatchesNaiveRebuildTransitionMode) {
  const Scenario s = GetParam();
  GenProfile gp;
  gp.name = "inplace-tr" + std::to_string(s.circuit_seed);
  gp.num_pis = s.pis;
  gp.num_pos = s.pos;
  gp.num_dffs = s.dffs;
  gp.num_gates = s.gates;
  gp.seed = s.circuit_seed;
  const Circuit c = generate_circuit(gp);
  const FaultUniverse u = FaultUniverse::all_transition(c);
  const PatternSet p =
      PatternSet::random(c.inputs().size(), s.vectors,
                         s.circuit_seed * 101 + 13, s.x_permille);

  for (bool split : {false, true}) {
    SCOPED_TRACE(split ? "split" : "combined");
    CsimOptions opt;
    opt.split_lists = split;
    CsimOptions ref_opt = opt;
    ref_opt.rebuild_lists = true;
    ConcurrentSim sim(c, u, opt);
    ConcurrentSim ref(c, u, ref_opt);
    sim.reset(s.ff_init);
    ref.reset(s.ff_init);
    // validate() requires the settled stuck-at invariants, so transition
    // mode compares the observable behaviour only.
    run_lockstep(sim, ref, p, /*deep_validate=*/false);
  }
}

TEST_P(InplaceMergeDifferential, CompactionBetweenSequencesMatches) {
  const Scenario s = GetParam();
  GenProfile gp;
  gp.name = "inplace-cp" + std::to_string(s.circuit_seed);
  gp.num_pis = s.pis;
  gp.num_pos = s.pos;
  gp.num_dffs = s.dffs;
  gp.num_gates = s.gates;
  gp.seed = s.circuit_seed;
  const Circuit c = generate_circuit(gp);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);

  CsimOptions opt;
  opt.split_lists = true;
  opt.compact_pool = true;
  CsimOptions ref_opt;
  ref_opt.split_lists = true;
  ref_opt.rebuild_lists = true;
  ConcurrentSim sim(c, u, opt);
  ConcurrentSim ref(c, u, ref_opt);
  // Several sequences with a reset between each: the compacting engine
  // rebuilds its pool from index 0 every time, the reference keeps its
  // scrambled free list; detection results must be identical either way.
  for (unsigned seq = 0; seq < 3; ++seq) {
    const PatternSet p = PatternSet::random(
        c.inputs().size(), s.vectors / 2 + 1,
        s.circuit_seed * 997 + seq, s.x_permille);
    sim.reset(s.ff_init);
    ref.reset(s.ff_init);
    run_lockstep(sim, ref, p, /*deep_validate=*/true);
  }
  ASSERT_EQ(sim.status(), ref.status());
}

INSTANTIATE_TEST_SUITE_P(
    RandomCircuits, InplaceMergeDifferential,
    ::testing::Values(
        // Binary patterns from the reset state.
        Scenario{301, 4, 3, 5, 60, 40, 0, Val::Zero},
        Scenario{302, 6, 4, 8, 120, 30, 0, Val::Zero},
        // All-X initial state.
        Scenario{303, 5, 3, 6, 80, 40, 0, Val::X},
        Scenario{304, 6, 4, 10, 140, 30, 0, Val::X},
        // X density in the patterns (exercises X-churn in the lists).
        Scenario{305, 4, 3, 6, 80, 40, 150, Val::X},
        Scenario{306, 8, 6, 12, 200, 25, 80, Val::Zero},
        // Wider / deeper.
        Scenario{307, 10, 8, 20, 320, 20, 0, Val::Zero},
        // Tiny degenerate.
        Scenario{308, 2, 1, 1, 8, 30, 100, Val::X}));

}  // namespace
}  // namespace cfs
