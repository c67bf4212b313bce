// Fault universes, equivalence collapsing, macro fault mapping.
#include <gtest/gtest.h>

#include <set>

#include "faults/fault.h"
#include "faults/macro_map.h"
#include "faults/transition_model.h"
#include "gen/known_circuits.h"
#include "netlist/builder.h"
#include "netlist/macro_extract.h"
#include "util/error.h"

namespace cfs {
namespace {

TEST(Faults, StuckAtUniverseCountsOutputsAndBranches) {
  // a feeds two gates (fanout 2) -> its branch pin faults are enumerated;
  // b feeds one gate -> only output faults.
  Builder bld("t");
  bld.add_input("a");
  bld.add_input("b");
  bld.add_gate(GateKind::And, "n1", {"a", "b"});
  bld.add_gate(GateKind::Or, "n2", {"a", "n1"});
  bld.mark_output("n2");
  const Circuit c = bld.build();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  // Outputs: 4 gates x 2 = 8.  Branch pins: n1.0 (a) and n2.0 (a) x 2 = 4.
  EXPECT_EQ(u.size(), 12u);
}

TEST(Faults, TransitionUniverseTwoPerPin) {
  const Circuit c = make_s27();
  std::size_t pins = 0;
  for (GateId g = 0; g < c.num_gates(); ++g) pins += c.num_fanins(g);
  EXPECT_EQ(FaultUniverse::all_transition(c).size(), 2 * pins);
}

TEST(Faults, DescribeFormats) {
  const Circuit c = make_s27();
  const GateId g = c.find("G8");
  Fault f{FaultType::StuckAt, g, kFaultOutPin, Val::Zero};
  EXPECT_EQ(describe_fault(c, f), "G8/O s-a-0");
  f = {FaultType::StuckAt, g, 1, Val::One};
  EXPECT_EQ(describe_fault(c, f), "G8.1 s-a-1");
  f = {FaultType::Transition, g, 0, Val::One};
  EXPECT_EQ(describe_fault(c, f), "G8.0 str");
}

TEST(Faults, CollapseMergesAndInputSA0WithOutput) {
  Builder bld("t");
  bld.add_input("a");
  bld.add_input("b");
  bld.add_gate(GateKind::Buf, "a1", {"a"});  // make 'a' single-fanout buffer
  bld.add_gate(GateKind::Buf, "b1", {"b"});
  bld.add_gate(GateKind::And, "n", {"a1", "b1"});
  bld.mark_output("n");
  const Circuit c = bld.build();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const auto rep = collapse_equivalent(c, u);

  auto id_of = [&](const std::string& name, std::uint16_t pin, Val v) {
    const GateId g = c.find(name);
    for (std::uint32_t i = 0; i < u.size(); ++i) {
      if (u[i].gate == g && u[i].pin == pin && u[i].value == v) return i;
    }
    ADD_FAILURE() << "fault not found";
    return 0xFFFFFFFFu;
  };
  // a1/O s-a-0 (single-fanout into AND pin) == n/O s-a-0.
  EXPECT_EQ(rep[id_of("a1", kFaultOutPin, Val::Zero)],
            rep[id_of("n", kFaultOutPin, Val::Zero)]);
  // And through the BUF: a/O s-a-0 == a1/O s-a-0.
  EXPECT_EQ(rep[id_of("a", kFaultOutPin, Val::Zero)],
            rep[id_of("a1", kFaultOutPin, Val::Zero)]);
  // s-a-1 on an AND input is NOT equivalent to any output fault here.
  EXPECT_NE(rep[id_of("a1", kFaultOutPin, Val::One)],
            rep[id_of("n", kFaultOutPin, Val::One)]);
}

TEST(Faults, CollapseNotInverts) {
  Builder bld("t");
  bld.add_input("a");
  bld.add_gate(GateKind::Not, "n", {"a"});
  bld.mark_output("n");
  const Circuit c = bld.build();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const auto rep = collapse_equivalent(c, u);
  auto id_of = [&](const std::string& name, Val v) {
    const GateId g = c.find(name);
    for (std::uint32_t i = 0; i < u.size(); ++i) {
      if (u[i].gate == g && u[i].pin == kFaultOutPin && u[i].value == v) {
        return i;
      }
    }
    return 0xFFFFFFFFu;
  };
  EXPECT_EQ(rep[id_of("a", Val::Zero)], rep[id_of("n", Val::One)]);
  EXPECT_EQ(rep[id_of("a", Val::One)], rep[id_of("n", Val::Zero)]);
}

TEST(Faults, CollapseReducesS27Universe) {
  const Circuit c = make_s27();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const auto rep = collapse_equivalent(c, u);
  std::set<std::uint32_t> classes(rep.begin(), rep.end());
  EXPECT_LT(classes.size(), u.size());
  // Representatives are the smallest members of their class.
  for (std::uint32_t i = 0; i < rep.size(); ++i) EXPECT_LE(rep[i], i);
}

TEST(Faults, SummarizeCountsStatuses) {
  std::vector<Detect> st = {Detect::None, Detect::Hard, Detect::Potential,
                            Detect::Hard};
  const Coverage cov = summarize(st);
  EXPECT_EQ(cov.total, 4u);
  EXPECT_EQ(cov.hard, 2u);
  EXPECT_EQ(cov.potential, 1u);
  EXPECT_DOUBLE_EQ(cov.pct(), 50.0);
}

TEST(TransitionModel, Table1Relation) {
  // Slow-to-rise (target = 1).
  const Val T = Val::One;
  EXPECT_EQ(transition_hold_value(Val::Zero, Val::One, T), Val::Zero);
  EXPECT_EQ(transition_hold_value(Val::Zero, Val::Zero, T), Val::Zero);
  EXPECT_EQ(transition_hold_value(Val::Zero, Val::X, T), Val::Zero);
  EXPECT_EQ(transition_hold_value(Val::One, Val::Zero, T), Val::Zero);
  EXPECT_EQ(transition_hold_value(Val::One, Val::One, T), Val::One);
  EXPECT_EQ(transition_hold_value(Val::One, Val::X, T), Val::X);
  EXPECT_EQ(transition_hold_value(Val::X, Val::Zero, T), Val::Zero);
  EXPECT_EQ(transition_hold_value(Val::X, Val::One, T), Val::X);
  EXPECT_EQ(transition_hold_value(Val::X, Val::X, T), Val::X);
  // Slow-to-fall mirrors with 0/1 swapped.
  const Val F = Val::Zero;
  EXPECT_EQ(transition_hold_value(Val::One, Val::Zero, F), Val::One);
  EXPECT_EQ(transition_hold_value(Val::Zero, Val::One, F), Val::One);
  EXPECT_EQ(transition_hold_value(Val::Zero, Val::Zero, F), Val::Zero);
}

TEST(MacroMap, MapsEveryFault) {
  const Circuit c = make_s27();
  const MacroExtraction ext = extract_macros(c);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const MacroFaultMap mm = map_faults_to_macros(c, ext, u);
  ASSERT_EQ(mm.mapped.size(), u.size());
  for (const MappedFault& m : mm.mapped) {
    ASSERT_NE(m.gate, kNoGate);
    ASSERT_LT(m.gate, ext.circuit.num_gates());
    if (m.table != kNoGate) {
      ASSERT_LT(m.table, mm.tables.size());
      EXPECT_EQ(mm.tables[m.table].num_inputs,
                ext.circuit.num_fanins(m.gate));
    }
  }
  EXPECT_GT(mm.num_functional, 0u);
}

TEST(MacroMap, FaultWithTheGoodFunctionIsMasked) {
  // y = OR(a, AND(a, b)) == a: the macro {n1, y} has external pins a, b,
  // and n1 stuck-at-0 leaves its function unchanged.
  Builder bld("absorb");
  bld.add_input("a");
  bld.add_input("b");
  bld.add_gate(GateKind::And, "n1", {"a", "b"});
  bld.add_gate(GateKind::Or, "y", {"a", "n1"});
  bld.mark_output("y");
  const Circuit c = bld.build();
  const MacroExtraction ext = extract_macros(c);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const MacroFaultMap mm = map_faults_to_macros(c, ext, u);
  bool n1_sa0_masked = false;
  for (std::uint32_t id = 0; id < u.size(); ++id) {
    const MappedFault& m = mm.mapped[id];
    if (m.table == kNoGate) continue;
    const TruthTable& good = ext.circuit.table(ext.circuit.table_of(m.gate));
    EXPECT_EQ(m.masked, mm.tables[m.table].out == good.out) << id;
    if (u[id].gate == c.find("n1") && u[id].pin == kFaultOutPin &&
        u[id].value == Val::Zero) {
      n1_sa0_masked = m.masked;
    }
  }
  EXPECT_TRUE(n1_sa0_masked);
  EXPECT_GT(mm.num_masked, 0u);
}

TEST(MacroMap, RejectsTransitionUniverse) {
  const Circuit c = make_s27();
  const MacroExtraction ext = extract_macros(c);
  const FaultUniverse u = FaultUniverse::all_transition(c);
  EXPECT_THROW(map_faults_to_macros(c, ext, u), Error);
}

}  // namespace
}  // namespace cfs
