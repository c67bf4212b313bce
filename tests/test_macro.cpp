// Macro extraction: structural invariants, functional equivalence of the
// extracted circuit, faulty-table construction, and every table entry
// against a per-entry walk of the region.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "gen/circuit_gen.h"
#include "gen/iscas_profiles.h"
#include "gen/known_circuits.h"
#include "netlist/builder.h"
#include "netlist/macro_extract.h"
#include "sim/good_sim.h"
#include "util/error.h"
#include "util/rng.h"

namespace cfs {
namespace {

void check_equivalent(const Circuit& orig, const Circuit& ext,
                      std::uint64_t seed, int frames) {
  ASSERT_EQ(orig.inputs().size(), ext.inputs().size());
  ASSERT_EQ(orig.outputs().size(), ext.outputs().size());
  ASSERT_EQ(orig.dffs().size(), ext.dffs().size());
  GoodSim a(orig), b(ext);
  Rng rng(seed);
  for (int t = 0; t < frames; ++t) {
    std::vector<Val> v(orig.inputs().size());
    for (auto& x : v) {
      x = rng.chance(1, 8) ? Val::X
                           : (rng.chance(1, 2) ? Val::One : Val::Zero);
    }
    a.apply(v);
    b.apply(v);
    for (std::size_t i = 0; i < orig.outputs().size(); ++i) {
      ASSERT_EQ(a.output(static_cast<unsigned>(i)),
                b.output(static_cast<unsigned>(i)))
          << "PO " << i << " frame " << t;
    }
    a.clock();
    b.clock();
  }
}

TEST(Macro, ExtractionShrinksGateCount) {
  const Circuit c = make_s27();
  const MacroExtraction ext = extract_macros(c);
  EXPECT_LT(ext.circuit.num_gates(), c.num_gates());
  EXPECT_FALSE(ext.macros.empty());
}

TEST(Macro, MacroGatesHaveTables) {
  const Circuit c = make_s27();
  const MacroExtraction ext = extract_macros(c);
  for (const MacroInfo& m : ext.macros) {
    ASSERT_NE(m.macro_gate, kNoGate);
    EXPECT_EQ(ext.circuit.kind(m.macro_gate), GateKind::Macro);
    EXPECT_NE(ext.circuit.table_of(m.macro_gate), kNoGate);
    EXPECT_EQ(ext.circuit.num_fanins(m.macro_gate), m.ext_drivers.size());
    EXPECT_GE(m.internal.size(), 2u);
    EXPECT_EQ(m.internal.back(), m.root);  // root last in topo order
  }
}

TEST(Macro, InternalGatesHaveAllFanoutsInside) {
  const Circuit c = make_benchmark("s298");
  const MacroExtraction ext = extract_macros(c);
  for (const MacroInfo& m : ext.macros) {
    for (GateId g : m.internal) {
      if (g == m.root) continue;
      EXPECT_FALSE(c.is_po(g));
      for (const Fanout& fo : c.fanouts(g)) {
        EXPECT_NE(std::find(m.internal.begin(), m.internal.end(), fo.gate),
                  m.internal.end());
      }
    }
  }
}

TEST(Macro, EquivalentOnS27) {
  const Circuit c = make_s27();
  check_equivalent(c, extract_macros(c).circuit, 1, 40);
}

TEST(Macro, EquivalentOnC17) {
  const Circuit c = make_c17();
  check_equivalent(c, extract_macros(c).circuit, 2, 30);
}

TEST(Macro, EquivalentOnRandomCircuits) {
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    GenProfile p;
    p.name = "m" + std::to_string(seed);
    p.num_pis = 5;
    p.num_pos = 4;
    p.num_dffs = 6;
    p.num_gates = 120;
    p.seed = seed;
    const Circuit c = generate_circuit(p);
    check_equivalent(c, extract_macros(c).circuit, seed, 20);
  }
}

TEST(Macro, WiderInputCapAllowsBiggerMacros) {
  const Circuit c = make_benchmark("s298");
  MacroOptions narrow, wide;
  narrow.max_inputs = 2;
  wide.max_inputs = 6;
  const auto a = extract_macros(c, narrow);
  const auto b = extract_macros(c, wide);
  EXPECT_GE(a.circuit.num_gates(), b.circuit.num_gates());
  check_equivalent(c, b.circuit, 9, 15);
}

TEST(Macro, FaultyTableDiffersAtInjection) {
  const Circuit c = make_s27();
  const MacroExtraction ext = extract_macros(c);
  ASSERT_FALSE(ext.macros.empty());
  const MacroInfo& m = ext.macros.front();
  // Faulting the root's output to 1 must change at least one table entry
  // (unless the region is constant-1, which these regions are not).
  const TruthTable good = build_macro_table(c, m);
  const TruthTable bad =
      build_macro_table_faulty(c, m, m.root, kOutputPin, Val::One);
  EXPECT_NE(good.out, bad.out);
  // Every faulty entry is either the good value or the forced value.
  for (std::size_t i = 0; i < bad.out.size(); ++i) {
    EXPECT_EQ(from_code(bad.out[i]), Val::One);
  }
}

// Reference truth table of a region: one walk per entry, Circuit::eval per
// internal gate, each pin taken from an earlier gate's result or from the
// entry's code for that macro pin.  Forces `stuck` at (site_gate, site_pin)
// the way the builder must: an input pin fault on that pin of the site gate
// only, an output fault on the site gate's result.
std::vector<std::uint8_t> walk_table(const Circuit& c, const MacroInfo& m,
                                     GateId site_gate, std::uint16_t site_pin,
                                     Val stuck) {
  const std::size_t k = m.ext_drivers.size();
  const auto& in = m.internal;
  std::vector<std::uint8_t> out(std::size_t{1} << (2 * k));
  std::vector<Val> vals(in.size());
  for (std::size_t idx = 0; idx < out.size(); ++idx) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      const auto fi = c.fanins(in[i]);
      GateState s = 0;
      for (std::size_t p = 0; p < fi.size(); ++p) {
        Val v;
        const auto it = std::find(in.begin(), in.begin() + i, fi[p]);
        if (it != in.begin() + i) {
          v = vals[it - in.begin()];
        } else {
          const auto e = std::find(m.ext_drivers.begin(), m.ext_drivers.end(),
                                   fi[p]);
          v = from_code(static_cast<std::uint8_t>(
              idx >> (2 * (e - m.ext_drivers.begin()))));
        }
        if (in[i] == site_gate && site_pin == p) v = stuck;
        s = state_set(s, static_cast<unsigned>(p), v);
      }
      vals[i] = c.eval(in[i], s);
      if (in[i] == site_gate && site_pin == kOutputPin) vals[i] = stuck;
    }
    out[idx] = code(vals.back());
  }
  return out;
}

void expect_table(const TruthTable& t, const std::vector<std::uint8_t>& walk,
                  std::size_t k, const std::string& what) {
  ASSERT_EQ(t.num_inputs, k) << what;
  ASSERT_EQ(t.out.size(), std::size_t{1} << (2 * k)) << what;
  for (std::size_t i = 0; i < t.out.size(); ++i) {
    if (t.out[i] == 1 || t.out[i] != walk[i]) {
      ADD_FAILURE() << what << " entry " << i << ": table code "
                    << int{t.out[i]} << ", walk code " << int{walk[i]};
      return;
    }
  }
}

// The good table and, for every internal gate, the faulty table of each
// input pin and of the output, stuck-at 0 and 1, entry by entry.
void expect_region_tables(const Circuit& c, const MacroInfo& m,
                          const TruthTable& good, const std::string& what) {
  const std::size_t k = m.ext_drivers.size();
  expect_table(good, walk_table(c, m, kNoGate, 0, Val::X), k, what + " good");
  for (GateId g : m.internal) {
    for (Val v : {Val::Zero, Val::One}) {
      const std::string site = what + " " + c.gate_name(g) + " s-a-" +
                               std::string(1, to_char(v));
      for (std::uint16_t p = 0; p < c.num_fanins(g); ++p) {
        expect_table(build_macro_table_faulty(c, m, g, p, v),
                     walk_table(c, m, g, p, v), k,
                     site + " pin " + std::to_string(p));
      }
      expect_table(build_macro_table_faulty(c, m, g, kOutputPin, v),
                   walk_table(c, m, g, kOutputPin, v), k, site + " out");
    }
  }
}

// Every macro of `c` at each cap in [2, max_cap]; returns the widest macro.
std::size_t expect_all_tables(const Circuit& c, unsigned max_cap) {
  std::size_t widest = 0;
  for (unsigned cap = 2; cap <= max_cap; ++cap) {
    MacroOptions mo;
    mo.max_inputs = cap;
    const MacroExtraction ext = extract_macros(c, mo);
    for (const MacroInfo& m : ext.macros) {
      const std::string what = c.name() + " cap " + std::to_string(cap) +
                               " macro " + c.gate_name(m.root);
      expect_region_tables(
          c, m, ext.circuit.table(ext.circuit.table_of(m.macro_gate)), what);
      widest = std::max(widest, m.ext_drivers.size());
    }
  }
  return widest;
}

TEST(MacroTables, EveryEntryMatchesTheWalkOnKnownCircuits) {
  EXPECT_EQ(expect_all_tables(make_s27(), 6), 5u);
  EXPECT_EQ(expect_all_tables(make_c17(), 6), 3u);
}

TEST(MacroTables, EveryEntryMatchesTheWalkOnS298) {
  // Caps 5 and 6 reach multi-word tables and macro pins 3 and up.
  EXPECT_EQ(expect_all_tables(make_benchmark("s298"), 6), 6u);
}

TEST(MacroTables, EveryEntryMatchesTheWalkOnS1494) {
  EXPECT_EQ(expect_all_tables(make_benchmark("s1494"), 4), 4u);
}

TEST(MacroTables, HandBuiltRegionCoversEveryKind) {
  // One six-input region: BUF, NOT and three-input AND, NAND, OR, NOR, XOR,
  // XNOR, with the XNOR as root.
  Builder b("kinds");
  for (const char* pi : {"a", "b", "c", "d", "e", "f"}) b.add_input(pi);
  b.add_gate(GateKind::Buf, "n1", {"a"});
  b.add_gate(GateKind::Not, "n2", {"b"});
  b.add_gate(GateKind::And, "n3", {"n1", "n2", "c"});
  b.add_gate(GateKind::Nand, "n4", {"a", "d", "e"});
  b.add_gate(GateKind::Or, "n5", {"n3", "n4", "f"});
  b.add_gate(GateKind::Nor, "n6", {"b", "c", "d"});
  b.add_gate(GateKind::Xor, "n7", {"n5", "n6", "e"});
  b.add_gate(GateKind::Xnor, "n8", {"n7", "a", "f"});
  b.mark_output("n8");
  const Circuit c = b.build();
  MacroInfo m;
  for (const char* g : {"n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"}) {
    m.internal.push_back(c.find(g));
  }
  std::sort(m.internal.begin(), m.internal.end(),
            [&](GateId x, GateId y) { return c.level(x) < c.level(y); });
  m.root = c.find("n8");
  ASSERT_EQ(m.internal.back(), m.root);
  // Six pins: 4096 entries in 64 words, pins 3-5 constant within a word.
  for (const char* pi : {"f", "d", "b", "e", "c", "a"}) {
    m.ext_drivers.push_back(c.find(pi));
  }
  expect_region_tables(c, m, build_macro_table(c, m), "kinds");
}

TEST(Macro, GateMapCoversAllGates) {
  const Circuit c = make_benchmark("s298");
  const MacroExtraction ext = extract_macros(c);
  for (GateId g = 0; g < c.num_gates(); ++g) {
    const bool internal_nonroot =
        ext.macro_of[g] != kNoGate && ext.macros[ext.macro_of[g]].root != g;
    if (internal_nonroot) {
      EXPECT_EQ(ext.gate_map[g], kNoGate);
    } else {
      ASSERT_NE(ext.gate_map[g], kNoGate);
      EXPECT_EQ(ext.circuit.gate_name(ext.gate_map[g]), c.gate_name(g));
    }
  }
}

TEST(Macro, RejectsBadOptions) {
  const Circuit c = make_c17();
  MacroOptions opt;
  opt.max_inputs = 1;
  EXPECT_THROW(extract_macros(c, opt), Error);
  opt.max_inputs = 7;
  EXPECT_THROW(extract_macros(c, opt), Error);
}

}  // namespace
}  // namespace cfs
