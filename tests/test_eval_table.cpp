// Differential tests for table-driven evaluation: Circuit::eval (flat
// per-(kind, arity) tables, chunked reduction above kEvalChunkPins) must be
// bit-identical to Circuit::eval_fold (the fold-over-pins oracle) on every
// state, and an engine running with CsimOptions::fold_eval must march in
// lockstep -- good machine, fault lists, detection status, counters -- with
// the table-driven default across all four paper variants, transition mode,
// and macro mode.  The word-wide eval_kind_word must equal eval_kind in
// every lane.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/concurrent_sim.h"
#include "faults/macro_map.h"
#include "gen/circuit_gen.h"
#include "netlist/builder.h"
#include "netlist/macro_extract.h"
#include "patterns/pattern.h"
#include "util/error.h"

namespace cfs {
namespace {

// One gate of each combinational kind at arity `n` (Buf/Not only at 1),
// fed by shared inputs.
Circuit kind_circuit(unsigned n) {
  Builder b("ktab" + std::to_string(n));
  std::vector<std::string> ins;
  for (unsigned i = 0; i < n; ++i) {
    ins.push_back("i" + std::to_string(i));
    b.add_input(ins.back());
  }
  for (const GateKind k : {GateKind::Buf, GateKind::Not, GateKind::And,
                           GateKind::Nand, GateKind::Or, GateKind::Nor,
                           GateKind::Xor, GateKind::Xnor}) {
    const auto [lo, hi] = arity(k);
    if (n < lo || n > hi) continue;
    std::vector<std::string> fi(ins.begin(), ins.begin() + n);
    b.add_gate(k, std::string(kind_name(k)) + "_y", fi);
    b.mark_output(std::string(kind_name(k)) + "_y");
  }
  return b.build();
}

// Exhaustive for small arities, dense random sampling (every pin cycling
// through all four 2-bit codes, the invalid code 1 included) above.
TEST(EvalTable, TableMatchesFoldForEveryKindAndArity) {
  std::mt19937_64 rng(2024);
  for (unsigned n = 1; n <= kMaxPins; ++n) {
    const Circuit c = kind_circuit(n);
    const std::uint64_t space = std::uint64_t{1} << (2 * n);
    const bool exhaustive = n <= 6;
    const std::uint64_t samples = exhaustive ? space : 200000;
    for (std::uint64_t i = 0; i < samples; ++i) {
      const std::uint64_t pins = exhaustive ? i : rng() & (space - 1);
      for (GateId g = 0; g < c.num_gates(); ++g) {
        if (!is_combinational(c.kind(g))) continue;
        const GateState s = static_cast<GateState>(pins);
        ASSERT_EQ(c.eval(g, s), c.eval_fold(g, s))
            << kind_name(c.kind(g)) << " arity " << n << " pins " << pins;
      }
    }
  }
}

// eval_kind_word is eval_kind in every lane, on random 0/1/X pin words.
TEST(EvalTable, WordEvaluatorMatchesScalarInEveryLane) {
  std::mt19937_64 rng(17);
  for (unsigned n = 1; n <= kMaxPins; ++n) {
    for (const GateKind k : {GateKind::Buf, GateKind::Not, GateKind::And,
                             GateKind::Nand, GateKind::Or, GateKind::Nor,
                             GateKind::Xor, GateKind::Xnor}) {
      if (n > arity(k).second) continue;
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<Word64> pins(n);
        for (Word64& w : pins) {
          w.h = rng();
          w.l = w.h & rng();  // L implies H: only the codes 0, X and 1
        }
        const Word64 out = eval_kind_word(k, pins);
        for (unsigned lane = 0; lane < 64; ++lane) {
          GateState s = 0;
          for (unsigned p = 0; p < n; ++p) {
            s = state_set(s, p, w_get(pins[p], lane));
          }
          ASSERT_EQ(w_get(out, lane), eval_kind(k, s, n))
              << kind_name(k) << " arity " << n << " lane " << lane;
        }
      }
    }
  }
  const Word64 one[1] = {splat64(Val::One)};
  for (const GateKind k : {GateKind::Input, GateKind::Dff, GateKind::Macro}) {
    EXPECT_THROW(eval_kind_word(k, one), Error) << kind_name(k);
  }
}

// The wide path joins an 8-pin and an (n-8)-pin reduction; a single X or a
// single controlling value anywhere must behave as in the fold.  Probe the
// max-arity gates with exactly one non-binary pin in every position.
TEST(EvalTable, XPropagationAtMaxArity) {
  const Circuit c = kind_circuit(kMaxPins);
  for (GateId g = 0; g < c.num_gates(); ++g) {
    if (!is_combinational(c.kind(g))) continue;
    for (const Val base : {Val::Zero, Val::One}) {
      for (unsigned xp = 0; xp < kMaxPins; ++xp) {
        for (const std::uint8_t codepoint : {0u, 1u, 2u, 3u}) {
          GateState s = 0;
          for (unsigned p = 0; p < kMaxPins; ++p) s = state_set(s, p, base);
          // Raw code injection, bypassing state_set's Val typing: the
          // tables must normalise the invalid code 1 to X exactly like
          // eval_fold's from_code does.
          s &= ~(GateState{3} << (2 * xp));
          s |= GateState{codepoint} << (2 * xp);
          ASSERT_EQ(c.eval(g, s), c.eval_fold(g, s))
              << kind_name(c.kind(g)) << " base " << static_cast<int>(base)
              << " pin " << xp << " code " << static_cast<unsigned>(codepoint);
        }
      }
    }
  }
}

// Counters except TableEvals (the fold path deliberately counts zero there).
obs::Counters without_table_evals(obs::Counters c) {
  c.v[static_cast<std::size_t>(obs::Counter::TableEvals)] = 0;
  return c;
}

void expect_lockstep(const Circuit& c, const FaultUniverse& u,
                     CsimOptions opt, const MacroFaultMap* mmap,
                     const PatternSet& p, const char* label) {
  CsimOptions fold = opt;
  fold.fold_eval = true;
  ConcurrentSim table_sim(c, u, opt, mmap);
  ConcurrentSim fold_sim(c, u, fold, mmap);
  table_sim.reset(Val::Zero);
  fold_sim.reset(Val::Zero);
  for (std::size_t i = 0; i < p.size(); ++i) {
    const std::size_t nt = table_sim.apply_vector(p[i]);
    const std::size_t nf = fold_sim.apply_vector(p[i]);
    ASSERT_EQ(nt, nf) << label << " vector " << i;
    ASSERT_EQ(table_sim.status(), fold_sim.status()) << label << " v" << i;
    for (GateId g = 0; g < c.num_gates(); ++g) {
      ASSERT_EQ(table_sim.good_value(g), fold_sim.good_value(g))
          << label << " v" << i << " gate " << g;
      ASSERT_EQ(table_sim.visible_at(g), fold_sim.visible_at(g))
          << label << " v" << i << " gate " << g;
    }
  }
  // Identical machines do identical work: every counter but TableEvals.
  ASSERT_EQ(without_table_evals(table_sim.counters()),
            without_table_evals(fold_sim.counters()))
      << label;
  ASSERT_EQ(fold_sim.counters().get(obs::Counter::TableEvals), 0u) << label;
}

TEST(EvalTable, EngineLockstepAcrossVariants) {
  GenProfile gp;
  gp.name = "evaltab";
  gp.num_pis = 6;
  gp.num_pos = 4;
  gp.num_dffs = 6;
  gp.num_gates = 120;
  gp.seed = 77;
  const Circuit c = generate_circuit(gp);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 48, 99, 60);

  const MacroExtraction ext = extract_macros(c);
  const MacroFaultMap mm = map_faults_to_macros(c, ext, u);
  for (const bool split : {false, true}) {
    CsimOptions opt;
    opt.split_lists = split;
    expect_lockstep(c, u, opt, nullptr, p, split ? "csim-V" : "csim");
    expect_lockstep(ext.circuit, u, opt, &mm, p,
                    split ? "csim-MV" : "csim-M");
  }
}

TEST(EvalTable, EngineLockstepTransitionMode) {
  GenProfile gp;
  gp.name = "evaltab-tr";
  gp.num_pis = 5;
  gp.num_pos = 3;
  gp.num_dffs = 5;
  gp.num_gates = 80;
  gp.seed = 78;
  const Circuit c = generate_circuit(gp);
  const FaultUniverse u = FaultUniverse::all_transition(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 40, 17, 40);
  CsimOptions opt;
  expect_lockstep(c, u, opt, nullptr, p, "transition");
}

}  // namespace
}  // namespace cfs
