// Activation rows (core/sim_model.h, DESIGN.md section 22): every bit of
// every row against a direct evaluation of its site fault alone, and the
// all-ones row of the gates too wide for rows -- simulated end to end on
// 5- and 6-pin macros against the serial engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baseline/serial_sim.h"
#include "core/concurrent_sim.h"
#include "core/sim_model.h"
#include "faults/macro_map.h"
#include "faults/transition_model.h"
#include "gen/iscas_profiles.h"
#include "netlist/macro_extract.h"
#include "patterns/pattern.h"
#include "util/packed_state.h"

namespace cfs {
namespace {

constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};
constexpr std::uint64_t kNever = ~std::uint64_t{0};

// Whether site fault `d` of gate `g`, every fanin at its good value
// (`good`, pins only), can differ from the good machine at g, by
// eval_element's rules and through the fold evaluator rather than the flat
// tables the rows were built with.  A transition fault can differ when some
// previous value holds its pin away from the good value.
bool differs_alone(const Circuit& c, GateId g, const FaultDescriptor& d,
                   GateState good) {
  if (d.type == FaultType::Transition) {
    const Val cv = state_get(good, d.site_pin);
    for (const Val pv : {Val::Zero, Val::X, Val::One}) {
      if (transition_hold_value(pv, cv, d.forced) != cv) return true;
    }
    return false;
  }
  GateState st = good;
  if (d.site_pin != kFaultOutPin) st = state_set(st, d.site_pin, d.forced);
  Val out = d.table != nullptr
                ? from_code(d.table[state_input_index(st, c.num_fanins(g))])
                : c.eval_fold(g, st);
  if (d.site_pin == kFaultOutPin && d.table == nullptr) out = d.forced;
  return out != c.eval_fold(g, good) || st != good;
}

void check_every_row(const SimModel& m, const std::string& label) {
  const Circuit& c = m.circuit();
  static constexpr Val kDigit[3] = {Val::Zero, Val::X, Val::One};
  std::size_t with_rows = 0, set = 0, clear = 0;
  for (GateId g = 0; g < c.num_gates(); ++g) {
    const auto site = m.site_faults(g);
    const unsigned k = c.num_fanins(g);
    // A gate with rows never sets a bit at or above its site count.
    const bool want_rows = is_combinational(c.kind(g)) && !site.empty() &&
                           site.size() <= 64 && k <= SimModel::kMaxRowPins;
    if (!want_rows) {
      EXPECT_EQ(m.site_activation(g, 0), kAllOnes) << label << " gate " << g;
      continue;
    }
    ++with_rows;
    unsigned rows = 1;
    for (unsigned p = 0; p < k; ++p) rows *= 3;
    for (unsigned r = 0; r < rows; ++r) {
      GateState good = 0;
      for (unsigned p = 0, digits = r; p < k; ++p, digits /= 3) {
        good = state_set(good, p, kDigit[digits % 3]);
      }
      const std::uint64_t row =
          m.site_activation(g, state_input_index(good, k));
      for (std::size_t j = 0; j < 64; ++j) {
        const bool bit = (row >> j) & 1u;
        if (j >= site.size()) {
          ASSERT_FALSE(bit) << label << " gate " << g << " bit " << j;
          continue;
        }
        ASSERT_EQ(bit, differs_alone(c, g, m.descriptor(site[j]), good))
            << label << " gate " << g << " row " << r << " fault "
            << site[j];
        ++(bit ? set : clear);
      }
    }
  }
  EXPECT_GT(with_rows, 0u) << label;
  EXPECT_GT(set, 0u) << label;
  EXPECT_GT(clear, 0u) << label;
}

TEST(ActivationRows, EveryBitMatchesTheSiteFaultAlone) {
  for (const char* name : {"s27", "s298"}) {
    const Circuit c = make_benchmark(name);
    const FaultUniverse u = FaultUniverse::all_stuck_at(c);
    check_every_row(SimModel(c, u), std::string(name) + " stuck-at");
  }
  {
    const Circuit c = make_benchmark("s298");
    const FaultUniverse u = FaultUniverse::all_transition(c);
    check_every_row(SimModel(c, u), "s298 transition");
  }
  {
    const Circuit c = make_benchmark("s1494");
    const FaultUniverse u = FaultUniverse::all_stuck_at(c);
    const MacroExtraction ext = extract_macros(c);
    const MacroFaultMap mm = map_faults_to_macros(c, ext, u);
    check_every_row(SimModel(ext.circuit, u, &mm), "s1494 macro");
  }
}

// Macros of up to 6 pins have no rows: their site faults are all visited,
// as before rows existed.  Status and the vector of each first hard
// detection must equal the serial engine's on the original circuit.
TEST(ActivationRows, WideMacrosTakeTheAllOnesRowAndMatchSerial) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  MacroOptions mo;
  mo.max_inputs = 6;
  const MacroExtraction ext = extract_macros(c, mo);
  const MacroFaultMap mm = map_faults_to_macros(c, ext, u);
  const auto model = std::make_shared<const SimModel>(ext.circuit, u, &mm);
  std::vector<std::uint32_t> wide_sited;  // faults sited at such macros
  for (GateId g = 0; g < ext.circuit.num_gates(); ++g) {
    if (ext.circuit.kind(g) != GateKind::Macro ||
        ext.circuit.num_fanins(g) <= SimModel::kMaxRowPins) {
      continue;
    }
    EXPECT_EQ(model->site_activation(g, 0), kAllOnes) << "gate " << g;
    for (const std::uint32_t id : model->site_faults(g)) {
      wide_sited.push_back(id);
    }
  }
  ASSERT_FALSE(wide_sited.empty()) << "no 5- or 6-pin macro holds a fault";

  const PatternSet p = PatternSet::random(c.inputs().size(), 24, 41);
  CsimOptions opt;
  opt.split_lists = true;
  ConcurrentSim sim(model, opt);
  sim.reset(Val::Zero);
  std::vector<std::uint64_t> at(u.size(), kNever);
  for (std::size_t i = 0; i < p.size(); ++i) {
    sim.clear_status_log();
    sim.apply_vector(p[i]);
    for (const StatusChange& ch : sim.status_log()) {
      if (ch.status == Detect::Hard && at[ch.fault] == kNever) at[ch.fault] = i;
    }
  }

  SerialOptions so;
  so.ff_init = Val::Zero;
  const std::span<const std::vector<Val>> all(p.vectors());
  EXPECT_EQ(sim.status(), serial_fault_sim(c, u, all, so).status);
  // Serial detection vectors, one prefix at a time.
  std::vector<std::uint64_t> serial_at(u.size(), kNever);
  for (std::size_t i = 0; i < p.size(); ++i) {
    const SerialResult r = serial_fault_sim(c, u, all.first(i + 1), so);
    for (std::uint32_t id = 0; id < u.size(); ++id) {
      if (r.status[id] == Detect::Hard && serial_at[id] == kNever) {
        serial_at[id] = i;
      }
    }
  }
  EXPECT_EQ(at, serial_at);
  std::size_t wide_hard = 0;
  for (const std::uint32_t id : wide_sited) {
    wide_hard += sim.status()[id] == Detect::Hard;
  }
  EXPECT_GT(wide_hard, 0u) << "of " << wide_sited.size();
}

}  // namespace
}  // namespace cfs
