#include "netlist/circuit.h"

#include <algorithm>
#include <queue>

#include "util/error.h"

namespace cfs {

Circuit::Circuit(CircuitData data)
    : name_(std::move(data.name)),
      kinds_(std::move(data.kinds)),
      names_(std::move(data.names)),
      primary_inputs_(std::move(data.primary_inputs)),
      primary_outputs_(std::move(data.primary_outputs)),
      tables_of_(std::move(data.tables_of)),
      tables_(std::move(data.tables)) {
  const std::size_t n = kinds_.size();
  if (names_.size() != n || data.fanins.size() != n) {
    throw Error("circuit '" + name_ + "': inconsistent gate arrays");
  }
  if (tables_of_.empty()) tables_of_.assign(n, kNoGate);
  if (tables_of_.size() != n) {
    throw Error("circuit '" + name_ + "': inconsistent table map");
  }

  // Arity validation and CSR fanins.
  fanin_off_.resize(n + 1, 0);
  for (std::size_t g = 0; g < n; ++g) {
    const auto& fi = data.fanins[g];
    const GateKind k = kinds_[g];
    const auto [lo, hi] = arity(k == GateKind::Macro ? GateKind::And : k);
    if (fi.size() < lo || fi.size() > hi) {
      throw Error("gate '" + names_[g] + "' (" + std::string(kind_name(k)) +
                  ") has illegal fanin count " + std::to_string(fi.size()));
    }
    if (k == GateKind::Macro) {
      if (tables_of_[g] == kNoGate || tables_of_[g] >= tables_.size()) {
        throw Error("macro gate '" + names_[g] + "' has no truth table");
      }
      if (tables_[tables_of_[g]].num_inputs != fi.size()) {
        throw Error("macro gate '" + names_[g] + "' table arity mismatch");
      }
    }
    fanin_off_[g + 1] = fanin_off_[g] + static_cast<std::uint32_t>(fi.size());
  }
  fanin_flat_.reserve(fanin_off_[n]);
  for (std::size_t g = 0; g < n; ++g) {
    for (GateId f : data.fanins[g]) {
      if (f >= n) {
        throw Error("gate '" + names_[g] + "' references out-of-range fanin");
      }
      fanin_flat_.push_back(f);
    }
  }

  // Fanouts.
  fanout_off_.assign(n + 1, 0);
  for (std::size_t g = 0; g < n; ++g) {
    for (GateId f : fanins(static_cast<GateId>(g))) ++fanout_off_[f + 1];
  }
  for (std::size_t g = 0; g < n; ++g) fanout_off_[g + 1] += fanout_off_[g];
  fanout_flat_.resize(fanout_off_[n]);
  {
    std::vector<std::uint32_t> cursor(fanout_off_.begin(),
                                      fanout_off_.end() - 1);
    for (std::size_t g = 0; g < n; ++g) {
      const auto fi = fanins(static_cast<GateId>(g));
      for (std::size_t p = 0; p < fi.size(); ++p) {
        fanout_flat_[cursor[fi[p]]++] =
            Fanout{static_cast<GateId>(g), static_cast<std::uint16_t>(p)};
      }
    }
  }

  // PO flags.
  po_flag_.assign(n, 0);
  for (GateId g : primary_outputs_) {
    if (g >= n) throw Error("primary output id out of range");
    po_flag_[g] = 1;
  }

  // DFF list in gate-id order.
  for (std::size_t g = 0; g < n; ++g) {
    if (kinds_[g] == GateKind::Dff) dffs_.push_back(static_cast<GateId>(g));
  }

  // Levelization by Kahn's algorithm over combinational edges.  DFF gates
  // and PIs are sources (level 0); a DFF's D input is consumed at the frame
  // boundary, so the edge fanin->DFF does not constrain levels.
  levels_.assign(n, 0);
  std::vector<std::uint32_t> pending(n, 0);
  std::queue<GateId> ready;
  std::size_t comb_count = 0;
  for (std::size_t g = 0; g < n; ++g) {
    if (is_combinational(kinds_[g])) {
      pending[g] = num_fanins(static_cast<GateId>(g));
      ++comb_count;
      if (pending[g] == 0) ready.push(static_cast<GateId>(g));
    } else {
      ready.push(static_cast<GateId>(g));
    }
  }
  std::size_t processed_comb = 0;
  while (!ready.empty()) {
    const GateId g = ready.front();
    ready.pop();
    if (is_combinational(kinds_[g])) {
      ++processed_comb;
      unsigned lvl = 0;
      for (GateId f : fanins(g)) lvl = std::max(lvl, levels_[f] + 1);
      levels_[g] = lvl;
      topo_.push_back(g);
      num_levels_ = std::max(num_levels_, lvl + 1);
    }
    for (const Fanout& fo : fanouts(g)) {
      if (!is_combinational(kinds_[fo.gate])) continue;
      if (--pending[fo.gate] == 0) ready.push(fo.gate);
    }
  }
  if (processed_comb != comb_count) {
    throw Error("circuit '" + name_ + "' contains a combinational cycle");
  }
  std::stable_sort(topo_.begin(), topo_.end(),
                   [&](GateId a, GateId b) { return levels_[a] < levels_[b]; });
  if (num_levels_ == 0) num_levels_ = 1;

  // Per-gate table-eval descriptors: every combinational gate evaluates by
  // lookup alone.  Macro gates index their own truth table (max_inputs is
  // capped well below kEvalChunkPins); other kinds share the per-(kind,
  // arity) registry tables, with gates wider than kEvalChunkPins composing
  // two chunk reductions through a join table.
  eval_lo_.assign(n, nullptr);
  eval_hi_.assign(n, nullptr);
  eval_join_.assign(n, nullptr);
  eval_mask_.assign(n, 0);
  eval_hi_mask_.assign(n, 0);
  for (std::size_t g = 0; g < n; ++g) {
    const GateKind k = kinds_[g];
    const unsigned nf = num_fanins(static_cast<GateId>(g));
    if (k == GateKind::Macro) {
      eval_lo_[g] = tables_[tables_of_[g]].out.data();
      eval_mask_[g] = static_cast<std::uint32_t>(
          (std::size_t{1} << (2 * nf)) - 1);
    } else if (is_combinational(k) && nf >= 1) {
      const EvalTable t = eval_table(k, nf);
      eval_lo_[g] = t.lo;
      eval_hi_[g] = t.hi;
      eval_join_[g] = t.join;
      eval_mask_[g] = t.lo_mask;
      eval_hi_mask_[g] = t.hi_mask;
    }
  }

  by_name_.reserve(n);
  for (std::size_t g = 0; g < n; ++g) {
    if (!by_name_.emplace(names_[g], static_cast<GateId>(g)).second) {
      throw Error("duplicate signal name '" + names_[g] + "'");
    }
  }
}

GateId Circuit::find(std::string_view name) const {
  const auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? kNoGate : it->second;
}

std::size_t Circuit::bytes() const {
  std::size_t b = 0;
  b += kinds_.capacity() * sizeof(GateKind);
  b += fanin_off_.capacity() * sizeof(std::uint32_t);
  b += fanout_off_.capacity() * sizeof(std::uint32_t);
  b += fanin_flat_.capacity() * sizeof(GateId);
  b += fanout_flat_.capacity() * sizeof(Fanout);
  b += levels_.capacity() * sizeof(std::uint32_t);
  b += po_flag_.capacity();
  b += topo_.capacity() * sizeof(GateId);
  b += tables_of_.capacity() * sizeof(std::uint32_t);
  b += eval_lo_.capacity() * sizeof(void*);
  b += eval_hi_.capacity() * sizeof(void*);
  b += eval_join_.capacity() * sizeof(void*);
  b += eval_mask_.capacity() * sizeof(std::uint32_t);
  b += eval_hi_mask_.capacity() * sizeof(std::uint32_t);
  for (const TruthTable& t : tables_) b += t.bytes();
  return b;
}

Circuit::Stats Circuit::stats() const {
  Stats s;
  s.num_pis = primary_inputs_.size();
  s.num_pos = primary_outputs_.size();
  s.num_dffs = dffs_.size();
  s.num_levels = num_levels_;
  for (GateId g = 0; g < num_gates(); ++g) {
    if (is_combinational(kinds_[g])) ++s.num_comb_gates;
    s.max_fanin = std::max<std::size_t>(s.max_fanin, num_fanins(g));
    s.max_fanout = std::max<std::size_t>(s.max_fanout, num_fanouts(g));
  }
  return s;
}

}  // namespace cfs
