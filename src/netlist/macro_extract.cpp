#include "netlist/macro_extract.h"

#include <algorithm>
#include <unordered_set>

#include "util/dualrail.h"
#include "util/error.h"

namespace cfs {

namespace {

// Dual-rail pattern of macro pin p (p < 3) across the 64 entries of one
// table word.  Entry idx gives pin p the code (idx >> 2p) & 3 read through
// from_code, so code 1 is X: L = (code == 3), H = (code != 0).  A word's 64
// entries run through every code combination of pins 0-2, so each of those
// pins has one fixed pattern; pins 3 and up are constant across a word.
constexpr Word64 low_pin_pattern(unsigned p) {
  Word64 w;
  for (unsigned lane = 0; lane < 64; ++lane) {
    const unsigned c = (lane >> (2 * p)) & 3u;
    if (c == 3) w.l |= 1ull << lane;
    if (c != 0) w.h |= 1ull << lane;
  }
  return w;
}
constexpr Word64 kLowPinPatterns[3] = {low_pin_pattern(0), low_pin_pattern(1),
                                       low_pin_pattern(2)};

Word64 pin_word(unsigned p, std::size_t word) {
  if (p < 3) return kLowPinPatterns[p];
  return splat64(from_code(static_cast<std::uint8_t>(word >> (2 * (p - 3)))));
}

// Truth table of the region of `m`, 64 entries per pass: every signal holds
// one dual-rail word whose lane i is entry 64 * word + i.  A stuck-at value
// is forced at (site_gate, site_pin) unless site_gate is kNoGate; an input
// pin fault replaces that pin of the site gate only, an output fault the
// site gate's result for every reader.
TruthTable build_table(const Circuit& orig, const MacroInfo& m,
                       GateId site_gate, std::uint16_t site_pin, Val stuck) {
  const unsigned k = static_cast<unsigned>(m.ext_drivers.size());
  const std::size_t n = m.internal.size();
  // Slots: macro pins 0..k-1, internal gate i at k + i, the forced word last.
  const std::size_t forced = k + n;
  std::vector<std::uint32_t> operand;
  std::vector<std::size_t> first(n + 1);
  std::size_t out_site = n;  // internal index whose result is forced
  std::size_t max_pins = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const GateId g = m.internal[i];
    const auto fi = orig.fanins(g);
    first[i] = operand.size();
    max_pins = std::max(max_pins, fi.size());
    for (std::size_t p = 0; p < fi.size(); ++p) {
      // Earlier internal results first: internal is in topo order.
      std::size_t s = forced;
      for (std::size_t j = 0; j < i && s == forced; ++j) {
        if (m.internal[j] == fi[p]) s = k + j;
      }
      for (unsigned q = 0; q < k && s == forced; ++q) {
        if (m.ext_drivers[q] == fi[p]) s = q;
      }
      if (s == forced) throw Error("macro region has unmapped external driver");
      if (g == site_gate && site_pin == p) s = forced;
      operand.push_back(static_cast<std::uint32_t>(s));
    }
    if (g == site_gate && site_pin == kOutputPin) out_site = i;
  }
  first[n] = operand.size();

  TruthTable t;
  t.num_inputs = static_cast<std::uint8_t>(k);
  t.out.resize(std::size_t{1} << (2 * k));
  std::vector<Word64> slot(forced + 1);
  slot[forced] = splat64(stuck);
  std::vector<Word64> pins(max_pins);
  for (std::size_t base = 0; base < t.out.size(); base += 64) {
    for (unsigned p = 0; p < k; ++p) slot[p] = pin_word(p, base / 64);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t np = first[i + 1] - first[i];
      for (std::size_t p = 0; p < np; ++p) {
        pins[p] = slot[operand[first[i] + p]];
      }
      slot[k + i] = i == out_site
                        ? slot[forced]
                        : eval_kind_word(orig.kind(m.internal[i]),
                                         {pins.data(), np});
    }
    // The root is last; tables of k <= 2 fill only the low lanes.
    const Word64 root = slot[k + n - 1];
    const std::size_t lanes = std::min<std::size_t>(64, t.out.size() - base);
    for (unsigned lane = 0; lane < lanes; ++lane) {
      t.out[base + lane] = code(w_get(root, lane));
    }
  }
  return t;
}

}  // namespace

TruthTable build_macro_table(const Circuit& orig, const MacroInfo& m) {
  return build_table(orig, m, kNoGate, 0, Val::X);
}

TruthTable build_macro_table_faulty(const Circuit& orig, const MacroInfo& m,
                                    GateId site_gate, std::uint16_t site_pin,
                                    Val stuck) {
  return build_table(orig, m, site_gate, site_pin, stuck);
}

MacroExtraction extract_macros(const Circuit& orig, MacroOptions opt) {
  if (opt.max_inputs < 2 || opt.max_inputs > 6) {
    throw Error("MacroOptions::max_inputs must be in [2, 6]");
  }
  const std::size_t n = orig.num_gates();
  std::vector<std::uint8_t> claimed(n, 0);
  std::vector<MacroInfo> macros;

  // Walk combinational gates output-side first so a gate sees its consumers'
  // regions before it could become a root itself.
  const auto topo = orig.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId root = *it;
    if (claimed[root] || orig.kind(root) == GateKind::Macro) continue;

    MacroInfo m;
    m.root = root;
    std::unordered_set<GateId> internal{root};
    std::vector<GateId> ext;
    for (GateId f : orig.fanins(root)) {
      if (std::find(ext.begin(), ext.end(), f) == ext.end()) ext.push_back(f);
    }
    if (ext.size() > opt.max_inputs) {
      // Root alone already exceeds the cap; keep as a plain gate.
      claimed[root] = 1;
      continue;
    }

    // Greedy absorption until no external driver qualifies.
    bool grew = true;
    while (grew) {
      grew = false;
      for (std::size_t i = 0; i < ext.size(); ++i) {
        const GateId d = ext[i];
        if (claimed[d] || internal.count(d)) continue;
        if (!is_combinational(orig.kind(d)) ||
            orig.kind(d) == GateKind::Macro || orig.is_po(d)) {
          continue;
        }
        bool all_inside = true;
        for (const Fanout& fo : orig.fanouts(d)) {
          if (!internal.count(fo.gate)) {
            all_inside = false;
            break;
          }
        }
        if (!all_inside) continue;
        // Tentative new external set.
        std::vector<GateId> next_ext;
        next_ext.reserve(ext.size() + orig.num_fanins(d));
        for (std::size_t j = 0; j < ext.size(); ++j) {
          if (j != i) next_ext.push_back(ext[j]);
        }
        for (GateId f : orig.fanins(d)) {
          if (internal.count(f)) continue;
          if (std::find(next_ext.begin(), next_ext.end(), f) ==
              next_ext.end()) {
            next_ext.push_back(f);
          }
        }
        if (next_ext.size() > opt.max_inputs) continue;
        internal.insert(d);
        ext = std::move(next_ext);
        grew = true;
        break;  // restart scan: ext changed under us
      }
    }

    if (internal.size() < opt.min_gates) {
      claimed[root] = 1;
      continue;
    }
    for (GateId g : internal) claimed[g] = 1;
    m.internal.assign(internal.begin(), internal.end());
    std::sort(m.internal.begin(), m.internal.end(),
              [&](GateId a, GateId b) { return orig.level(a) < orig.level(b); });
    m.ext_drivers = std::move(ext);
    macros.push_back(std::move(m));
  }

  // Assemble the extracted circuit.
  std::vector<std::uint32_t> macro_of(n, kNoGate);
  std::vector<std::uint8_t> is_internal(n, 0);
  std::vector<GateId> root_macro(n, kNoGate);
  for (std::size_t mi = 0; mi < macros.size(); ++mi) {
    for (GateId g : macros[mi].internal) {
      macro_of[g] = static_cast<std::uint32_t>(mi);
      if (g != macros[mi].root) is_internal[g] = 1;
    }
    root_macro[macros[mi].root] = static_cast<GateId>(mi);
  }

  CircuitData data;
  data.name = orig.name() + "+macros";
  std::vector<GateId> gate_map(n, kNoGate);
  for (GateId g = 0; g < n; ++g) {
    if (is_internal[g]) continue;
    gate_map[g] = static_cast<GateId>(data.kinds.size());
    const bool as_macro = root_macro[g] != kNoGate;
    data.kinds.push_back(as_macro ? GateKind::Macro : orig.kind(g));
    data.names.push_back(orig.gate_name(g));
    data.fanins.emplace_back();  // filled below once all ids exist
    data.tables_of.push_back(kNoGate);
  }
  // Fanins and truth tables.
  for (GateId g = 0; g < n; ++g) {
    if (is_internal[g]) continue;
    const GateId ng = gate_map[g];
    std::vector<GateId>& fi = data.fanins[ng];
    if (root_macro[g] != kNoGate) {
      MacroInfo& m = macros[root_macro[g]];
      m.macro_gate = ng;
      for (GateId d : m.ext_drivers) fi.push_back(gate_map[d]);
      data.tables_of[ng] = static_cast<std::uint32_t>(data.tables.size());
      data.tables.push_back(build_macro_table(orig, m));
    } else {
      for (GateId d : orig.fanins(g)) fi.push_back(gate_map[d]);
    }
  }
  for (GateId g : orig.inputs()) data.primary_inputs.push_back(gate_map[g]);
  for (GateId g : orig.outputs()) data.primary_outputs.push_back(gate_map[g]);

  MacroExtraction result{Circuit(std::move(data)), std::move(gate_map),
                         std::move(macro_of), std::move(macros)};
  return result;
}

}  // namespace cfs
