#include "core/sim_model.h"

#include <array>

#include "util/error.h"
#include "util/packed_state.h"

namespace cfs {

namespace {

// Packed good input index of each activation row: base-3 digit p of the
// row number is pin p's good value (0, X, 1), the inverse of the header's
// row map.  A k-pin gate uses rows [0, 3^k), whose digits above k are 0,
// i.e. pin code 0 outside the gate's pins.
constexpr std::array<std::uint8_t, 81> kRowInput = [] {
  constexpr std::uint8_t kCode[3] = {code(Val::Zero), code(Val::X),
                                     code(Val::One)};
  std::array<std::uint8_t, 81> t{};
  for (unsigned r = 0; r < t.size(); ++r) {
    unsigned in = 0;
    for (unsigned p = 0, digits = r; p < SimModel::kMaxRowPins;
         ++p, digits /= 3) {
      in |= unsigned{kCode[digits % 3]} << (2 * p);
    }
    t[r] = static_cast<std::uint8_t>(in);
  }
  return t;
}();

// Append `rows`, narrowed to T, to `dst`; returns the first row's index.
template <class T>
std::uint32_t append_rows(std::vector<T>& dst,
                          const std::vector<std::uint64_t>& rows) {
  const auto off = static_cast<std::uint32_t>(dst.size());
  for (const std::uint64_t r : rows) dst.push_back(static_cast<T>(r));
  return off;
}

}  // namespace

SimModel::SimModel(const Circuit& c, const FaultUniverse& u,
                   const MacroFaultMap* mmap)
    : c_(&c), u_(&u), mmap_(mmap) {
  const std::size_t n = c.num_gates();
  const std::size_t nf = u.size();

  // Detect transition mode and validate homogeneity.
  for (std::uint32_t id = 0; id < nf; ++id) {
    if (u[id].type == FaultType::Transition) {
      transition_mode_ = true;
      break;
    }
  }
  if (transition_mode_) {
    if (mmap_ != nullptr) {
      throw Error(
          "transition faults cannot be simulated on a macro-extracted "
          "circuit (no temporal model for functional faults)");
    }
    for (std::uint32_t id = 0; id < nf; ++id) {
      if (u[id].type != FaultType::Transition) {
        throw Error("mixed stuck-at/transition universes are not supported");
      }
      if (u[id].pin == kFaultOutPin) {
        throw Error("transition faults must sit on input pins");
      }
    }
  }
  if (mmap_ && mmap_->mapped.size() != nf) {
    throw Error("MacroFaultMap does not match the fault universe");
  }

  // Build descriptors, then the per-gate site-fault index in CSR form: a
  // counting pass sizes the offsets, a placement pass fills the flat array.
  // Ids are placed in ascending order, so each gate's span is sorted.
  descr_.resize(nf);
  for (std::uint32_t id = 0; id < nf; ++id) {
    FaultDescriptor& d = descr_[id];
    const Fault& f = u[id];
    d.type = f.type;
    if (mmap_) {
      const MappedFault& m = mmap_->mapped[id];
      d.site_gate = m.gate;
      d.site_pin = m.pin;
      d.forced = m.value;
      d.masked = m.masked;
      if (m.table != kNoGate) d.table = mmap_->tables[m.table].out.data();
    } else {
      d.site_gate = f.gate;
      d.site_pin = f.pin;
      d.forced = f.value;
    }
    if (d.site_gate >= n) throw Error("fault site out of range");
    if (d.site_pin != kFaultOutPin && d.site_pin >= c.num_fanins(d.site_gate)) {
      throw Error("fault site pin out of range");
    }
  }
  site_off_.assign(n + 1, 0);
  for (std::uint32_t id = 0; id < nf; ++id) {
    if (!descr_[id].masked) ++site_off_[descr_[id].site_gate + 1];
  }
  for (std::size_t g = 0; g < n; ++g) site_off_[g + 1] += site_off_[g];
  site_flat_.resize(site_off_[n]);
  {
    std::vector<std::uint32_t> cursor(site_off_.begin(), site_off_.end() - 1);
    for (std::uint32_t id = 0; id < nf; ++id) {
      if (!descr_[id].masked) site_flat_[cursor[descr_[id].site_gate]++] = id;
    }
  }

  driver_off_.assign(n + 1, 0);
  if (transition_mode_) {
    site_driver_.resize(nf);
    for (std::uint32_t id = 0; id < nf; ++id) {
      const GateId drv = c.fanins(descr_[id].site_gate)[descr_[id].site_pin];
      site_driver_[id] = drv;
      ++driver_off_[drv + 1];
    }
    for (std::size_t g = 0; g < n; ++g) driver_off_[g + 1] += driver_off_[g];
    driver_flat_.resize(driver_off_[n]);
    std::vector<std::uint32_t> cursor(driver_off_.begin(),
                                      driver_off_.end() - 1);
    for (std::uint32_t id = 0; id < nf; ++id) {
      driver_flat_[cursor[site_driver_[id]]++] = id;  // ascending per driver
    }
  }
  build_activation_rows();
}

// One row per good input combination over {0, X, 1}, 3^k rows for a
// k-pin gate, each row as narrow as the gate's site count allows.
void SimModel::build_activation_rows() {
  const Circuit& c = *c_;
  row_ref_.assign(c.num_gates(), RowRef{});
  std::vector<std::uint64_t> bits;
  std::vector<Val> row_out;  // good output of each row
  for (GateId g = 0; g < c.num_gates(); ++g) {
    const auto site = site_faults(g);
    const unsigned k = c.num_fanins(g);
    if (!is_combinational(c.kind(g)) || site.empty() || site.size() > 64 ||
        k > kMaxRowPins) {
      continue;
    }
    unsigned rows = 1;
    for (unsigned p = 0; p < k; ++p) rows *= 3;
    row_out.resize(rows);
    for (unsigned r = 0; r < rows; ++r) {
      row_out[r] = c.eval(g, GateState{kRowInput[r]});
    }
    // One column per site fault: the rows where it, with every pin at its
    // good value, differs from the good machine -- ConcurrentSim::
    // eval_element's rules (pin forcing, macro table, output forcing),
    // set wherever the merge would emit an element, because the output or
    // a pin differs.  Good states never hold code 1, so pin codes compare
    // directly.
    bits.assign(rows, 0);
    for (std::size_t j = 0; j < site.size(); ++j) {
      const FaultDescriptor& d = descr_[site[j]];
      if (d.site_pin != kFaultOutPin) {
        // A pin fault differs where its pin does not already hold the
        // value it leaves unchanged: a stuck-at's forced value, or the
        // complement of a transition's target.  A transition is then only
        // a candidate: its previous value decides at run time.  With the
        // pin unchanged, a table may still give another output.
        const unsigned sh = 2u * d.site_pin;
        const unsigned keep = code(
            d.type == FaultType::Transition ? v_not(d.forced) : d.forced);
        for (unsigned r = 0; r < rows; ++r) {
          const unsigned in = kRowInput[r];
          const bool differs =
              ((in >> sh) & 3u) != keep ||
              (d.table != nullptr && from_code(d.table[in]) != row_out[r]);
          bits[r] |= std::uint64_t{differs} << j;
        }
      } else if (d.table != nullptr) {
        // A functional fault: its table gives another output.
        for (unsigned r = 0; r < rows; ++r) {
          bits[r] |=
              std::uint64_t{from_code(d.table[kRowInput[r]]) != row_out[r]}
              << j;
        }
      } else if (d.type == FaultType::StuckAt) {
        // A stuck-at output: the forced value is not the good output.
        for (unsigned r = 0; r < rows; ++r) {
          bits[r] |= std::uint64_t{d.forced != row_out[r]} << j;
        }
      }
    }
    RowRef& ref = row_ref_[g];
    if (site.size() <= 8) {
      ref = {append_rows(rows8_, bits), 8};
    } else if (site.size() <= 16) {
      ref = {append_rows(rows16_, bits), 16};
    } else if (site.size() <= 32) {
      ref = {append_rows(rows32_, bits), 32};
    } else {
      ref = {append_rows(rows64_, bits), 64};
    }
  }
  rows8_.shrink_to_fit();
  rows16_.shrink_to_fit();
  rows32_.shrink_to_fit();
  rows64_.shrink_to_fit();
}

std::size_t SimModel::bytes() const {
  std::size_t b = descr_.capacity() * sizeof(FaultDescriptor);
  b += site_off_.capacity() * sizeof(std::uint32_t);
  b += site_flat_.capacity() * sizeof(std::uint32_t);
  b += site_driver_.capacity() * sizeof(GateId);
  b += driver_off_.capacity() * sizeof(std::uint32_t);
  b += driver_flat_.capacity() * sizeof(std::uint32_t);
  b += row_ref_.capacity() * sizeof(RowRef);
  b += rows8_.capacity() * sizeof(std::uint8_t);
  b += rows16_.capacity() * sizeof(std::uint16_t);
  b += rows32_.capacity() * sizeof(std::uint32_t);
  b += rows64_.capacity() * sizeof(std::uint64_t);
  if (mmap_) b += mmap_->bytes();
  return b;
}

}  // namespace cfs
