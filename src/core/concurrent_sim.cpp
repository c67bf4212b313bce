#include "core/concurrent_sim.h"

#include <algorithm>

#include "faults/transition_model.h"
#include "util/error.h"
#include "util/prefetch.h"

namespace cfs {

ConcurrentSim::ConcurrentSim(const Circuit& c, const FaultUniverse& u,
                             CsimOptions opt, const MacroFaultMap* mmap)
    : ConcurrentSim(std::make_shared<SimModel>(c, u, mmap), opt) {}

ConcurrentSim::ConcurrentSim(std::shared_ptr<const SimModel> model,
                             CsimOptions opt, const FaultPartition* part,
                             unsigned shard_index,
                             const std::vector<std::uint8_t>* suspended)
    : model_(std::move(model)),
      c_(&model_->circuit()),
      descr_(model_->descriptors()),
      opt_(opt),
      transition_mode_(model_->transition_mode()),
      queue_(*c_) {
  const std::size_t n = c_->num_gates();
  const std::size_t nf = model_->num_faults();

  status_.assign(nf, Detect::None);
  excluded_.assign(nf, 0);
  if (part != nullptr) {
    if (part->num_faults() != nf) {
      throw Error("FaultPartition does not match the fault universe");
    }
    if (shard_index >= part->num_shards()) {
      throw Error("shard index out of range");
    }
    for (std::uint32_t id = 0; id < nf; ++id) {
      excluded_[id] = part->shard_of(id) == shard_index ? 0 : 1;
    }
    base_excluded_ = excluded_;
  }
  if (suspended != nullptr && !suspended->empty()) {
    if (suspended->size() != nf) {
      throw Error("suspension mask does not match the fault universe");
    }
    for (std::uint32_t id = 0; id < nf; ++id) {
      if ((*suspended)[id]) excluded_[id] = 1;
    }
  }
  std::size_t active = 0;
  for (std::uint32_t id = 0; id < nf; ++id) active += excluded_[id] == 0;

  if (transition_mode_) prev_pin_val_.assign(nf, Val::X);

  good_state_.resize(n);
  head_vis_.assign(n, 0);
  head_inv_.assign(n, 0);
  site_live_.assign(n, 0);  // counted by reset() below
  // Pre-size the element arena from this engine's active fault universe (the
  // shard's, under a partition, minus suspensions) so the early vectors never
  // grow it; an enforced budget caps the pre-size too.
  std::size_t reserve = opt_.reserve_elements != 0 ? opt_.reserve_elements
                                                   : active + 1;
  if (opt_.max_elements != 0) {
    // +1: pool slot 0 is the sentinel, which the budget must always admit.
    pool_.set_budget(opt_.max_elements + 1);
    reserve = std::min(reserve, opt_.max_elements + 1);
  }
  pool_.reserve(reserve);
  // Pool slot 0 is the shared terminal element ("a fault identifier which
  // lies in high end memory location to avoid checking end of list").
  const std::uint32_t s = pool_.alloc();
  pool_[s] = Element{kSentinelId, s, 0};

  latch_good_.resize(c_->dffs().size());
  latch_lists_.resize(c_->dffs().size());
  levels_.resize(c_->num_levels());

  reset();
}

// ---------------------------------------------------------------------------
// List primitives
// ---------------------------------------------------------------------------

void ConcurrentSim::free_list(std::uint32_t& head) {
  std::uint32_t cur = head;
  while (pool_[cur].fault_id != kSentinelId) {
    CFS_COUNT(counters_, ElementsFreed);
    const std::uint32_t nxt = pool_[cur].next;
    pool_.free(cur);
    cur = nxt;
  }
  head = 0;  // sentinel
}

std::uint32_t ConcurrentSim::build_list(
    const std::vector<std::pair<std::uint32_t, GateState>>& items) {
  std::uint32_t head = 0;  // sentinel
  std::uint32_t prev = kNullIndex;
  for (const auto& [id, st] : items) {
    CFS_COUNT(counters_, ElementsAllocated);
    const std::uint32_t e = pool_.alloc();
    pool_[e] = Element{id, 0, st};
    if (prev == kNullIndex) {
      head = e;
    } else {
      pool_[prev].next = e;
    }
    prev = e;
  }
  return head;
}

// The differential list update at the heart of the in-place merge: make the
// list at `head` hold exactly `items` (sorted by ascending fault id, never
// containing dropped faults) by reusing every surviving element in place,
// splicing insertions and removals through one forward cursor, and leaving
// the list completely untouched when the produced sequence equals the
// stored one.  Unlinked elements are parked in `salvage_` rather than freed
// immediately; an insert later in the same update scope resplices one
// (patching id and state) instead of taking a pool round trip.  The caller
// owns the scope: merge_gate flushes after both the visible and invisible
// applies of a gate -- so a migration between the two halves of the gate's
// list is a move, not a free+alloc -- and the other call sites flush after
// their single apply.  Pool traffic is therefore proportional to the *net*
// churn between the two sequences, not to their length or even their gross
// churn.  Returns true when the visible (id, output) sequence -- as
// selected by `track` -- changed.
bool ConcurrentSim::apply_list_inplace(
    std::uint32_t& head,
    std::span<const std::pair<std::uint32_t, GateState>> items,
    ChangeTrack track, Val old_good_out, Val new_good_out,
    std::span<const std::pair<std::uint32_t, GateState>> migrate,
    obs::Counter mig_counter) {
  switch (track) {
    case ChangeTrack::None:
      return apply_list_impl<ChangeTrack::None>(
          head, items, old_good_out, new_good_out, migrate, mig_counter);
    case ChangeTrack::All:
      return apply_list_impl<ChangeTrack::All>(
          head, items, old_good_out, new_good_out, migrate, mig_counter);
    case ChangeTrack::VisibleOnly:
    default:
      return apply_list_impl<ChangeTrack::VisibleOnly>(
          head, items, old_good_out, new_good_out, migrate, mig_counter);
  }
}

template <ConcurrentSim::ChangeTrack track>
bool ConcurrentSim::apply_list_impl(
    std::uint32_t& head,
    std::span<const std::pair<std::uint32_t, GateState>> items,
    Val old_good_out, Val new_good_out,
    std::span<const std::pair<std::uint32_t, GateState>> migrate,
    obs::Counter mig_counter) {
  bool changed = false;
  bool touched = false;
  std::uint32_t prev = kNullIndex;
  std::uint32_t cur = head;
#if CFS_OBS_ENABLED
  std::size_t mig_i = 0;       // moving pointer into `migrate` (ids ascend)
  std::uint64_t survived = 0;  // bulk-settled ElementsReused/Traversed
#else
  (void)migrate;
  (void)mig_counter;
#endif
  // One resolved element pointer per position: every test and patch below
  // goes through `e` instead of re-running the pool's chunk indirection.
  Element* e = &pool_[cur];
  // Free the element `cur` (advancing past it), recording whether its
  // disappearance removes an entry from the old visible sequence.
  const auto unlink_free = [&] {
    const std::uint32_t nxt = e->next;
    if (dropped(e->fault_id)) {
      // Lazy event-driven dropping: the fault was never in the visible
      // sequence the change test compares (snapshots skip dropped ids).
      CFS_COUNT(counters_, DropUnlinksLazy);
    } else {
      if (track == ChangeTrack::All ||
          (track == ChangeTrack::VisibleOnly &&
           state_out(e->state) != old_good_out)) {
        changed = true;
      }
#if CFS_OBS_ENABLED
      // Removals ascend with the cursor, so the migration census is one
      // moving pointer: a non-dropped removal present in the other half's
      // produced sequence is a migration.
      while (mig_i < migrate.size() && migrate[mig_i].first < e->fault_id) {
        ++mig_i;
      }
      if (mig_i < migrate.size() && migrate[mig_i].first == e->fault_id) {
        counters_.bump(mig_counter);
        ++mig_i;
      }
#endif
    }
    if (prev == kNullIndex) {
      head = nxt;
    } else {
      pool_[prev].next = nxt;
    }
    salvage_.push_back(cur);
    touched = true;
    cur = nxt;
    e = &pool_[cur];
  };
  for (const auto& [id, st] : items) {
    while (e->fault_id < id) unlink_free();
    if (e->fault_id == id) {
      // The fault survived: patch its state in place, no pool traffic.
      // (ElementsReused / ElementsTraversed settle in bulk below.)
#if CFS_OBS_ENABLED
      ++survived;
#endif
      if constexpr (track != ChangeTrack::None) {
        const Val old_out = state_out(e->state);
        const Val new_out = state_out(st);
        if constexpr (track == ChangeTrack::All) {
          changed |= old_out != new_out;
        } else {
          const bool old_vis = old_out != old_good_out;
          const bool new_vis = new_out != new_good_out;
          if (old_vis != new_vis || (old_vis && old_out != new_out)) {
            changed = true;
          }
        }
      }
      if (e->state != st) {
        e->state = st;
        touched = true;
      }
      prev = cur;
      cur = e->next;
      e = &pool_[cur];
      // The survivor walk touches every element exactly once in link order;
      // fetch the one after the new cursor now so the next iteration's
      // id-compare does not stall on it.
      CFS_PREFETCH(&pool_[e->next]);
    } else {
      // New divergence: record the insert against the kept predecessor;
      // the splice itself waits for salvage_flush() so any removal in this
      // scope can donate its element.
      pending_.push_back(PendingInsert{&head, prev, id, st});
      touched = true;
      if (track == ChangeTrack::All ||
          (track == ChangeTrack::VisibleOnly &&
           state_out(st) != new_good_out)) {
        changed = true;
      }
    }
  }
  while (e->fault_id != kSentinelId) unlink_free();
#if CFS_OBS_ENABLED
  CFS_COUNT_N(counters_, ElementsReused, survived);
  CFS_COUNT_N(counters_, ElementsTraversed, survived);
#endif
  CFS_COUNT(counters_, SentinelHits);
  if (!touched) CFS_COUNT(counters_, ListsUnchanged);
  return changed;
}

// End of an in-place update scope: splice the pending inserts, drawing
// elements from the scope's own removals first, then return the leftovers
// to the pool.  Only a removal nothing resliced counts as ElementsFreed and
// only an insert no removal could donate to counts as ElementsAllocated --
// a salvaged-and-respliced element never touches the pool at all.
void ConcurrentSim::salvage_flush_slow() {
  // Consecutive inserts behind the same anchor chain off one another so
  // they land in recorded (ascending-id) order.
  const std::uint32_t* prev_head = nullptr;
  std::uint32_t prev_anchor = kNullIndex;
  std::uint32_t chain = kNullIndex;
  for (const PendingInsert& p : pending_) {
    const std::uint32_t after =
        p.head == prev_head && p.anchor == prev_anchor ? chain : p.anchor;
    std::uint32_t e;
    if (!salvage_.empty()) {
      CFS_COUNT(counters_, ElementsRecycled);
      e = salvage_.back();
      salvage_.pop_back();
    } else {
      CFS_COUNT(counters_, ElementsAllocated);
      e = pool_.alloc();
    }
    if (after == kNullIndex) {
      pool_[e] = Element{p.id, *p.head, p.state};
      *p.head = e;
    } else {
      pool_[e] = Element{p.id, pool_[after].next, p.state};
      pool_[after].next = e;
    }
    prev_head = p.head;
    prev_anchor = p.anchor;
    chain = e;
  }
  pending_.clear();
  for (const std::uint32_t e : salvage_) {
    CFS_COUNT(counters_, ElementsFreed);
    pool_.free(e);
  }
  salvage_.clear();
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

Val ConcurrentSim::transition_forced(std::uint32_t fault, Val cv) const {
  // Table 1 of the paper: a transition towards T that is under way has not
  // completed at sampling time, so the pin still shows the previous value.
  return transition_hold_value(prev_pin_val_[fault], cv, descr_[fault].forced);
}

Val ConcurrentSim::eval_element(GateId g, std::uint32_t fault,
                                GateState& st) {
  const FaultDescriptor& d = descr_[fault];
  ++elements_evaluated_;
  if (d.site_gate == g && d.site_pin != kFaultOutPin) {
    const Val cv = state_get(st, d.site_pin);
    Val v;
    if (d.type == FaultType::StuckAt) {
      v = d.forced;
    } else if (pass1_) {
      v = transition_forced(fault, cv);
      if (v != cv) {
        // Remember that this site held a transition: pass 2 must re-merge.
        if (!held_flag_[g]) {
          held_flag_[g] = 1;
          held_gates_.push_back(g);
        }
      }
    } else {
      v = cv;  // pass 2: the transition fires
    }
    st = state_set(st, d.site_pin, v);
  }
  Val out;
  if (d.table != nullptr && d.site_gate == g) {
    CFS_COUNT(counters_, MacroTableLookups);
    out = from_code(d.table[state_input_index(st, c_->num_fanins(g))]);
  } else {
    out = eval_gate(g, st);
  }
  if (d.site_gate == g && d.site_pin == kFaultOutPin &&
      d.type == FaultType::StuckAt && d.table == nullptr) {
    out = d.forced;
  }
  st = state_set_out(st, out);
  return out;
}

// ---------------------------------------------------------------------------
// The multi-list merge (paper §2: "the multi-list traversal technique is
// employed to copy the logic values from the source fault lists to the
// destination fault list")
// ---------------------------------------------------------------------------

bool ConcurrentSim::merge_gate(GateId g, Val new_good_out) {
  const unsigned nf = c_->num_fanins(g);
  const auto fanins = c_->fanins(g);
  // Nothing to merge: no site fault left to introduce, no list at the gate
  // and nothing on a fanin's visible list, so the merge would produce two
  // empty lists equal to the stored ones.  The rebuild oracle always takes
  // the full path.
  if (site_live_[g] == 0 && head_vis_[g] == 0 && head_inv_[g] == 0 &&
      !opt_.rebuild_lists) {
    unsigned p = 0;
    while (p < nf && head_vis_[fanins[p]] == 0) ++p;
    if (p == nf) {
      CFS_COUNT(counters_, MergesSkipped);
      // The lists the full path would have applied without touching them.
      CFS_COUNT_N(counters_, ListsUnchanged, opt_.split_lists ? 2 : 1);
      return false;
    }
  }
  const GateState good = good_state_[g];
  const Val old_good_out = state_out(good);

  // Fanin cursors (visible lists in split mode; in combined mode invisible
  // elements carry out == good, so reading them is harmless).  Quiet
  // variants: the traversal census settles in bulk after the walk.
  Cursor fc[kMaxPins];
  for (unsigned p = 0; p < nf; ++p) {
    cursor_init_quiet(fc[p], &head_vis_[fanins[p]]);
  }
  const auto site = model_->site_faults(g);
  std::size_t si = 0;
  while (si < site.size() && skip_site(site[si])) ++si;

  scratch_vis_.clear();
  scratch_inv_.clear();
  const GateState in_mask = input_mask(nf);

#if CFS_OBS_ENABLED
  std::uint64_t merge_steps = 0;   // merge-loop iterations == element evals
  std::uint64_t merge_walked = 0;  // source-list elements consumed
#endif
  // One pass in ascending fault-id order: assemble each element's pin
  // state, evaluate it, and classify it.  Only *site* faults of g ever
  // consult their descriptor (pin forcing, macro tables, output forcing):
  // a fault sited elsewhere is, at g, a plain gate evaluation of its
  // assembled pin state.  Site membership needs no descriptor load either
  // -- the site span is always one of the merge sources, so the span
  // cursor `si` identifies every sited element, including one looping back
  // through flip-flops into a fanin list.
  for (;;) {
    std::uint32_t m = si < site.size() ? site[si] : kSentinelId;
    for (unsigned p = 0; p < nf; ++p) m = std::min(m, fc[p].id);
    if (m == kSentinelId) break;
#if CFS_OBS_ENABLED
    ++merge_steps;
#endif
    // Start from the good pins wholesale (pin codes in good states are
    // always normalized, so the masked copy equals a per-pin state_get/
    // state_set rebuild) and override only the diverging pins -- for the
    // typical fault that diverges on one pin of a wide gate this touches
    // one 2-bit field instead of all of them.  Advancing a matching cursor
    // in the same loop fuses the gather and advance passes.
    GateState st = good & in_mask;
    for (unsigned p = 0; p < nf; ++p) {
      if (fc[p].id == m) {
        st = state_set(st, p, state_out(pool_[fc[p].cur].state));
        cursor_advance_quiet(fc[p]);
#if CFS_OBS_ENABLED
        ++merge_walked;
#endif
      }
    }
    Val out;
    if (si < site.size() && site[si] == m) {
      out = eval_element(g, m, st);
      ++si;
      while (si < site.size() && skip_site(site[si])) ++si;
    } else {
      ++elements_evaluated_;
      out = eval_gate(g, st);
    }
    // Visible: the output disagrees with the new good output.  Invisible:
    // it agrees but some input pin differs (the output slot sits above
    // in_mask, so testing the pin state is exact).  Converged elements
    // emit nothing.
    if (out != new_good_out) {
      CFS_COUNT(counters_, ElementsCopied);
      scratch_vis_.emplace_back(m, state_set_out(st, out));
    } else if (((st ^ good) & in_mask) != 0) {
      CFS_COUNT(counters_, ElementsCopied);
      (opt_.split_lists ? scratch_inv_ : scratch_vis_)
          .emplace_back(m, state_set_out(st, out));
    }
  }
#if CFS_OBS_ENABLED
  // Bulk census for the quiet cursors above: every cursor visited exactly
  // its list's elements (each consumed once == merge_walked) plus one
  // sentinel.
  CFS_COUNT_N(counters_, ElementsTraversed, merge_walked);
  CFS_COUNT_N(counters_, SentinelHits, nf);
#endif

  // Work-attribution heatmaps: where the merge effort lands.  The produced
  // list length and divergence size are distribution samples; the level
  // profile pins evals/merges/traversals to the levelized axis.
  CFS_HIST(hists_, ListLength,
           static_cast<std::uint64_t>(scratch_vis_.size()) +
               static_cast<std::uint64_t>(scratch_inv_.size()));
  CFS_HIST(hists_, DivergenceSize,
           static_cast<std::uint64_t>(scratch_vis_.size()));
#if CFS_OBS_ENABLED
  CFS_LEVEL(levels_, c_->level(g), merge_steps, merge_walked);
#endif

#if CFS_OBS_ENABLED
  if (opt_.split_lists && opt_.rebuild_lists) {
    // Visible -> invisible: a new invisible element whose id is still
    // linked on the old visible list; invisible -> visible symmetrically.
    // Both lists are intact until the apply below; ids ascend and the
    // sentinel's maximal id bounds each walk.  (Dropped elements may still
    // be linked, but a produced id is never dropped, so they cannot match.)
    // Only the rebuild oracle still takes this standalone census; the
    // in-place applies below count the same migrations on their removal
    // walk for free (see apply_list_inplace's `migrate`).
    std::uint32_t cur = head_vis_[g];
    for (const auto& [id, st] : scratch_inv_) {
      while (pool_[cur].fault_id < id) cur = pool_[cur].next;
      if (pool_[cur].fault_id == id) {
        CFS_COUNT(counters_, VisToInvMigrations);
      }
    }
    cur = head_inv_[g];
    for (const auto& [id, st] : scratch_vis_) {
      while (pool_[cur].fault_id < id) cur = pool_[cur].next;
      if (pool_[cur].fault_id == id) {
        CFS_COUNT(counters_, InvToVisMigrations);
      }
    }
  }
#endif

  if (opt_.rebuild_lists) {
    // Naive reference: snapshot the old visible sequence, compare, then
    // tear the lists down and rebuild them from scratch.
    scratch_old_.clear();
    {
      Cursor cu;
      cursor_init(cu, &head_vis_[g]);
      while (cu.id != kSentinelId) {
        const Val out = state_out(pool_[cu.cur].state);
        if (opt_.split_lists || out != old_good_out) {
          scratch_old_.emplace_back(cu.id, out);
        }
        cursor_advance(cu);
      }
    }
    bool changed = false;
    std::size_t oi = 0;
    for (const auto& [id, st] : scratch_vis_) {
      const Val out = state_out(st);
      if (!opt_.split_lists && out == new_good_out) continue;  // invisible
      if (oi < scratch_old_.size() && scratch_old_[oi].first == id &&
          scratch_old_[oi].second == out) {
        ++oi;
      } else {
        changed = true;
        break;
      }
    }
    if (!changed) {
      // All produced visibles matched a prefix; any leftovers disappeared.
      std::size_t produced = 0;
      for (const auto& [id, st] : scratch_vis_) {
        if (!opt_.split_lists && state_out(st) == new_good_out) continue;
        ++produced;
      }
      changed = produced != scratch_old_.size();
    }
    free_list(head_vis_[g]);
    head_vis_[g] = build_list(scratch_vis_);
    if (opt_.split_lists) {
      free_list(head_inv_[g]);
      head_inv_[g] = build_list(scratch_inv_);
    }
    return changed;
  }

  // In-place differential apply: elements for surviving faults are patched
  // where they sit, insertions and removals splice through the cursor, and
  // an unchanged list is left untouched -- no teardown, no rebuild.
  const bool changed = apply_list_inplace(
      head_vis_[g], scratch_vis_,
      opt_.split_lists ? ChangeTrack::All : ChangeTrack::VisibleOnly,
      old_good_out, new_good_out, scratch_inv_,
      obs::Counter::VisToInvMigrations);
  if (opt_.split_lists) {
    apply_list_inplace(head_inv_[g], scratch_inv_, ChangeTrack::None,
                       old_good_out, new_good_out, scratch_vis_,
                       obs::Counter::InvToVisMigrations);
  }
  salvage_flush();
  return changed;
}

// ---------------------------------------------------------------------------
// Event processing
// ---------------------------------------------------------------------------

void ConcurrentSim::commit_good(GateId g, Val v) {
  good_state_[g] = state_set_out(good_state_[g], v);
  for (const Fanout& fo : c_->fanouts(g)) {
    good_state_[fo.gate] = state_set(good_state_[fo.gate], fo.pin, v);
    if (is_combinational(c_->kind(fo.gate))) queue_.schedule(fo.gate);
  }
}

void ConcurrentSim::settle() {
  finish_clock();
  propagate();
}

void ConcurrentSim::propagate() {
  queue_.drain_levels(
      [this](const GateId* gates, std::size_t n) { process_level(gates, n); });
}

void ConcurrentSim::process_level(const GateId* gates, std::size_t n) {
  // Good values first.  Every fanin of a level-L gate is strictly below L
  // and already settled, and gates of one level never feed each other, so
  // pre-evaluating the whole level reads exactly the states a per-gate
  // loop would have read.  With the batch oracle armed the settled good
  // values are already known: read them from the packed slab.
  lvl_good_.resize(n);
  if (good_oracle_ != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      lvl_good_[i] =
          w_get(good_oracle_[std::size_t{gates[i]} * good_oracle_stride_],
                good_oracle_lane_);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      lvl_good_[i] = eval_gate(gates[i], good_state_[gates[i]]);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const GateId g = gates[i];
    if (i + 1 < n) {
      CFS_PREFETCH(&good_state_[gates[i + 1]]);
      CFS_PREFETCH(&head_vis_[gates[i + 1]]);
    }
    const Val new_good = lvl_good_[i];
    const bool vis_changed = merge_gate(g, new_good);
    if (new_good != state_out(good_state_[g])) {
      commit_good(g, new_good);
    } else if (vis_changed) {
      for (const Fanout& fo : c_->fanouts(g)) {
        if (is_combinational(c_->kind(fo.gate))) queue_.schedule(fo.gate);
      }
    }
  }
}

void ConcurrentSim::refresh_source_site(GateId g) {
  // Rebuild the local fault list of a source gate (PI or DFF at reset):
  // only output stuck-at faults materialise here.
  scratch_vis_.clear();
  const Val good = state_out(good_state_[g]);
  for (std::uint32_t id : model_->site_faults(g)) {
    if (skip_site(id)) continue;
    const FaultDescriptor& d = descr_[id];
    if (d.type != FaultType::StuckAt || d.site_pin != kFaultOutPin) continue;
    if (d.forced == good) continue;  // not activated: no element
    scratch_vis_.emplace_back(id, state_set_out(GateState{0}, d.forced));
  }
  if (opt_.rebuild_lists) {
    free_list(head_vis_[g]);
    head_vis_[g] = build_list(scratch_vis_);
  } else {
    apply_list_inplace(head_vis_[g], scratch_vis_, ChangeTrack::None,
                       Val::X, Val::X);
    salvage_flush();
  }
}

void ConcurrentSim::reset(Val ff_init, bool clear_status) {
  if (clear_status) status_.assign(model_->num_faults(), Detect::None);
  // Every update scope flushes, but belt and braces before the pool is
  // reshaped underneath parked indices / recorded anchors.  The queue is
  // empty between sequences, but under an element budget reset() doubles
  // as a recovery path: a PoolBudgetError that escaped mid-settle leaves
  // pending events (and half-merged lists) behind.
  pending_.clear();
  salvage_.clear();
  queue_.clear();
  good_oracle_ = nullptr;  // a stale slab never survives a rebuild
  masters_pending_ = false;
  if (opt_.compact_pool || opt_.max_elements != 0) {
    // Compaction: forget the scrambled free list wholesale and re-dispense
    // slots from index 0.  The rebuild below then lays every list out
    // contiguously in build order, restoring traversal locality lost to
    // churn in the previous sequence.  Also the only safe teardown under
    // an element budget: after a PoolBudgetError escaped mid-merge the
    // per-list free walk would trust exactly the invariants the wreck
    // broke.
    pool_.reset();
    const std::uint32_t s = pool_.alloc();  // sentinel regains slot 0
    pool_[s] = Element{kSentinelId, s, 0};
    std::fill(head_vis_.begin(), head_vis_.end(), 0u);
    std::fill(head_inv_.begin(), head_inv_.end(), 0u);
  } else {
    for (GateId g = 0; g < c_->num_gates(); ++g) {
      free_list(head_vis_[g]);
      if (opt_.split_lists) free_list(head_inv_[g]);
    }
  }
  const std::vector<Val> flop_good(c_->dffs().size(), ff_init);
  rebuild_run_state(flop_good, nullptr, {});
}

// Shared tail of reset() and restore_run_state().  Precondition: every fault
// list is empty (all heads point at the sentinel) and no events are queued.
// Sweeps the good machine to a consistent settled state with PIs at X and
// the given per-DFF Q values, seeds prev_pin_val_, activates the source-site
// faults (from scratch at a reset; from the snapshot's divergence lists at a
// restore), then gives every combinational gate one merge so comb-site
// faults activate and the injected divergences propagate.
void ConcurrentSim::rebuild_run_state(
    std::span<const Val> flop_good,
    const std::vector<std::vector<FlopFault>>* flop_faulty,
    std::span<const Val> prev_pins) {
  const auto dffs = c_->dffs();
  recount_site_live();
  // Good machine: PIs X, flip-flops at flop_good, full consistent sweep.
  {
    CFS_PHASE(timers_, GoodEval);
    for (GateId g = 0; g < c_->num_gates(); ++g) {
      good_state_[g] = state_all_x(c_->num_fanins(g));
    }
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      good_state_[dffs[i]] = state_set_out(good_state_[dffs[i]], flop_good[i]);
    }
    for (GateId g = 0; g < c_->num_gates(); ++g) {
      if (!is_combinational(c_->kind(g))) {
        const Val v = state_out(good_state_[g]);
        for (const Fanout& fo : c_->fanouts(g)) {
          good_state_[fo.gate] = state_set(good_state_[fo.gate], fo.pin, v);
        }
      }
    }
    for (GateId g : c_->topo_order()) {
      const Val v = eval_gate(g, good_state_[g]);
      good_state_[g] = state_set_out(good_state_[g], v);
      for (const Fanout& fo : c_->fanouts(g)) {
        good_state_[fo.gate] = state_set(good_state_[fo.gate], fo.pin, v);
      }
    }
  }

  if (transition_mode_) {
    if (prev_pins.empty()) {
      std::fill(prev_pin_val_.begin(), prev_pin_val_.end(), Val::X);
    } else {
      prev_pin_val_.assign(prev_pins.begin(), prev_pins.end());
    }
  }
  held_flag_.assign(c_->num_gates(), 0);
  held_gates_.clear();
  pass1_ = true;

  {
    CFS_PHASE(timers_, FaultProp);
    for (GateId g : c_->inputs()) refresh_source_site(g);
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      const GateId q = dffs[i];
      if (flop_faulty == nullptr) {
        refresh_source_site(q);
      } else {
        // Re-inject the snapshot's divergences at this Q, minus faults this
        // engine does not simulate (foreign shard, suspended) and minus
        // hard-detected ones under dropping -- exactly the elements the
        // uninterrupted engine would still carry or lazily unlink anyway.
        scratch_vis_.clear();
        for (const FlopFault& f : (*flop_faulty)[i]) {
          if (f.fault >= excluded_.size()) {
            throw Error("run-state snapshot references an out-of-range fault");
          }
          if (excluded_[f.fault] != 0 || dropped(f.fault)) continue;
          scratch_vis_.emplace_back(f.fault, f.state);
        }
        if (opt_.rebuild_lists) {
          free_list(head_vis_[q]);
          head_vis_[q] = build_list(scratch_vis_);
        } else {
          apply_list_inplace(head_vis_[q], scratch_vis_, ChangeTrack::None,
                             Val::X, Val::X);
          salvage_flush();
        }
      }
    }
    for (GateId g : c_->topo_order()) queue_.schedule(g);
    propagate();
  }
}

// ---------------------------------------------------------------------------
// Run-state snapshots (checkpoint/resume, shard requeue, multi-pass budget)
// ---------------------------------------------------------------------------

RunStateSnapshot ConcurrentSim::capture_run_state() const {
  RunStateSnapshot s;
  const auto dffs = c_->dffs();
  s.flop_good.resize(dffs.size());
  s.flop_faulty.resize(dffs.size());
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    if (masters_pending_) {
      // The clocked state: the pending capture is what the Q lists would
      // hold once committed.
      s.flop_good[i] = latch_good_[i];
      for (const auto& [id, st] : latch_lists_[i]) {
        if (!dropped(id)) s.flop_faulty[i].push_back({id, st});
      }
      continue;
    }
    const GateId q = dffs[i];
    s.flop_good[i] = state_out(good_state_[q]);
    std::uint32_t cur = head_vis_[q];
    while (pool_[cur].fault_id != kSentinelId) {
      const std::uint32_t id = pool_[cur].fault_id;
      // Skip lazily-unlinked-but-still-linked dropped elements: they are
      // unobservable, and skipping them makes the snapshot independent of
      // *when* each list last happened to be traversed.
      if (!dropped(id)) s.flop_faulty[i].push_back({id, pool_[cur].state});
      cur = pool_[cur].next;
    }
  }
  if (transition_mode_) s.prev_pins = prev_pin_val_;
  return s;
}

void ConcurrentSim::restore_run_state(const RunStateSnapshot& s,
                                      const std::vector<Detect>& status) {
  const std::size_t nf = model_->num_faults();
  if (status.size() != nf) {
    throw Error("restore_run_state: status table does not match the universe");
  }
  if (s.flop_good.size() != c_->dffs().size() ||
      s.flop_faulty.size() != c_->dffs().size()) {
    throw Error("restore_run_state: snapshot does not match the circuit");
  }
  if (transition_mode_ && !s.prev_pins.empty() && s.prev_pins.size() != nf) {
    throw Error("restore_run_state: previous-value table size mismatch");
  }
  status_ = status;
  // Tear everything down from scratch.  The engine may be a half-merged
  // wreck (an exception escaped mid-settle, e.g. PoolBudgetError), so no
  // list or queue invariant can be relied on: drop parked splices, clear
  // pending events, and reshape the pool wholesale.
  pending_.clear();
  salvage_.clear();
  queue_.clear();
  good_oracle_ = nullptr;  // a stale slab never survives a rebuild
  masters_pending_ = false;
  pool_.reset();
  const std::uint32_t snt = pool_.alloc();  // sentinel regains slot 0
  pool_[snt] = Element{kSentinelId, snt, 0};
  std::fill(head_vis_.begin(), head_vis_.end(), 0u);
  std::fill(head_inv_.begin(), head_inv_.end(), 0u);
  rebuild_run_state(s.flop_good, &s.flop_faulty, s.prev_pins);
}

void ConcurrentSim::set_suspended(const std::vector<std::uint8_t>& suspended) {
  const std::size_t nf = model_->num_faults();
  if (!suspended.empty() && suspended.size() != nf) {
    throw Error("suspension mask does not match the fault universe");
  }
  if (base_excluded_.empty()) {
    if (suspended.empty()) {
      excluded_.assign(nf, 0);
    } else {
      excluded_ = suspended;
    }
  } else {
    excluded_ = base_excluded_;
    for (std::size_t i = 0; i < suspended.size(); ++i) {
      if (suspended[i]) excluded_[i] = 1;
    }
  }
  recount_site_live();
}

void ConcurrentSim::set_shard(const FaultPartition& part,
                              unsigned shard_index) {
  const std::size_t nf = model_->num_faults();
  if (part.num_faults() != nf) {
    throw Error("FaultPartition does not match the fault universe");
  }
  if (shard_index >= part.num_shards()) {
    throw Error("shard index out of range");
  }
  base_excluded_.assign(nf, 0);
  for (std::uint32_t id = 0; id < nf; ++id) {
    base_excluded_[id] = part.shard_of(id) == shard_index ? 0 : 1;
  }
  excluded_ = base_excluded_;
  recount_site_live();
}

void ConcurrentSim::adopt_status(const std::vector<Detect>& status) {
  status_ = status;
  recount_site_live();
}

std::uint32_t ConcurrentSim::count_site_live(GateId g) const {
  std::uint32_t live = 0;
  for (const std::uint32_t id : model_->site_faults(g)) {
    live += excluded_[id] == 0 && !dropped(id);
  }
  return live;
}

void ConcurrentSim::recount_site_live() {
  for (GateId g = 0; g < c_->num_gates(); ++g) {
    site_live_[g] = count_site_live(g);
  }
}

void ConcurrentSim::accumulate_live_weights(
    std::vector<std::uint64_t>& w) const {
  if (w.size() != model_->num_faults()) {
    throw Error("accumulate_live_weights: weight vector does not cover the "
                "universe");
  }
  const std::size_t n = c_->num_gates();
  for (std::size_t g = 0; g < n; ++g) {
    for (std::uint32_t head : {head_vis_[g], head_inv_[g]}) {
      std::uint32_t cur = head;
      while (pool_[cur].fault_id != kSentinelId) {
        const std::uint32_t id = pool_[cur].fault_id;
        if (!dropped(id)) ++w[id];
        cur = pool_[cur].next;
      }
    }
  }
}

void ConcurrentSim::reserve_elements(std::size_t n) {
  if (opt_.max_elements != 0) n = std::min(n, opt_.max_elements + 1);
  pool_.reserve(n);
}

void ConcurrentSim::set_inputs(std::span<const Val> pi_vals) {
  finish_clock();
  const auto pis = c_->inputs();
  if (pi_vals.size() != pis.size()) {
    throw Error("apply_vector: expected " + std::to_string(pis.size()) +
                " PI values, got " + std::to_string(pi_vals.size()));
  }
  for (std::size_t i = 0; i < pis.size(); ++i) {
    const GateId g = pis[i];
    if (state_out(good_state_[g]) != pi_vals[i]) {
      commit_good(g, pi_vals[i]);
      refresh_source_site(g);
    }
  }
}

// ---------------------------------------------------------------------------
// Detection
// ---------------------------------------------------------------------------

void ConcurrentSim::record_detect(std::uint32_t fault, Val good, Val faulty,
                                  std::size_t& newly) {
  if (!is_binary(good)) return;
  if (is_binary(faulty) && faulty != good) {
    if (status_[fault] != Detect::Hard) {
      status_[fault] = Detect::Hard;
      ++newly;
      CFS_COUNT(counters_, DetectionsHard);
      if (opt_.drop_detected) {
        ++faults_dropped_;
        CFS_COUNT(counters_, FaultsDropped);
        // Dropped: its site can no longer introduce it.  (A fault excluded
        // since its element was built, or masked, was never counted.)
        if (excluded_[fault] == 0 && !descr_[fault].masked) {
          --site_live_[descr_[fault].site_gate];
        }
      }
    }
  } else if (faulty == Val::X && status_[fault] == Detect::None) {
    status_[fault] = Detect::Potential;
    CFS_COUNT(counters_, DetectionsPotential);
  }
}

std::size_t ConcurrentSim::sample_outputs() {
  finish_clock();
  std::size_t newly = 0;
  const auto pos = c_->outputs();
  for (std::size_t p = 0; p < pos.size(); ++p) {
    const GateId po = pos[p];
    const Val good = state_out(good_state_[po]);
    if (!is_binary(good)) continue;
    Cursor cu;
    cursor_init(cu, &head_vis_[po]);
    while (cu.id != kSentinelId) {
      const Val out = state_out(pool_[cu.cur].state);
      if (out != good) {
        record_detect(cu.id, good, out, newly);
        if (observer_ && (is_binary(out) || out == Val::X)) {
          observer_(cu.id, static_cast<std::uint32_t>(p), is_binary(out));
        }
      }
      cursor_advance(cu);
    }
  }
  return newly;
}

// ---------------------------------------------------------------------------
// Flip-flop latching
// ---------------------------------------------------------------------------

void ConcurrentSim::capture_masters() {
  const auto dffs = c_->dffs();
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const GateId q = dffs[i];
    const GateId drv = c_->fanins(q)[0];
    const Val good_d = state_get(good_state_[q], 0);
    latch_good_[i] = good_d;
    auto& items = latch_lists_[i];
    items.clear();

    Cursor fc;
    cursor_init(fc, &head_vis_[drv]);
    const auto site = model_->site_faults(q);
    std::size_t si = 0;
    while (si < site.size() && skip_site(site[si])) ++si;

    for (;;) {
      std::uint32_t m = si < site.size() ? site[si] : kSentinelId;
      m = std::min(m, fc.id);
      if (m == kSentinelId) break;
      Val faulty_d = fc.id == m ? state_out(pool_[fc.cur].state) : good_d;
      Val newq = faulty_d;
      const FaultDescriptor& d = descr_[m];
      if (d.site_gate == q) {
        ++elements_evaluated_;
        if (d.type == FaultType::StuckAt) {
          // Both a D-pin fault and a Q-output fault force the latched value.
          faulty_d = d.site_pin == kFaultOutPin ? faulty_d : d.forced;
          newq = d.forced;
        } else if (pass1_) {
          faulty_d = transition_forced(m, faulty_d);
          newq = faulty_d;
        }
      }
      if (newq != latch_good_[i]) {
        GateState st = state_set(GateState{0}, 0, faulty_d);
        st = state_set_out(st, newq);
        items.emplace_back(m, st);
      }
      if (fc.id == m) cursor_advance(fc);
      if (si < site.size() && site[si] == m) {
        ++si;
        while (si < site.size() && skip_site(site[si])) ++si;
      }
    }
  }
  masters_pending_ = true;
}

void ConcurrentSim::commit_masters() {
  masters_pending_ = false;
  const auto dffs = c_->dffs();
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const GateId q = dffs[i];
    const Val old_good_q = state_out(good_state_[q]);

    bool changed = false;
    if (opt_.rebuild_lists) {
      // Naive reference: change test against a snapshot, then rebuild.
      scratch_old_.clear();
      Cursor cu;
      cursor_init(cu, &head_vis_[q]);
      while (cu.id != kSentinelId) {
        scratch_old_.emplace_back(cu.id, state_out(pool_[cu.cur].state));
        cursor_advance(cu);
      }
      if (scratch_old_.size() != latch_lists_[i].size()) {
        changed = true;
      } else {
        for (std::size_t k = 0; k < scratch_old_.size(); ++k) {
          if (scratch_old_[k].first != latch_lists_[i][k].first ||
              scratch_old_[k].second !=
                  state_out(latch_lists_[i][k].second)) {
            changed = true;
            break;
          }
        }
      }
      free_list(head_vis_[q]);
      head_vis_[q] = build_list(latch_lists_[i]);
    } else {
      // In-place apply; every Q-list element counts toward the change test.
      changed = apply_list_inplace(head_vis_[q], latch_lists_[i],
                                   ChangeTrack::All, old_good_q, old_good_q);
      salvage_flush();
    }
    if (latch_good_[i] != old_good_q) {
      commit_good(q, latch_good_[i]);
    } else if (changed) {
      for (const Fanout& fo : c_->fanouts(q)) {
        if (is_combinational(c_->kind(fo.gate))) queue_.schedule(fo.gate);
      }
    }
  }
}

void ConcurrentSim::finish_clock() {
  if (!masters_pending_) return;
  good_oracle_ = nullptr;  // the slab does not hold the post-clock frame
  commit_masters();
  propagate();
}

void ConcurrentSim::clock() {
  finish_clock();
  good_oracle_ = nullptr;
  capture_masters();
  commit_masters();
  propagate();
}

// ---------------------------------------------------------------------------
// Vector application
// ---------------------------------------------------------------------------

std::size_t ConcurrentSim::apply_vector(std::span<const Val> pi_vals) {
  ++vectors_simulated_;
  // Slave update for the masters the previous vector captured.  Only the
  // fanout is scheduled: it settles together with the new inputs, so each
  // gate is visited once per vector, not once after the clock and again
  // after the inputs.
  if (masters_pending_) {
    CFS_PHASE(timers_, Clocking);
    commit_masters();
  }
  // In transition mode this is pass 1: delayed transitions hold their
  // previous value; POs and the FF masters sample this state (paper §3).
  {
    CFS_PHASE(timers_, FaultProp);
    set_inputs(pi_vals);
    propagate();
  }
  std::size_t newly = 0;
  {
    CFS_PHASE(timers_, DropPass);
    newly = sample_outputs();
  }
  {
    CFS_PHASE(timers_, Clocking);
    capture_masters();
  }
  if (transition_mode_) {
    // Pass 2: fire every transition and settle; this is the state the next
    // frame's "previous values" come from.  The slaves are not updated
    // yet, so the new flip-flop values cannot leak into this pass.
    CFS_PHASE(timers_, FaultProp);
    pass1_ = false;
    for (GateId g : held_gates_) {
      held_flag_[g] = 0;
      queue_.schedule(g);
    }
    held_gates_.clear();
    propagate();
    update_prev_values();
    pass1_ = true;
  }
  good_oracle_ = nullptr;  // armed for one vector only
  return newly;
}

void ConcurrentSim::update_prev_values() {
  // For every transition fault, the next frame's "previous value" is the
  // pass-2 settled value of its site pin *in its own machine*: the driver's
  // faulty value if the fault is visible there, the good value otherwise.
  for (GateId d = 0; d < c_->num_gates(); ++d) {
    const auto group = model_->faults_by_driver(d);
    if (group.empty()) continue;
    const Val good = state_out(good_state_[d]);
    for (std::uint32_t id : group) {
      if (!excluded_[id]) prev_pin_val_[id] = good;
    }
    Cursor cu;
    cursor_init(cu, &head_vis_[d]);
    std::size_t gi = 0;
    while (cu.id != kSentinelId && gi < group.size()) {
      if (cu.id == group[gi]) {
        prev_pin_val_[group[gi]] = state_out(pool_[cu.cur].state);
        cursor_advance(cu);
        ++gi;
      } else if (cu.id < group[gi]) {
        cursor_advance(cu);
      } else {
        ++gi;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

Val ConcurrentSim::faulty_value(GateId g, std::uint32_t fault) const {
  for (std::uint32_t head : {head_vis_[g], head_inv_[g]}) {
    std::uint32_t cur = head;
    while (pool_[cur].fault_id != kSentinelId) {
      if (pool_[cur].fault_id == fault) return state_out(pool_[cur].state);
      cur = pool_[cur].next;
    }
  }
  return state_out(good_state_[g]);
}

std::vector<std::pair<std::uint32_t, Val>> ConcurrentSim::visible_at(
    GateId g) const {
  std::vector<std::pair<std::uint32_t, Val>> out;
  const Val good = state_out(good_state_[g]);
  std::uint32_t cur = head_vis_[g];
  while (pool_[cur].fault_id != kSentinelId) {
    const Val v = state_out(pool_[cur].state);
    if (v != good && !dropped(pool_[cur].fault_id)) {
      out.emplace_back(pool_[cur].fault_id, v);
    }
    cur = pool_[cur].next;
  }
  return out;
}

void ConcurrentSim::validate() const {
  if (transition_mode_) {
    throw Error("validate() supports stuck-at mode only");
  }
  auto fail = [&](GateId g, const std::string& msg) {
    throw Error("validate: gate '" + c_->gate_name(g) + "': " + msg);
  };
  // Faulty driver value as seen by `fault` (visible element or good).
  auto driver_value = [&](GateId d, std::uint32_t fault) {
    std::uint32_t cur = head_vis_[d];
    while (pool_[cur].fault_id < fault) cur = pool_[cur].next;
    return pool_[cur].fault_id == fault ? state_out(pool_[cur].state)
                                        : state_out(good_state_[d]);
  };
  for (GateId g = 0; g < c_->num_gates(); ++g) {
    const Val good = state_out(good_state_[g]);
    const bool comb = is_combinational(c_->kind(g));
    if (site_live_[g] != count_site_live(g)) {
      fail(g, "stale site-fault count");
    }
    for (int list = 0; list < 2; ++list) {
      std::uint32_t cur = list == 0 ? head_vis_[g] : head_inv_[g];
      std::uint32_t last_id = 0;
      bool first = true;
      while (pool_[cur].fault_id != kSentinelId) {
        const std::uint32_t id = pool_[cur].fault_id;
        if (!first && id <= last_id) fail(g, "list not strictly sorted");
        first = false;
        last_id = id;
        if (id >= status_.size()) fail(g, "fault id out of range");
        if (excluded_[id]) fail(g, "element for an excluded fault");
        const Element& e = pool_[cur];
        const Val out = state_out(e.state);
        if (!dropped(id)) {
          if (opt_.split_lists) {
            if (list == 0 && out == good) fail(g, "invisible on visible list");
            if (list == 1 && out != good) fail(g, "visible on invisible list");
          }
          if (comb) {
            // Pins must mirror the faulty driver values (site pins hold the
            // forced value instead), and the output must re-evaluate.
            const FaultDescriptor& d = descr_[id];
            const auto fanins = c_->fanins(g);
            GateState expect = 0;
            for (std::size_t p = 0; p < fanins.size(); ++p) {
              Val v = driver_value(fanins[p], id);
              if (d.site_gate == g && d.site_pin == p &&
                  d.type == FaultType::StuckAt) {
                v = d.forced;
              }
              expect = state_set(expect, static_cast<unsigned>(p), v);
            }
            if ((expect & input_mask(static_cast<unsigned>(fanins.size()))) !=
                (e.state & input_mask(static_cast<unsigned>(fanins.size())))) {
              fail(g, "stale pins for fault " + std::to_string(id));
            }
            Val eo;
            if (d.table != nullptr && d.site_gate == g) {
              eo = from_code(d.table[state_input_index(
                  expect, c_->num_fanins(g))]);
            } else {
              eo = c_->eval(g, expect);
            }
            if (d.site_gate == g && d.site_pin == kFaultOutPin &&
                d.table == nullptr) {
              eo = d.forced;
            }
            if (eo != out) {
              fail(g, "stale output for fault " + std::to_string(id));
            }
          }
        }
        cur = pool_[cur].next;
      }
      if (!opt_.split_lists && list == 1 && head_inv_[g] != 0) {
        fail(g, "invisible list in combined mode");
      }
    }
  }
}

std::size_t ConcurrentSim::state_bytes() const {
  std::size_t b = pool_.bytes();
  b += head_vis_.capacity() * sizeof(std::uint32_t);
  b += head_inv_.capacity() * sizeof(std::uint32_t);
  b += site_live_.capacity() * sizeof(std::uint32_t);
  b += good_state_.capacity() * sizeof(GateState);
  b += status_.capacity() * sizeof(Detect);
  b += excluded_.capacity();
  b += prev_pin_val_.capacity() * sizeof(Val);
  b += held_flag_.capacity();
  b += queue_.bytes();
  return b;
}

void ConcurrentSim::report_memory(MemStats& ms) const {
  ms.sample("fault_elements", pool_.bytes());
  ms.sample("engine_fixed", state_bytes() - pool_.bytes());
  ms.sample("model", model_->bytes());
  ms.sample("circuit", c_->bytes());
}

}  // namespace cfs
