// The paper's contribution: a concurrent fault simulator for synchronous
// sequential circuits with deductive-style per-gate fault lists.
//
// Representation (paper §2, Figure 2):
//  - Every gate carries a sorted fault list of elements
//    {fault id, packed state, next}; lists terminate in a shared sentinel
//    whose fault id is the largest representable value, so traversals never
//    test for end-of-list.
//  - A fault *descriptor* table holds per-fault global information: the
//    site, the forced value, the detection status, and (in macro mode) the
//    faulty lookup table of a functional fault.
//  - Zero-delay levelized event-driven simulation: only gate ids are
//    scheduled; a processed gate performs one multi-list merge over its
//    fanins' (visible) fault lists, its own lists, and its local site
//    faults, evaluating each faulty machine by table lookup and deciding
//    divergence/convergence by comparing packed states.
//
// Improvements (paper §2.2): event-driven fault dropping, visible/invisible
// list splitting, and macro mode (functional faults via per-descriptor
// tables).  Destination lists are updated *in place* by a differential
// apply (DESIGN.md §9): surviving fault ids keep their pool element and
// only the packed state is patched, insertions/removals splice through a
// cursor, and a merge whose produced sequence equals the stored one leaves
// the list untouched -- so pool traffic scales with list churn, not list
// length.  §3's transition-fault model is implemented by the same engine in
// transition mode: two passes per vector -- pass 1 holds delayed transitions
// at their previous value (Table 1) and is what POs and FF masters sample,
// pass 2 fires every transition to produce the next frame's "previous"
// values.
//
// A gate no machine of this engine can change is not merged at all:
// merge_gate() returns at once when none of the gate's site faults can
// still be introduced here (all excluded or dropped, tracked as a per-gate
// count), both of its lists are empty, and no fanin holds a visible
// element.  Under a site-ordered fault partition most gates are such gates
// for all but one shard (DESIGN.md section 18).
//
// One settle per vector (two in transition mode): apply_vector() commits the
// flip-flop masters the previous vector captured, drives the new inputs,
// settles once, samples the POs, and captures the next masters.  The
// captured state stays pending until the next vector, so between vectors
// the engine holds the last vector's settled frame; capture_run_state()
// serializes the pending masters, so a snapshot is the clocked state
// (DESIGN.md §17).
//
// The engine is split into an immutable SimModel (core/sim_model.h) --
// descriptors, site-fault indices, transition groupings -- and this class,
// which is pure *run state* (fault lists, pool, good machine, queue,
// detection status).  Engines constructed over the same shared model never
// write to it, so they may run concurrently; a fault shard (faults/
// partition.h) restricts an engine to a subset of the universe for the
// multi-threaded ShardedSim driver.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/options.h"
#include "core/run_state.h"
#include "core/sim_model.h"
#include "faults/fault.h"
#include "faults/macro_map.h"
#include "faults/partition.h"
#include "netlist/circuit.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/timers.h"
#include "sim/level_queue.h"
#include "util/dualrail.h"
#include "util/logic.h"
#include "util/memtrack.h"
#include "util/packed_state.h"
#include "util/pool.h"
#include "util/prefetch.h"

namespace cfs {

class ConcurrentSim {
 public:
  /// Plain mode: simulate universe `u` on circuit `c`.  In macro mode pass
  /// the extracted circuit as `c` and the fault map as `mmap` (the universe
  /// still indexes the *original* faults; only sites move).  The caller
  /// keeps `c`, `u`, and `mmap` alive for the engine's lifetime.  Builds and
  /// owns a private SimModel.
  ConcurrentSim(const Circuit& c, const FaultUniverse& u,
                CsimOptions opt = {}, const MacroFaultMap* mmap = nullptr);

  /// Share an existing model (N engines, one table set).  When `part` is
  /// given the engine simulates only the faults of shard `shard_index`:
  /// faults owned by other shards never materialise elements and keep
  /// status Detect::None.  `suspended`, when given (size num_faults),
  /// additionally excludes the marked faults from the initial activation --
  /// the memory-budget path constructs engines under an enforced pool
  /// budget and must keep the first reset within it.
  explicit ConcurrentSim(std::shared_ptr<const SimModel> model,
                         CsimOptions opt = {},
                         const FaultPartition* part = nullptr,
                         unsigned shard_index = 0,
                         const std::vector<std::uint8_t>* suspended = nullptr);

  const Circuit& circuit() const { return *c_; }
  const SimModel& model() const { return *model_; }
  bool transition_mode() const { return transition_mode_; }

  /// Reinitialise: good machine to X inputs / `ff_init` flip-flops, all
  /// fault lists rebuilt from scratch, detection status preserved unless
  /// `clear_status`.  Drops a pending master capture.
  void reset(Val ff_init = Val::X, bool clear_status = false);

  /// Simulate one test vector: commit the masters the previous vector
  /// captured, drive PIs, settle, sample POs (detection), capture the
  /// masters.  In transition mode this runs the two-pass scheme.  Returns
  /// the number of newly hard-detected faults.
  std::size_t apply_vector(std::span<const Val> pi_vals);

  // -- resilience (resil/campaign.h drives these) --------------------------

  /// Capture the engine's sequential state at a vector boundary: flip-flop
  /// good values, per-DFF faulty divergence lists (owned, non-dropped
  /// faults only), and transition-mode previous pin values.  A master
  /// capture still pending from apply_vector() is what gets serialized, so
  /// the snapshot is the clocked state.  Together with status() this is
  /// everything restore_run_state() needs.
  RunStateSnapshot capture_run_state() const;

  /// Rebuild the engine from a boundary snapshot, dropping any pending
  /// master capture: detection status is set to `status`, all fault lists
  /// are torn down and re-derived (primary inputs return to X until the
  /// next vector drives them; faults excluded by the shard partition, the
  /// suspension overlay, or event-driven dropping never materialise),
  /// and the snapshot's flip-flop divergences
  /// are re-injected.  Continuing the vector stream afterwards is
  /// bit-identical -- coverage, detection order, deterministic counters --
  /// to never having stopped.  The snapshot may cover the whole universe
  /// even when this engine owns one shard of it.  Also the recovery path
  /// after a PoolBudgetError: the pool is reshaped from scratch, so a
  /// half-merged wreck restores cleanly.
  void restore_run_state(const RunStateSnapshot& s,
                         const std::vector<Detect>& status);

  /// Adopt an externally tracked detection status (size num_faults) ahead
  /// of the next reset(): a freshly built engine resuming a campaign at a
  /// sequence boundary must know which faults are already hard-detected so
  /// event-driven dropping keeps them out of the rebuilt lists.  List
  /// contents change at the next reset()/restore_run_state(), not here.
  void adopt_status(const std::vector<Detect>& status);

  /// Overlay mask (size num_faults or empty): marked faults are suspended
  /// -- treated exactly like faults of a foreign shard until the next
  /// restore_run_state()/reset() rebuilds the lists.  The multi-pass
  /// memory-budget path parks the remainder of the universe here.
  void set_suspended(const std::vector<std::uint8_t>& suspended);

  /// Re-derive the shard-ownership exclusion base from `part` (the dynamic
  /// rebalancer repartitions ownership mid-run).  Resets the suspension
  /// overlay: callers reapply it via set_suspended(), then rebuild the
  /// lists via restore_run_state() before the next vector.
  void set_shard(const FaultPartition& part, unsigned shard_index);

  /// Add each live (non-dropped) fault-list element held by this engine to
  /// its fault's slot in `w` (size num_faults; throws otherwise).  A
  /// fault's element count is a pure function of the good machine and its
  /// own divergences -- independent of which shard simulates it -- so
  /// per-shard accumulations compose into the partition-invariant weight
  /// vector the rebalancer packs on.
  void accumulate_live_weights(std::vector<std::uint64_t>& w) const;

  /// Grow the element arena to `n` slots (never shrinks; an enforced
  /// budget caps the growth).  Re-applies the constructor's pre-size
  /// policy after a repartition changes this engine's share of the
  /// universe.
  void reserve_elements(std::size_t n);

  /// Start a fresh element-pool high-water epoch (campaign accounting
  /// across budget-enforced passes).
  void reset_peak_elements() { pool_.reset_peak(); }

  /// Arm the packed good-machine oracle for the next apply_vector(): while
  /// armed, process_level() serves a gate's new good value from lane `lane`
  /// of `step_slab[gate * words_per_gate ..]` -- the settled multi-word
  /// outputs a BatchGoodSim computed for this vector -- instead of
  /// re-evaluating the gate.  Sound
  /// because the level queue processes a gate only after all of its
  /// strictly-lower-level fanins are final, so the scalar evaluation the
  /// oracle replaces already equals the settled value.  Only TableEvals
  /// shifts; good values, fault propagation, detection order, and the
  /// deterministic counters are bit-identical.  The vector's one settle
  /// already includes the fanout of the flip-flops it commits, so the slab
  /// covers all of it; in transition mode the oracle stays live through
  /// pass 2, whose good values equal pass 1's settled frame.  The engine
  /// disarms itself when apply_vector() returns, and before any settle of
  /// a frame the slab does not hold (the granular clock()).  Pass nullptr
  /// to disarm.
  /// `step_slab` must stay valid until the next apply_vector() returns.
  void set_good_batch_oracle(const Word64* step_slab, unsigned lane,
                             unsigned words_per_gate = 1) {
    good_oracle_ = step_slab == nullptr
                       ? nullptr
                       : step_slab + (lane >> 6);  // lane's word, gate 0
    good_oracle_stride_ = words_per_gate;
    good_oracle_lane_ = lane & 63u;
  }

  // -- granular API (stuck-at mode), used by tests ------------------------
  // clock() latches, commits and settles at once.  Each call first commits
  // and settles a master capture left pending by apply_vector(), so it sees
  // the state an eager clock would have left behind.
  void set_inputs(std::span<const Val> pi_vals);
  void settle();
  std::size_t sample_outputs();
  void clock();

  // -- results ------------------------------------------------------------
  const std::vector<Detect>& status() const { return status_; }
  Coverage coverage() const { return summarize(status_); }

  /// Observer invoked on every output mismatch during sampling (including
  /// repeats for already-detected faults when dropping is off): arguments
  /// are the fault id, the PO position in circuit().outputs(), and whether
  /// the mismatch is hard (binary complement) or potential (X vs binary).
  /// Used by the fault-dictionary builder.
  using DetectionObserver =
      std::function<void(std::uint32_t fault, std::uint32_t po, bool hard)>;
  void set_detection_observer(DetectionObserver obs) {
    observer_ = std::move(obs);
  }

  /// Good-machine value of a gate (settled).  After apply_vector() this is
  /// the vector's own frame: flip-flops still show their pre-clock values.
  Val good_value(GateId g) const { return state_out(good_state_[g]); }

  /// Faulty output value of `fault` at gate `g`: the element's value if one
  /// is present, otherwise the good value.  For tests and debugging.
  Val faulty_value(GateId g, std::uint32_t fault) const;

  /// Sorted (fault id, output value) pairs visible at a gate.
  std::vector<std::pair<std::uint32_t, Val>> visible_at(GateId g) const;

  /// Deep structural check for tests: every list sorted, unique, and
  /// sentinel-terminated; visible elements differ from the good output,
  /// invisible ones agree; every non-dropped element's pins equal the
  /// faulty driver values (visible element at the driver, else good), and
  /// its output equals re-evaluation of its pins; every gate's count of
  /// introducible site faults matches a recount.  Throws cfs::Error with a
  /// description of the first violation (stuck-at mode only; the settled
  /// state between vectors is required).
  void validate() const;

  // -- statistics ----------------------------------------------------------
  std::size_t live_elements() const { return pool_.live() - 1; }  // -sentinel
  std::size_t peak_elements() const { return pool_.peak_live(); }
  std::uint64_t gates_processed() const { return queue_.processed(); }
  std::uint64_t elements_evaluated() const { return elements_evaluated_; }
  std::uint64_t vectors_simulated() const { return vectors_simulated_; }
  /// Hard detections that armed event-driven dropping (0 with dropping off).
  std::uint64_t faults_dropped() const { return faults_dropped_; }
  /// Telemetry counters (obs/counters.h), including the event queue's
  /// scheduling counts.  All-zero when built with CFS_OBS=OFF.
  obs::Counters counters() const {
    obs::Counters c = counters_;
    c.merge(queue_.counters());
    return c;
  }
  /// Per-phase wall-time accumulation (obs/timers.h); engine-internal
  /// phases are recorded only when built with CFS_OBS=ON.
  const obs::PhaseTimers& timers() const { return timers_; }
  /// Work-attribution distributions (obs/histogram.h): fault-list length
  /// per merge, divergence size per gate.  All-zero when CFS_OBS=OFF.
  const obs::HistogramSet& histograms() const { return hists_; }
  /// Per-level eval/merge/traversal attribution along the levelized
  /// circuit structure.  All-zero when CFS_OBS=OFF.
  const obs::LevelProfile& level_profile() const { return levels_; }
  /// Bytes of the fault-element pool alone (the paper's dominant MEM term).
  std::size_t pool_bytes() const { return pool_.bytes(); }
  /// Bytes of this engine's run state (pool, lists, good machine, queue);
  /// excludes the shared model.
  std::size_t state_bytes() const;
  /// Run state plus the (possibly shared) model -- the engine's full
  /// footprint when it does not share the model with anyone.
  std::size_t bytes() const { return state_bytes() + model_->bytes(); }
  void report_memory(MemStats& ms) const;

 private:
  struct Element {
    std::uint32_t fault_id;
    std::uint32_t next;
    GateState state;
  };

  static constexpr std::uint32_t kSentinelId = 0xFFFFFFFFu;

  bool dropped(std::uint32_t fault) const {
    return opt_.drop_detected && fault < status_.size() &&
           status_[fault] == Detect::Hard;
  }

  /// True when a site fault must not materialise: owned by another shard,
  /// or hard-detected with dropping on (an *eager* drop -- the element is
  /// never built, vs. the lazy unlink in cursor_skip_dropped).
  bool skip_site(std::uint32_t fault) const {
    if (excluded_[fault] != 0) return true;
    if (dropped(fault)) {
      CFS_COUNT(counters_, DropSkipsEager);
      return true;
    }
    return false;
  }

  // Cursor over a linked fault list with lazy dropping (unlinks dropped
  // elements as it passes them).  The three primitives are defined here so
  // the multi-list merge, which calls them once per element, inlines them.
  struct Cursor {
    std::uint32_t* head = nullptr;  // pointer to the head slot
    std::uint32_t prev = kNullIndex;
    std::uint32_t cur = kNullIndex;
    std::uint32_t id = 0xFFFFFFFFu;
  };

  void cursor_count_step(const Cursor& cu) {
#if CFS_OBS_ENABLED
    if (cu.id == kSentinelId) {
      CFS_COUNT(counters_, SentinelHits);
    } else {
      CFS_COUNT(counters_, ElementsTraversed);
    }
#endif
  }

  void cursor_skip_dropped(Cursor& cu) {
    while (cu.id != kSentinelId && dropped(cu.id)) {
      // Event-driven fault dropping: unlink while traversing (paper §2.2).
      CFS_COUNT(counters_, DropUnlinksLazy);
      CFS_COUNT(counters_, ElementsFreed);
      const std::uint32_t dead = cu.cur;
      const std::uint32_t nxt = pool_[dead].next;
      if (cu.prev == kNullIndex) {
        *cu.head = nxt;
      } else {
        pool_[cu.prev].next = nxt;
      }
      pool_.free(dead);
      cu.cur = nxt;
      cu.id = pool_[nxt].fault_id;
    }
  }

  void cursor_init(Cursor& cu, std::uint32_t* head) {
    cu.head = head;
    cu.prev = kNullIndex;
    cu.cur = *head;
    cu.id = pool_[cu.cur].fault_id;
    CFS_PREFETCH(&pool_[pool_[cu.cur].next]);
    cursor_skip_dropped(cu);
    cursor_count_step(cu);
  }

  void cursor_advance(Cursor& cu) {
    cu.prev = cu.cur;
    cu.cur = pool_[cu.cur].next;
    cu.id = pool_[cu.cur].fault_id;
    // Pull the element after the new one into cache: a multi-list merge
    // comes back for it one min-selection from now, long enough for the
    // load to complete.  The sentinel self-links, so the address is valid.
    CFS_PREFETCH(&pool_[pool_[cu.cur].next]);
    cursor_skip_dropped(cu);
    cursor_count_step(cu);
  }

  // Quiet variants for the merge walk: identical motion, but the per-step
  // traversal census is settled in bulk at the end of the merge instead of
  // one counter RMW per step -- each cursor visits exactly its list's
  // elements plus one sentinel, so ElementsTraversed owes the number of
  // consumed elements and SentinelHits owes one per cursor.  Lazy-drop
  // unlinking (and its DropUnlinksLazy / ElementsFreed counts) still
  // happens per step, exactly as in the counting variants.
  void cursor_init_quiet(Cursor& cu, std::uint32_t* head) {
    cu.head = head;
    cu.prev = kNullIndex;
    cu.cur = *head;
    cu.id = pool_[cu.cur].fault_id;
    CFS_PREFETCH(&pool_[pool_[cu.cur].next]);
    cursor_skip_dropped(cu);
  }

  void cursor_advance_quiet(Cursor& cu) {
    cu.prev = cu.cur;
    cu.cur = pool_[cu.cur].next;
    cu.id = pool_[cu.cur].fault_id;
    CFS_PREFETCH(&pool_[pool_[cu.cur].next]);
    cursor_skip_dropped(cu);
  }

  Val transition_forced(std::uint32_t fault, Val cv) const;

  /// All gate evaluations funnel through here: the flat-table path by
  /// default (counted as TableEvals), the fold-over-pins oracle under
  /// CsimOptions::fold_eval.  Bit-identical either way.
  Val eval_gate(GateId g, GateState st) {
    if (opt_.fold_eval) return c_->eval_fold(g, st);
    CFS_COUNT(counters_, TableEvals);
    return c_->eval(g, st);
  }

  Val eval_element(GateId g, std::uint32_t fault, GateState& state);
  bool merge_gate(GateId g, Val new_good_out);
  // The settle's unit of work: one whole ready level at a time
  // (drain_levels).  Good values of the entire level are evaluated up
  // front, one eval_gate lookup per gate -- gates of one level never feed
  // each other, so every good_state_ the level reads is already final --
  // then each gate merges in ascending-id order and, if its good value or
  // visible list changed, schedules its fanout.
  void process_level(const GateId* gates, std::size_t n);
  void commit_good(GateId g, Val v);
  void free_list(std::uint32_t& head);
  std::uint32_t build_list(const std::vector<std::pair<std::uint32_t, GateState>>& items);

  // Which structural/value differences the in-place apply reports as a
  // change of the *visible* (fault id, output) sequence.
  enum class ChangeTrack : std::uint8_t {
    None,         // invisible lists: nothing downstream reads them
    All,          // split-mode visible lists, DFF Q lists: every element
    VisibleOnly,  // combined-mode lists: classify by old/new good output
  };
  // `migrate` piggybacks the split-list migration census on the removal
  // walk: a non-dropped removal whose id also appears in `migrate` (the
  // produced elements of the *other* half) is exactly a visible<->invisible
  // migration, counted as `mig_counter`.  Both the removals and `migrate`
  // ascend by id, so one moving pointer replaces the standalone co-walk the
  // counters used to need (kept only for the rebuild_lists oracle, which
  // never runs the in-place apply).
  bool apply_list_inplace(
      std::uint32_t& head,
      std::span<const std::pair<std::uint32_t, GateState>> items,
      ChangeTrack track, Val old_good_out, Val new_good_out,
      std::span<const std::pair<std::uint32_t, GateState>> migrate = {},
      obs::Counter mig_counter = obs::Counter::VisToInvMigrations);
  // The track-specialised body behind apply_list_inplace: the change-test
  // mode is a compile-time constant on the per-element path.
  template <ChangeTrack track>
  bool apply_list_impl(
      std::uint32_t& head,
      std::span<const std::pair<std::uint32_t, GateState>> items,
      Val old_good_out, Val new_good_out,
      std::span<const std::pair<std::uint32_t, GateState>> migrate,
      obs::Counter mig_counter);
  // The empty-scope check is the common case by far (an unchanged list
  // neither unlinks nor inserts), so it stays inline.
  void salvage_flush() {
    if (pending_.empty() && salvage_.empty()) return;
    salvage_flush_slow();
  }
  void salvage_flush_slow();
  void refresh_source_site(GateId g);
  // Shared tail of reset()/restore_run_state(): good-machine sweep with the
  // given per-DFF Q values, source activation, optional DFF divergence
  // injection, and one full settle.
  void rebuild_run_state(std::span<const Val> flop_good,
                         const std::vector<std::vector<FlopFault>>* flop_faulty,
                         std::span<const Val> prev_pins);
  // Drain the event queue (the settle itself, without finish_clock()).
  void propagate();
  // Master phase: latch good D and the merged faulty D list of every DFF
  // into latch_good_/latch_lists_; the capture is pending until committed.
  void capture_masters();
  // Slave phase: write the pending capture to the Q lists and schedule the
  // flip-flop fanout (no settle).
  void commit_masters();
  // Commit and settle a pending capture, the way an eager clock would have.
  void finish_clock();
  void record_detect(std::uint32_t fault, Val good, Val faulty,
                     std::size_t& newly);
  // Site faults of `g` neither excluded nor dropped.
  std::uint32_t count_site_live(GateId g) const;
  // site_live_ recomputed for every gate from excluded_ and status_.
  void recount_site_live();

  // Transition-mode helper.
  void update_prev_values();

  std::shared_ptr<const SimModel> model_;
  const Circuit* c_;      // == &model_->circuit(), cached for the hot path
  const FaultDescriptor* descr_;  // == model_->descriptors()
  CsimOptions opt_;
  bool transition_mode_ = false;

  std::vector<Detect> status_;
  // Effective exclusion mask: 1 = fault never simulated here, because it is
  // owned by another shard (base_excluded_) or suspended by the multi-pass
  // overlay (set_suspended).  All-zero when the engine covers the whole
  // universe with nothing suspended.
  std::vector<std::uint8_t> excluded_;
  // Shard-ownership mask alone; set_suspended() re-derives excluded_ from
  // this.  Empty when the engine has no partition (covers the universe).
  std::vector<std::uint8_t> base_excluded_;
  // Per gate: site faults this engine can still introduce there (neither
  // excluded nor dropped).  Zero lets merge_gate() skip an empty gate, so a
  // stale low count would silently lose a merge: every change to
  // excluded_ or status_ recounts (recount_site_live), and a hard detection
  // under dropping decrements (record_detect).
  std::vector<std::uint32_t> site_live_;

  std::vector<GateState> good_state_;
  // Packed good-machine oracle (set_good_batch_oracle): non-null only
  // from arming until apply_vector() returns.  The pointer is pre-offset to
  // the armed lane's word; a gate's word is good_oracle_[g * stride].
  const Word64* good_oracle_ = nullptr;
  unsigned good_oracle_stride_ = 1;
  unsigned good_oracle_lane_ = 0;
  std::vector<std::uint32_t> head_vis_, head_inv_;
  Pool<Element> pool_;
  LevelQueue queue_;

  // Transition mode: per-fault previous (pass-2 settled) site-pin value.
  std::vector<Val> prev_pin_val_;
  bool pass1_ = true;
  // Gates whose site held a delayed transition during pass 1; they must be
  // re-merged when the transitions fire in pass 2.
  std::vector<std::uint8_t> held_flag_;
  std::vector<GateId> held_gates_;

  // DFF latching: new good Q and new fault list per DFF.  Between vectors
  // they hold the captured masters while `masters_pending_` is set.
  std::vector<Val> latch_good_;
  std::vector<std::vector<std::pair<std::uint32_t, GateState>>> latch_lists_;
  bool masters_pending_ = false;

  // process_level scratch: the good values of the level being settled.
  std::vector<Val> lvl_good_;

  // Merge scratch (reused across calls).
  std::vector<std::pair<std::uint32_t, GateState>> scratch_vis_, scratch_inv_;
  std::vector<std::pair<std::uint32_t, Val>> scratch_old_;
  // Elements unlinked by the current update scope, parked for resplicing:
  // each pending insert reuses one instead of a pool round trip (this is
  // also what turns a visible<->invisible migration into a move).  Inserts
  // are deferred to salvage_flush() so removals *anywhere* in the scope --
  // either list half, before or after the insertion point -- can donate;
  // leftovers then go back to the pool.  An insert's anchor (the kept
  // element it splices after, kNullIndex for the head) is stable because
  // the apply cursor never unlinks behind itself.
  struct PendingInsert {
    std::uint32_t* head;
    std::uint32_t anchor;
    std::uint32_t id;
    GateState state;
  };
  std::vector<PendingInsert> pending_;
  std::vector<std::uint32_t> salvage_;

  std::uint64_t elements_evaluated_ = 0;
  std::uint64_t vectors_simulated_ = 0;
  std::uint64_t faults_dropped_ = 0;
  // Mutable: const traversals (visible_at, faulty_value) still count work.
  mutable obs::Counters counters_;
  obs::PhaseTimers timers_;
  obs::HistogramSet hists_;
  obs::LevelProfile levels_;  // sized to the circuit's level count
  DetectionObserver observer_;
};

}  // namespace cfs
