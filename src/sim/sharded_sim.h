// Sharded multi-threaded concurrent fault simulation.
//
// The fault universe is an embarrassingly parallel axis: once the good
// machine is fixed, faulty machines never interact.  ShardedSim partitions
// the universe into K balanced shards (faults/partition.h), runs one
// ConcurrentSim per shard over the *same* test-vector stream on a fork-join
// thread pool, and merges the shard-local detection arrays
// deterministically -- each fault's verdict is read from its owner shard, so
// results are bit-for-bit identical for any thread count, including 1.
//
// With K > 1 the shards are contiguous runs of the *site order*: fault ids
// grouped by site gate, gates by (level, gate id), masked faults last,
// built here in linear time.  A gate's site faults then sit in one shard
// (bar the K - 1 gates a cut straddles), so every other shard finds the
// gate empty and skips its merge (ConcurrentSim::merge_gate, DESIGN.md
// section 18).  The rebalancer re-cuts the same order by live-element
// weight, so a repartition moves only the faults near the cuts.
//
// All shards share one immutable SimModel (core/sim_model.h); only run
// state (fault lists, pool, good machine, queue) is per shard.  Each shard
// currently re-simulates its own good machine -- see DESIGN.md for the
// shared-good-machine follow-up.
//
// Each engine settles once per vector (twice in transition mode): the
// masters a vector captures are committed at the start of the next one
// (DESIGN.md §17).  Between vectors a shard therefore holds the last
// vector's settled frame plus that pending capture; capture_run_state()
// merges the captured masters, and the rebalancer's census weighs the
// frame.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/concurrent_sim.h"
#include "core/run_state.h"
#include "core/sim_model.h"
#include "faults/partition.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/timeline.h"
#include "obs/timers.h"
#include "obs/trace.h"
#include "patterns/pattern.h"
#include "resil/containment.h"
#include "util/memtrack.h"
#include "util/thread_pool.h"

namespace cfs {

/// When and how to repartition fault ownership mid-run.  The driver
/// consults the policy at the end of every fork-join: once per vector on
/// the per-vector paths, once per segment where shards stream
/// (apply_segment).  Rebalancing only moves faults between shards -- each
/// fault's simulation is independent of its shard, so the merged status,
/// detection order, campaign digest, and deterministic counters are
/// bit-identical for every policy; only the work/wall telemetry changes.
struct RebalancePolicy {
  enum class Mode {
    Off,   ///< the initial equal-count split for the whole run
    Auto,  ///< repartition when the cut weight's imbalance crosses `threshold`
    Every  ///< repartition unconditionally every `every` vectors
  };
  Mode mode = Mode::Off;
  /// Auto: minimum imbalance_ratio() -- the heaviest shard's cut weight
  /// over the balanced share -- before a repartition fires.  1.0 fires on
  /// any skew.
  double threshold = 1.25;
  /// Auto: vectors between two weighings.  Weighing walks every fault list,
  /// so the trigger is evaluated at the first check at least `cooldown`
  /// vectors after the previous one (or after a repartition).
  std::uint64_t cooldown = 8;
  /// Every: repartition at the first check at least `every` (>= 1) vectors
  /// after the last repartition.
  std::uint64_t every = 16;
};

struct ShardedOptions {
  /// Worker threads; the universe is split into the same number of shards
  /// (clamped to the number of faults).  1 reproduces plain ConcurrentSim
  /// with no thread machinery at all.
  unsigned num_threads = 1;
  /// Per-shard engine configuration.  A csim.max_elements budget is the
  /// budget for the *whole* universe: it is divided across the shards.
  CsimOptions csim;
  /// Shard failure containment (resil/containment.h).  Off by default.
  /// ShardedSim reads the watchdog deadline and the injector; the retry
  /// budget and backoff belong to the campaign (resil/campaign.h).
  resil::ResilOptions resil;
  /// Pattern-lane width for run(): >1 precomputes the good machine for up
  /// to `batch_width` vectors at a time in one packed multi-word
  /// BatchGoodSim (sim/batch_good_sim.h, up to kMaxBatchLanes = 256 lanes)
  /// and serves each engine's good values from the shared trajectory --
  /// the second parallelism axis, orthogonal to num_threads.  Results are
  /// bit-identical for any width (clamped to [1, kMaxBatchLanes]).
  /// Single-lane bands and the per-vector apply_vector() API use each
  /// engine's own good machine; runs with a watchdog (resil.deadline_ms >
  /// 0) plan at width 1.
  unsigned batch_width = 1;
  /// Dynamic shard rebalancing (no-op with a single shard).  At the end of
  /// a fork-join, when the policy triggers, the driver captures the merged
  /// boundary snapshot, re-cuts the site order at equal live-element
  /// weight, and restores every shard -- same machinery as a checkpoint
  /// restore, so the run continues bit-identically.
  RebalancePolicy rebalance;
  /// Initial suspension mask (size num_faults, or empty): marked faults are
  /// excluded from simulation until set_suspended()/restore_run_state()
  /// changes the overlay.  The memory-budget multi-pass path constructs
  /// later passes through this so even the engines' *initial* activation
  /// stays within budget.
  std::vector<std::uint8_t> suspended;
};

/// Activity and footprint of one shard engine.
struct EngineStats {
  std::uint64_t gates_processed = 0;
  std::uint64_t elements_evaluated = 0;
  std::uint64_t vectors_simulated = 0;
  std::uint64_t faults_dropped = 0;
  std::size_t peak_elements = 0;
  std::size_t state_bytes = 0;
  obs::Counters counters;    ///< telemetry registry (obs/counters.h)
  obs::PhaseTimers timers;   ///< per-phase wall time (obs/timers.h)
  obs::HistogramSet hists;   ///< work distributions (obs/histogram.h)
  obs::LevelProfile levels;  ///< per-level attribution (obs/histogram.h)

  /// Field-wise accumulation (counters, timers, histograms, and level
  /// profiles merge element-wise).
  void accumulate(const EngineStats& o) {
    gates_processed += o.gates_processed;
    elements_evaluated += o.elements_evaluated;
    vectors_simulated += o.vectors_simulated;
    faults_dropped += o.faults_dropped;
    peak_elements += o.peak_elements;
    state_bytes += o.state_bytes;
    counters.merge(o.counters);
    timers.merge(o.timers);
    hists.merge(o.hists);
    levels.merge(o.levels);
  }
};

/// Unified statistics over a sharded run: per-engine numbers plus their
/// sums and the shared (counted-once) model and circuit footprints.
struct SimStats {
  std::vector<EngineStats> per_engine;
  EngineStats total;  ///< field-wise sum over per_engine
  /// Driver-side phases (shard merge, observation replay) -- work outside
  /// any single engine, so kept out of `total`.
  obs::PhaseTimers driver;
  std::size_t model_bytes = 0;
  std::size_t circuit_bytes = 0;
  /// Dynamic-rebalancing counters: repartitions performed, faults whose
  /// owner shard changed, and the live elements those faults carried at
  /// migration time.  Zero with rebalancing off (or one shard).
  std::uint64_t rebalances = 0;
  std::uint64_t faults_migrated = 0;
  std::uint64_t elements_migrated = 0;
};

class ShardedSim {
 public:
  /// Convenience: builds the SimModel internally.  The caller keeps `c`,
  /// `u`, and `mmap` alive for the simulator's lifetime.
  ShardedSim(const Circuit& c, const FaultUniverse& u,
             ShardedOptions opt = {}, const MacroFaultMap* mmap = nullptr);

  /// Share an existing model across this simulator's shards (and any other
  /// engines the caller runs over it).
  explicit ShardedSim(std::shared_ptr<const SimModel> model,
                      ShardedOptions opt = {});

  /// Joins any worker threads abandoned by the deadline watchdog (a worker
  /// that never returns blocks here).
  ~ShardedSim();

  const SimModel& model() const { return *model_; }
  const FaultPartition& partition() const { return part_; }
  unsigned num_shards() const {
    return static_cast<unsigned>(engines_.size());
  }
  /// Shard engine `s` (tests and diagnostics).
  const ConcurrentSim& engine(unsigned s) const { return *engines_[s]; }

  /// Reinitialise every shard (in parallel).  Detection status is preserved
  /// unless `clear_status`.
  void reset(Val ff_init = Val::X, bool clear_status = false);

  /// Simulate a run of vectors on all shards and return the number of
  /// newly hard-detected faults across the universe.  One fork-join: each
  /// shard streams the whole segment on its own engine, firing the fault
  /// injector before each vector and recording one `vector` trace slice
  /// per vector.  Afterwards the timeline samples the segment's last
  /// vector if it wants it (end segments at every vector the timeline
  /// wants), and the rebalancing policy is consulted once.  With a
  /// detection observer, or a watchdog (resil.deadline_ms > 0), the
  /// segment steps one vector per fork-join instead: the observer's replay
  /// and the deadline act per vector.  A shard's exception is rethrown once
  /// every shard has finished; a shard still running at the deadline is
  /// abandoned and rebuilt, and resil::ShardDeadlineExceeded is thrown.  A
  /// throw leaves the driver's vector count at the segment start and the
  /// shards anywhere inside it: restore_run_state() the segment's boundary
  /// before going on (resil/campaign.h retries so).
  std::size_t apply_segment(std::span<const std::vector<Val>> vectors);

  /// The one-vector segment.  If a detection observer is set, the merged
  /// PO-mismatch observations are replayed in (PO position, fault id)
  /// order -- exactly the order a single ConcurrentSim emits them in.
  std::size_t apply_vector(std::span<const Val> pi_vals);

  /// The status changes of the last apply_segment()/apply_vector(), in
  /// (vector, fault) order, each stamped with its vector's index in the
  /// segment.  A fault that turns Potential and then Hard within one
  /// vector appears twice, Potential first.
  std::span<const StatusChange> status_changes() const { return changes_; }

  /// Simulate a whole suite: one reset per sequence, vectors in order.
  /// The suite's BatchPlan (patterns/batch_plan.h, at batch_width) splits
  /// into segments: one packed band, whose good trajectory one BatchGoodSim
  /// precomputes into a slab each engine reads its lane from, or a maximal
  /// run of unpacked bands -- at width 1 the whole suite is one segment.
  /// Each shard streams a segment on its own, one fork-join per segment,
  /// firing the fault injector before each vector, unless something must
  /// act between vectors (a detection observer, a timeline, a watchdog
  /// deadline, or rebalancing with more than one shard); then the segment
  /// goes vector by vector through apply_vector().  Every engine makes the
  /// same apply_vector calls with the same good frames either way, so the
  /// merged status, detection order, and deterministic counters are the
  /// same.
  void run(const TestSuite& t, Val ff_init = Val::X);

  // -- results ------------------------------------------------------------
  /// Merged detection status over the full universe (deterministic: each
  /// fault from its owner shard).
  const std::vector<Detect>& status() const;
  Coverage coverage() const { return summarize(status()); }

  void set_detection_observer(ConcurrentSim::DetectionObserver obs);

  // -- resilience (resil/campaign.h drives these) --------------------------

  /// Merged boundary snapshot over the whole universe: per-shard captures
  /// combined by ascending fault id.  Shard-count-agnostic -- a snapshot
  /// captured here restores into a ShardedSim with any other shard count.
  RunStateSnapshot capture_run_state() const;

  /// Restore every shard from a (whole-universe) snapshot and master status
  /// table; each engine keeps only the faults it owns and is not suspended.
  void restore_run_state(const RunStateSnapshot& s,
                         const std::vector<Detect>& status);

  /// Replace the suspension overlay on every shard (takes effect at the
  /// next restore_run_state()/reset()); the engine rebuilt for a hung shard
  /// inherits it.
  void set_suspended(const std::vector<std::uint8_t>& suspended);

  /// Push a master detection-status table into every shard ahead of a
  /// reset(): freshly built engines (campaign resume at a sequence
  /// boundary) must know which faults are already hard-detected so
  /// dropping keeps them out of the rebuilt lists.
  void adopt_status(const std::vector<Detect>& status);

  /// Start a fresh element-pool high-water epoch on every shard.
  void reset_peak_elements();

  // -- dynamic rebalancing --------------------------------------------------

  /// Repartition fault ownership by live-element weight right now: capture
  /// the merged boundary snapshot, re-cut the site order at equal per-fault
  /// cut weight (imbalance_ratio() defines it; the cut is
  /// FaultPartition::partition_by_weight), refresh every engine's
  /// ownership mask (suspension overlay reapplied), and restore.  Must be
  /// called at a vector boundary.  No-op (returns 0) with a single shard.
  /// Returns the number of faults migrated.  The policy calls this
  /// automatically; it is public for tests and explicit schedules.
  std::size_t rebalance_now();

  /// Imbalance of the weight rebalance_now() equalizes, under the current
  /// partition: the heaviest shard's load over the balanced share (1.0 =
  /// even, num_shards() = one shard carries everything).  A fault weighs
  /// its live elements, and a live fault (not hard-detected, not
  /// suspended) at least 1.  The quantity RebalancePolicy::threshold
  /// tests; it walks every fault list.
  double imbalance_ratio() const;

  /// Rebalancing counters (see SimStats).
  std::uint64_t rebalances() const { return rebalances_; }
  std::uint64_t faults_migrated() const { return faults_migrated_; }
  std::uint64_t elements_migrated() const { return elements_migrated_; }

  // -- telemetry -----------------------------------------------------------
  /// Attach a Chrome-trace emitter (obs/trace.h): one track per shard
  /// records a slice per vector (apply_segment, apply_vector) or, where
  /// run() streams, per plan lane, named after the lane's sequence;
  /// instant markers flag fault detections, and a driver track records the
  /// merge.  Pass nullptr to detach.  The emitter must outlive the runs it
  /// observes.
  void set_trace(obs::TraceEmitter* trace);

  /// Attach a time-series sampler (obs/timeline.h): every wanted vector
  /// that ends a segment records one sample -- merged detections,
  /// per-shard live-fault weight and that vector's apply latency, pool
  /// population, counter totals.  The timeline's shard width is fixed
  /// here.  `vec_base` offsets the sample vector coordinate (a resumed
  /// campaign continues its suite position).  Sampling sends run() vector
  /// by vector through apply_vector(), so every vector is a sample point.
  /// Pass nullptr to detach.  The timeline must outlive the runs it
  /// observes.
  void set_timeline(obs::Timeline* timeline, std::uint64_t vec_base = 0);
  obs::Timeline* timeline() const { return timeline_; }

  // -- statistics ----------------------------------------------------------
  SimStats stats() const;
  /// Total footprint: every shard's run state plus the shared model once.
  std::size_t bytes() const;
  /// Aggregated memory table: pool and fixed run-state bytes summed across
  /// shards, model and circuit counted once.
  void report_memory(MemStats& ms) const;

 private:
  void replay_observations();
  /// tid of the driver track (one past the shard tracks).
  std::uint32_t driver_tid() const {
    return static_cast<std::uint32_t>(engines_.size());
  }
  /// Per-shard engine options: default pool pre-size from the shard's slice,
  /// universe-wide element budget divided across the shards.
  CsimOptions shard_csim_options(unsigned s) const;
  /// Build (or rebuild, for a hung shard) shard `s`'s engine with the
  /// current suspension overlay.
  std::unique_ptr<ConcurrentSim> make_shard_engine(unsigned s) const;
  /// apply_segment() and apply_vector(): clear the engines' status logs,
  /// run the segment (per vector when observed or watched), collect the
  /// logs into changes_.
  std::size_t apply_vectors(std::span<const std::span<const Val>> vectors);
  /// One fork-join over `vectors`, then the count, the observer replay,
  /// the sample and the policy check.  A watchdog fork takes one vector.
  std::size_t fork_vectors(std::span<const std::span<const Val>> vectors);
  /// Shard `s`'s turn at driver vector `vec`: the injector's hook, then its
  /// engine.  `slice` records the `vector` trace slice; `sample` notes the
  /// shard's latency for the timeline.
  std::size_t shard_step(std::size_t s, std::span<const Val> pis,
                         std::uint64_t vec, bool slice, bool sample);
  /// The watchdog fork: one thread per shard, a deadline, and the hung
  /// shards parked in graveyard_ and rebuilt.  Fills `newly`.
  void apply_watched(std::span<const Val> pi_vals,
                     std::vector<std::size_t>& newly, bool sampling);
  /// Shard `s`'s `vector` slice on its trace track, [t0, t1], plus an
  /// instant for the faults it newly detected (no-op without a trace).
  void trace_vector(std::size_t s, std::uint64_t t0, std::uint64_t t1,
                    std::size_t newly) const;
  /// Assemble and record one timeline sample for the vector that just
  /// completed (driver thread; merged status is the deterministic source).
  void record_sample(std::uint64_t vec_no);
  /// End-of-fork policy check: rebalance_now() when the configured
  /// trigger (auto threshold + cooldown, or every-N) fires.
  void maybe_rebalance();
  /// The per-fault weight the rebalancer cuts on (see imbalance_ratio());
  /// `elems` receives the live-element counts alone.
  std::vector<std::uint64_t> cut_weights(
      std::vector<std::uint64_t>& elems) const;

  std::shared_ptr<const SimModel> model_;
  ShardedOptions opt_;
  FaultPartition part_;
  ThreadPool pool_;
  std::vector<std::unique_ptr<ConcurrentSim>> engines_;

  // Current suspension overlay (mirrors what every engine was last given).
  std::vector<std::uint8_t> suspended_;
  // Driver-level vector counter: the `vector` coordinate injection specs
  // address, and the campaign's notion of progress.
  std::uint64_t vectors_applied_ = 0;
  // Dynamic-rebalancing counters, and the driver vector count at the last
  // repartition or auto weighing (both policies wait from here).
  std::uint64_t rebalances_ = 0;
  std::uint64_t faults_migrated_ = 0;
  std::uint64_t elements_migrated_ = 0;
  std::uint64_t policy_anchor_vec_ = 0;
  // The last segment's merged status changes (status_changes()).
  std::vector<StatusChange> changes_;
  // A hung shard's abandoned worker and engine: the thread still runs (or
  // sleeps) inside the engine, so both stay alive, parked here, until the
  // destructor joins them.  A worker that never returns therefore blocks
  // the destructor.
  struct Abandoned {
    std::unique_ptr<ConcurrentSim> engine;
    std::thread worker;
  };
  std::vector<Abandoned> graveyard_;
  // Per shard, the peak element count of the engines parked from that
  // slot, noted before their last vector started (a parked worker may
  // still be running, so its engine is never read again).
  std::vector<std::size_t> parked_peak_;

  ConcurrentSim::DetectionObserver observer_;
  struct Observation {
    std::uint32_t po;
    std::uint32_t fault;
    bool hard;
  };
  std::vector<std::vector<Observation>> shard_obs_;  // per shard, per vector

  obs::TraceEmitter* trace_ = nullptr;
  obs::Timeline* timeline_ = nullptr;
  std::uint64_t vec_base_ = 0;
  // Per-shard wall time of the last sampled vector, and a preallocated
  // sample the driver refills (no allocation per sample).
  std::vector<std::uint64_t> shard_latency_us_;
  obs::TimelineSample sample_scratch_;
  // Merge/replay happen in const accessors; the timers still record them.
  mutable obs::PhaseTimers driver_timers_;
  // Driver-side telemetry: the packed good machine's counters plus
  // BatchLanesWasted and the rebalance counters, merged into stats().total
  // (no engine owns them).
  obs::Counters batch_counters_;

  mutable std::vector<Detect> merged_;
  mutable bool merged_dirty_ = true;
};

}  // namespace cfs
