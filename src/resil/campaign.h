// Resilient fault-simulation campaigns: checkpoint/resume and memory-budget
// multi-pass degradation over the sharded concurrent engine.
//
// A *campaign* is one suite of test sequences simulated against one fault
// universe.  CampaignRunner drives a ShardedSim (1 shard == plain
// ConcurrentSim) one *segment* at a time -- the vectors up to the next
// place the campaign must act: a checkpoint, the halt, a timeline sample,
// or the sequence end -- each streamed by every shard in one fork-join
// (ShardedSim::apply_segment).  Detections come from the shards' status
// logs, stamped with the vector at which each happened.  It adds three
// robustness layers the raw drivers do not have:
//
//  1. Checkpointing: every N vectors the campaign state -- master status,
//     detection positions, deterministic counters, pattern cursor, engine
//     run state -- is serialized to a CRC-guarded snapshot file
//     (resil/snapshot.h) with an atomic rename.  A killed campaign resumes
//     from the last checkpoint bit-identically: same coverage, same
//     detection order, same deterministic counters as the uninterrupted run.
//
//  2. Memory-budget degradation: with CsimOptions::max_elements set, a pool
//     overflow (PoolBudgetError) anywhere suspends the upper half of the
//     still-active undetected faults, restores the segment's boundary, and
//     replays the segment; faults parked this way are finished by
//     additional passes over the same vector sequence.  The detected set
//     is identical to the unlimited run's -- only wall time and pass count
//     grow.
//
//  3. Shard failure containment (ShardedOptions::resil,
//     resil/containment.h): a shard's exception, or a shard still running at
//     the watchdog deadline (ShardDeadlineExceeded), restores every shard
//     from the same segment boundary and replays the segment, with
//     exponential backoff, up to max_retries times.  The campaign counts
//     the failed attempts it retried, and the requeues of hung shards
//     among them.
//
// Deterministic counters (DetectionsHard/DetectionsPotential/FaultsDropped)
// are recomputed here from master-status transitions rather than read from
// engine telemetry: engines are torn down and rebuilt across restores,
// retries, and passes, but a status transition happens exactly once per
// fault no matter how the work was scheduled.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sim_model.h"
#include "faults/macro_map.h"
#include "patterns/pattern.h"
#include "resil/containment.h"
#include "resil/snapshot.h"
#include "sim/sharded_sim.h"

namespace cfs::resil {

struct CampaignOptions {
  /// Engine/driver configuration: thread count, csim switches (including
  /// the element budget csim.max_elements), containment knobs.
  ShardedOptions sharded;
  /// Flip-flop initialisation value at every sequence start.
  Val ff_init = Val::X;

  /// Checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Write a checkpoint every N vectors (0 with a path set: only on halt).
  std::uint64_t checkpoint_every = 0;
  /// Resume from this checkpoint instead of starting fresh; empty = fresh.
  std::string resume_path;

  /// Upper bound on memory-budget passes; exceeded = cfs::Error (the budget
  /// is unusably small).
  unsigned max_passes = 32;

  /// Checkpoint-write resilience: a failed save is retried up to
  /// checkpoint_retries times with exponential backoff before the
  /// CheckpointIoError surfaces (resil/snapshot.h SaveRetryOptions).
  unsigned checkpoint_retries = 3;
  std::uint32_t checkpoint_backoff_ms = 1;

  /// Cooperative stop flag (not owned, may be null).  Checked at every
  /// segment end; when it reads true the campaign writes a final checkpoint
  /// (if a path is set and the periodic write did not just save the same
  /// boundary) and returns with halted+stopped set -- the
  /// graceful-drain primitive the service layer builds SIGTERM handling on.
  /// A stop lands at most a segment later: with a timeline sampling every
  /// N vectors, within N vectors.
  const std::atomic<bool>* stop = nullptr;

  /// Optional telemetry, both owned by the caller and outliving run().
  /// The timeline samples every vector it wants (vec coordinate = suite
  /// position, continuing seamlessly across a resume; each wanted vector
  /// ends a segment) and, when streaming, is
  /// flushed exactly at checkpoint boundaries: a kill -9 leaves a JSONL
  /// stream whose last sample precedes the checkpoint the campaign
  /// resumes from, so resume appends a contiguous continuation.  The
  /// trace emitter records shard slices and counter tracks as in plain
  /// sharded runs.
  obs::Timeline* timeline = nullptr;
  obs::TraceEmitter* trace = nullptr;

  /// Test hooks.  halt_after stops the campaign after N cumulative vectors
  /// (0 = run to completion) -- with a checkpoint path set, a final
  /// checkpoint is written first (once: a halt on a checkpoint_every
  /// boundary reuses the periodic write), so halt+resume mimics
  /// kill+resume in-process.  sleep_ms stalls for that long per vector, once after
  /// each segment (paces the campaign so an external kill lands mid-run
  /// deterministically enough to test).
  std::uint64_t halt_after = 0;
  std::uint32_t sleep_ms = 0;
};

struct CampaignResult {
  std::vector<Detect> status;
  /// Suite position (0-based, across sequences) of each fault's first hard
  /// detection; kNotDetected otherwise.  Pass-invariant: faulty machines
  /// never interact, so a fault parked by the memory budget and detected in
  /// a later pass is stamped with the same position the unlimited run
  /// records -- digest() therefore matches across any --max-elements.
  std::vector<std::uint64_t> detected_at;
  Coverage coverage;

  // Deterministic counters (shard- and schedule-invariant).
  std::uint64_t detections_hard = 0;
  std::uint64_t detections_potential = 0;
  std::uint64_t faults_dropped = 0;

  std::uint32_t passes = 1;           ///< memory-budget passes used
  std::uint64_t vectors = 0;          ///< vectors simulated (all passes)
  std::uint64_t checkpoints_written = 0;
  /// Failed checkpoint-save attempts that the bounded retry/backoff policy
  /// absorbed (each eventually succeeded; exhaustion throws instead).
  std::uint64_t checkpoint_write_retries = 0;
  bool halted = false;                ///< stopped by halt_after or stop flag
  bool stopped = false;               ///< stopped by the cooperative flag
  std::uint64_t shard_retries = 0;    ///< failed segment attempts retried
  std::uint64_t shard_requeues = 0;   ///< retries after a hung shard
  std::size_t peak_elements = 0;      ///< summed shard pool high-water
  /// Dynamic-rebalancing activity (this process only -- a resumed campaign
  /// rebuilds its simulator, and with it these work-telemetry counters;
  /// the digest is invariant to both).
  std::uint64_t rebalances = 0;
  std::uint64_t faults_migrated = 0;
  std::uint64_t elements_migrated = 0;

  /// FNV-1a over (status, detected_at): one number that pins coverage AND
  /// detection order, for cheap resume-vs-uninterrupted comparisons.
  std::uint64_t digest() const;
};

class CampaignRunner {
 public:
  /// The caller keeps `c`, `u`, `t` (and `mmap`) alive for the runner's
  /// lifetime.  In macro mode pass the extracted circuit and the map, as
  /// with ConcurrentSim.
  CampaignRunner(const Circuit& c, const FaultUniverse& u, const TestSuite& t,
                 CampaignOptions opt, const MacroFaultMap* mmap = nullptr);

  /// Share an already-built model (the service's model cache): the runner
  /// holds a reference, so the model may outlive the objects it was built
  /// from as long as `model` owns them (see svc::ModelCache).
  CampaignRunner(std::shared_ptr<const SimModel> model, const TestSuite& t,
                 CampaignOptions opt);

  /// Run (or resume) the campaign to completion or halt_after.
  CampaignResult run();

 private:
  void start_fresh();
  void start_resumed();
  /// (Re)build the ShardedSim under the current suspension overlay,
  /// shrinking the overlay until construction fits the element budget.
  void build_sim();
  /// restore_run_state that survives budget overflows the same way.
  void restore_with_budget(const RunStateSnapshot& snap);
  /// Sequence-start reset (the engines' own reset(), which activates the
  /// flip-flop site faults diverging in the initial state), shrinking the
  /// suspension overlay until the rebuilt lists fit the element budget.
  void reset_with_budget();
  /// Park the upper half (by id) of the still-active undetected faults.
  void suspend_half();
  /// Fold the last segment's status changes into the master state;
  /// `suite_pos` is the segment's first vector's suite position.
  void absorb_segment(std::uint64_t suite_pos);
  /// Vectors in the next segment, out of the `left` the sequence still
  /// holds: it ends at the first vector after which the campaign must act.
  std::uint64_t segment_length(std::uint64_t left) const;
  void write_checkpoint();
  CampaignCheckpoint make_checkpoint() const;
  bool pass_remainder_exists() const;

  const TestSuite& suite_;
  CampaignOptions opt_;
  std::shared_ptr<const SimModel> model_;
  std::unique_ptr<ShardedSim> sim_;

  // Master campaign state (what checkpoints serialize).
  std::vector<Detect> status_;
  std::vector<std::uint64_t> detected_at_;
  std::vector<std::uint8_t> done_;
  std::vector<std::uint8_t> suspended_;
  std::uint64_t det_hard_ = 0;
  std::uint64_t det_potential_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint32_t pass_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t vec_ = 0;
  std::uint64_t pos_ = 0;

  std::uint64_t vectors_run_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t checkpoint_write_retries_ = 0;
  std::uint64_t shard_retries_ = 0;
  std::uint64_t shard_requeues_ = 0;
  std::uint64_t suite_fp_ = 0;
  bool resumed_mid_sequence_ = false;
};

}  // namespace cfs::resil
