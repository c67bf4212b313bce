#include "resil/campaign.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <thread>

#include "util/error.h"
#include "util/pool.h"

namespace cfs::resil {

namespace {

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

std::uint64_t CampaignResult::digest() const {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const Detect d : status) h = fnv_mix(h, static_cast<std::uint64_t>(d));
  for (const std::uint64_t v : detected_at) h = fnv_mix(h, v);
  return h;
}

CampaignRunner::CampaignRunner(const Circuit& c, const FaultUniverse& u,
                               const TestSuite& t, CampaignOptions opt,
                               const MacroFaultMap* mmap)
    : suite_(t),
      opt_(std::move(opt)),
      model_(std::make_shared<SimModel>(c, u, mmap)),
      suite_fp_(suite_fingerprint(t)) {}

CampaignRunner::CampaignRunner(std::shared_ptr<const SimModel> model,
                               const TestSuite& t, CampaignOptions opt)
    : suite_(t),
      opt_(std::move(opt)),
      model_(std::move(model)),
      suite_fp_(suite_fingerprint(t)) {}

void CampaignRunner::start_fresh() {
  const std::size_t nf = model_->num_faults();
  status_.assign(nf, Detect::None);
  detected_at_.assign(nf, kNotDetected);
  done_.assign(nf, 0);
  suspended_.assign(nf, 0);
  det_hard_ = det_potential_ = dropped_ = 0;
  pass_ = 0;
  seq_ = vec_ = pos_ = 0;
  resumed_mid_sequence_ = false;
  build_sim();
}

void CampaignRunner::start_resumed() {
  CampaignCheckpoint ck = load_checkpoint(opt_.resume_path);
  const Circuit& c = model_->circuit();
  if (ck.suite_fp != suite_fp_) {
    throw SnapshotError("checkpoint was written for a different test suite");
  }
  if (ck.num_gates != c.num_gates() || ck.num_dffs != c.dffs().size() ||
      ck.num_pis != c.inputs().size() ||
      ck.num_faults != model_->num_faults() ||
      (ck.transition_mode != 0) != model_->transition_mode()) {
    throw SnapshotError(
        "checkpoint was written for a different circuit or fault universe");
  }
  status_ = std::move(ck.status);
  detected_at_ = std::move(ck.detected_at);
  done_ = std::move(ck.done);
  suspended_ = std::move(ck.suspended);
  det_hard_ = ck.detections_hard;
  det_potential_ = ck.detections_potential;
  dropped_ = ck.faults_dropped;
  pass_ = ck.pass;
  seq_ = ck.seq_index;
  vec_ = ck.vec_index;
  pos_ = ck.suite_pos;
  build_sim();
  // Mid-sequence resumes continue from the snapshotted machine state; a
  // cursor at a sequence boundary starts the next sequence from the normal
  // initial state instead (exactly what the uninterrupted run would do).
  resumed_mid_sequence_ = vec_ != 0;
  if (resumed_mid_sequence_) restore_with_budget(ck.run);
}

void CampaignRunner::build_sim() {
  for (;;) {
    try {
      ShardedOptions so = opt_.sharded;
      so.suspended = suspended_;
      sim_ = std::make_unique<ShardedSim>(model_, std::move(so));
      // Samples carry suite positions: a resumed campaign's timeline
      // continues where the interrupted one left off.
      if (opt_.timeline != nullptr) sim_->set_timeline(opt_.timeline, pos_);
      if (opt_.trace != nullptr) sim_->set_trace(opt_.trace);
      return;
    } catch (const PoolBudgetError&) {
      // Even the initial activation does not fit: park half the universe
      // before the first vector; later passes will pick it up.
      suspend_half();
    }
  }
}

void CampaignRunner::restore_with_budget(const RunStateSnapshot& snap) {
  for (;;) {
    try {
      sim_->restore_run_state(snap, status_);
      return;
    } catch (const PoolBudgetError&) {
      suspend_half();
    }
  }
}

void CampaignRunner::reset_with_budget() {
  for (;;) {
    try {
      sim_->reset(opt_.ff_init, /*clear_status=*/false);
      return;
    } catch (const PoolBudgetError&) {
      suspend_half();
    }
  }
}

void CampaignRunner::suspend_half() {
  std::vector<std::uint32_t> active;
  for (std::uint32_t id = 0; id < status_.size(); ++id) {
    if (suspended_[id] == 0 && done_[id] == 0 && status_[id] != Detect::Hard) {
      active.push_back(id);
    }
  }
  if (active.size() <= 1) {
    throw Error("element budget (" +
                std::to_string(opt_.sharded.csim.max_elements) +
                ") too small: overflow with " +
                std::to_string(active.size()) + " active fault(s) left");
  }
  // Keep the lower half (by fault id) active; everything above waits for a
  // later pass.  Deterministic: depends only on ids and master status.
  for (std::size_t i = active.size() / 2; i < active.size(); ++i) {
    suspended_[active[i]] = 1;
  }
  if (sim_) sim_->set_suspended(suspended_);
}

void CampaignRunner::absorb_segment(std::uint64_t suite_pos) {
  const std::span<const StatusChange> changes = sim_->status_changes();
  const bool drop = opt_.sharded.csim.drop_detected;
  for (std::size_t i = 0; i < changes.size(); ++i) {
    const StatusChange& c = changes[i];
    // Only a fault's status at the end of a vector counts: one that turns
    // Potential and then Hard within a vector is a hard detection alone.
    if (i + 1 < changes.size() && changes[i + 1].vector == c.vector &&
        changes[i + 1].fault == c.fault) {
      continue;
    }
    if (c.status == Detect::Hard && status_[c.fault] != Detect::Hard) {
      status_[c.fault] = Detect::Hard;
      detected_at_[c.fault] = suite_pos + c.vector;
      ++det_hard_;
      if (drop) ++dropped_;
    } else if (c.status == Detect::Potential &&
               status_[c.fault] == Detect::None) {
      status_[c.fault] = Detect::Potential;
      ++det_potential_;
    }
  }
}

std::uint64_t CampaignRunner::segment_length(std::uint64_t left) const {
  std::uint64_t n = left;
  if (!opt_.checkpoint_path.empty() && opt_.checkpoint_every != 0) {
    n = std::min(n, opt_.checkpoint_every - pos_ % opt_.checkpoint_every);
  }
  if (opt_.halt_after != 0) {
    // A campaign resumed at or past its halt runs one vector, then halts.
    n = opt_.halt_after > pos_ ? std::min(n, opt_.halt_after - pos_) : 1;
  }
  if (opt_.timeline != nullptr) {
    for (std::uint64_t i = 0; i < n; ++i) {
      if (opt_.timeline->want(pos_ + i)) {
        n = i + 1;
        break;
      }
    }
  }
  return n;
}

bool CampaignRunner::pass_remainder_exists() const {
  for (std::size_t id = 0; id < status_.size(); ++id) {
    if (suspended_[id] != 0 && done_[id] == 0 &&
        status_[id] != Detect::Hard) {
      return true;
    }
  }
  return false;
}

CampaignCheckpoint CampaignRunner::make_checkpoint() const {
  CampaignCheckpoint ck;
  const Circuit& c = model_->circuit();
  ck.suite_fp = suite_fp_;
  ck.num_gates = static_cast<std::uint32_t>(c.num_gates());
  ck.num_dffs = static_cast<std::uint32_t>(c.dffs().size());
  ck.num_pis = static_cast<std::uint32_t>(c.inputs().size());
  ck.num_faults = static_cast<std::uint32_t>(model_->num_faults());
  ck.transition_mode = model_->transition_mode() ? 1 : 0;
  ck.pass = pass_;
  // Normalize the cursor so a resume at a sequence boundary begins the next
  // sequence cleanly (vec_index 0 == "start of sequence").
  std::uint64_t s = seq_;
  std::uint64_t v = vec_;
  const auto& seqs = suite_.sequences();
  while (s < seqs.size() && v >= seqs[s].size()) {
    ++s;
    v = 0;
  }
  ck.seq_index = s;
  ck.vec_index = v;
  ck.suite_pos = pos_;
  ck.detections_hard = det_hard_;
  ck.detections_potential = det_potential_;
  ck.faults_dropped = dropped_;
  ck.status = status_;
  ck.detected_at = detected_at_;
  ck.done = done_;
  ck.suspended = suspended_;
  ck.run = sim_->capture_run_state();
  return ck;
}

void CampaignRunner::write_checkpoint() {
  checkpoint_write_retries_ += save_checkpoint_retry(
      opt_.checkpoint_path, make_checkpoint(),
      {opt_.checkpoint_retries, opt_.checkpoint_backoff_ms});
  ++checkpoints_;
  // Flush the timeline stream only at checkpoint boundaries: everything on
  // disk precedes the checkpoint a kill would resume from, so the resumed
  // campaign appends a contiguous, duplicate-free continuation.
  if (opt_.timeline != nullptr) opt_.timeline->flush();
}

CampaignResult CampaignRunner::run() {
  if (!opt_.resume_path.empty()) {
    start_resumed();
  } else {
    start_fresh();
  }

  const std::size_t nf = model_->num_faults();
  const bool budgeted = opt_.sharded.csim.max_elements != 0;
  const ResilOptions& ro = opt_.sharded.resil;
  const auto& seqs = suite_.sequences();

  // Shard failure containment: whether to retry a segment that has
  // already been retried `failures` times; a retry sleeps an exponential
  // backoff first.
  const auto contain = [&](unsigned& failures) {
    if (failures >= ro.max_retries) return false;
    ++failures;
    ++shard_retries_;
    const std::uint64_t ms = std::uint64_t{ro.backoff_ms}
                             << std::min(failures - 1, 20u);
    if (ms != 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return true;
  };

  const auto finish = [&](bool halted, bool stopped = false) {
    // Orderly exits drain the sample buffer (a checkpoint, when one was
    // just written, already covers everything flushed here).
    if (opt_.timeline != nullptr) opt_.timeline->flush();
    CampaignResult res;
    res.status = status_;
    res.detected_at = detected_at_;
    res.coverage = summarize(status_);
    res.detections_hard = det_hard_;
    res.detections_potential = det_potential_;
    res.faults_dropped = dropped_;
    res.passes = pass_ + 1;
    res.vectors = vectors_run_;
    res.checkpoints_written = checkpoints_;
    res.checkpoint_write_retries = checkpoint_write_retries_;
    res.halted = halted;
    res.stopped = stopped;
    res.shard_retries = shard_retries_;
    res.shard_requeues = shard_requeues_;
    res.peak_elements = sim_->stats().total.peak_elements;
    res.rebalances = sim_->rebalances();
    res.faults_migrated = sim_->faults_migrated();
    res.elements_migrated = sim_->elements_migrated();
    return res;
  };

  for (;;) {  // memory-budget passes
    for (; seq_ < seqs.size(); ++seq_, vec_ = 0) {
      const PatternSet& sq = seqs[seq_];
      // Suite position of this sequence's first vector (pass-independent;
      // detected_at stamps are relative to the suite, not the campaign).
      std::uint64_t seq_base = 0;
      for (std::uint64_t i = 0; i < seq_; ++i) seq_base += seqs[i].size();
      if (!resumed_mid_sequence_) {
        // Sequence start: the engines' own reset(), NOT a restore of an
        // empty synthetic snapshot -- restore injects a snapshot's
        // divergence lists verbatim, so an empty one would silently skip
        // the flip-flop site faults that diverge in the initial state.
        // Engines freshly built by a boundary resume first adopt the
        // master status so already-detected faults stay dropped.
        sim_->adopt_status(status_);
        reset_with_budget();
      }
      resumed_mid_sequence_ = false;
      while (vec_ < sq.size()) {
        // One segment: the shards stream up to the next place the campaign
        // must act (a checkpoint, the halt, a timeline sample, the
        // sequence end).
        const std::uint64_t n = segment_length(sq.size() - vec_);
        const auto segment = std::span(sq.vectors()).subspan(vec_, n);
        // Boundary snapshot: what a budget overflow or a failed shard
        // rolls back to.  Only paid when a budget or containment is on.
        RunStateSnapshot boundary;
        if (budgeted || ro.max_retries > 0) {
          boundary = sim_->capture_run_state();
        }
        for (unsigned failures = 0;;) {
          try {
            sim_->apply_segment(segment);
            break;
          } catch (const PoolBudgetError&) {
            if (!budgeted) throw;
            // Degrade: park half the remaining work.
            suspend_half();
          } catch (const ShardDeadlineExceeded&) {
            if (!contain(failures)) throw;
            ++shard_requeues_;
          } catch (...) {
            if (!contain(failures)) throw;
          }
          // Roll every shard back to the segment boundary and replay it.
          restore_with_budget(boundary);
        }
        absorb_segment(seq_base + vec_);
        vec_ += n;
        pos_ += n;
        vectors_run_ += n;
        if (opt_.sleep_ms != 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(std::uint64_t{opt_.sleep_ms} * n));
        }
        // A halt or stop persists the boundary just reached so the run
        // resumes bit-identically -- unless the periodic write already
        // saved this very boundary.
        bool saved = false;
        if (!opt_.checkpoint_path.empty() && opt_.checkpoint_every != 0 &&
            pos_ % opt_.checkpoint_every == 0) {
          write_checkpoint();
          saved = true;
        }
        const bool halt = opt_.halt_after != 0 && pos_ >= opt_.halt_after;
        const bool stop =
            !halt && opt_.stop != nullptr &&
            opt_.stop->load(std::memory_order_relaxed);
        if (halt || stop) {
          // Graceful drain on a stop: report halted+stopped.
          if (!opt_.checkpoint_path.empty() && !saved) write_checkpoint();
          return finish(/*halted=*/true, /*stopped=*/stop);
        }
      }
    }

    // Pass complete: everything that was active is now fully simulated.
    for (std::size_t id = 0; id < nf; ++id) {
      if (suspended_[id] == 0) done_[id] = 1;
    }
    if (!pass_remainder_exists()) break;
    ++pass_;
    if (pass_ >= opt_.max_passes) {
      throw Error("element budget requires more than " +
                  std::to_string(opt_.max_passes) +
                  " passes; raise --max-elements");
    }
    // Next pass: activate exactly the parked remainder (suspended, not yet
    // fully simulated, not already hard-detected).
    for (std::size_t id = 0; id < nf; ++id) {
      const bool remaining = suspended_[id] != 0 && done_[id] == 0 &&
                             status_[id] != Detect::Hard;
      suspended_[id] = remaining ? 0 : 1;
    }
    sim_->set_suspended(suspended_);
    seq_ = 0;
    vec_ = 0;
  }

  if (!opt_.checkpoint_path.empty()) write_checkpoint();
  return finish(/*halted=*/false);
}

}  // namespace cfs::resil
