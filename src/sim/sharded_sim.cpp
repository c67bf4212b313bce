#include "sim/sharded_sim.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <tuple>

#include "patterns/batch_plan.h"
#include "sim/batch_good_sim.h"
#include "util/dualrail.h"
#include "util/error.h"
#include "util/pool.h"

namespace cfs {

namespace {

unsigned clamp_shards(unsigned num_threads, std::size_t num_faults) {
  unsigned k = num_threads == 0 ? 1 : num_threads;
  const std::size_t cap = num_faults == 0 ? 1 : num_faults;
  if (k > cap) k = static_cast<unsigned>(cap);
  return k;
}

// The site order the shards are cut from: fault ids grouped by site gate,
// gates by (level, gate id) -- sources are level 0 -- and masked faults,
// which have no site list, last.  Linear time: a counting sort of the
// gates by level, then one pass over the site-fault index.
std::vector<std::uint32_t> site_order(const SimModel& m) {
  const Circuit& c = m.circuit();
  const std::size_t n = c.num_gates();
  std::vector<std::uint32_t> start(c.num_levels() + 1, 0);
  for (GateId g = 0; g < n; ++g) ++start[c.level(g) + 1];
  for (std::size_t l = 1; l < start.size(); ++l) start[l] += start[l - 1];
  std::vector<GateId> by_level(n);
  for (GateId g = 0; g < n; ++g) by_level[start[c.level(g)]++] = g;

  std::vector<std::uint32_t> order;
  order.reserve(m.num_faults());
  for (const GateId g : by_level) {
    const auto site = m.site_faults(g);
    order.insert(order.end(), site.begin(), site.end());
  }
  for (std::uint32_t id = 0; id < m.num_faults(); ++id) {
    if (m.descriptor(id).masked) order.push_back(id);
  }
  return order;
}

FaultPartition site_partition(const SimModel& m, unsigned num_threads) {
  const unsigned k = clamp_shards(num_threads, m.num_faults());
  return k > 1 ? FaultPartition(m.num_faults(), k, site_order(m))
               : FaultPartition(m.num_faults(), k);
}

// The plan's lane walk, shared by both branches of ShardedSim::run: the
// segment's lanes in suite order, reset() where a sequence starts (an
// empty sequence's zero-length lane included), then apply(vector, frame,
// lane) for each vector.  `frame` is the vector's settled good frame in a
// packed band's slab, or nullptr in an unpacked segment; `lane` indexes the
// band.  With a trace, each lane records one slice on track `tid`, named
// after its sequence, and an instant for the faults apply() newly detects.
template <typename Reset, typename Apply>
void walk_lanes(std::span<const BatchBand> segment, const TestSuite& t,
                const Word64* slab, std::size_t frame_words,
                obs::TraceEmitter* trace, std::uint32_t tid, Reset&& reset,
                Apply&& apply) {
  for (const BatchBand& band : segment) {
    for (std::size_t l = 0; l < band.lanes.size(); ++l) {
      const BatchLane& lane = band.lanes[l];
      const std::uint64_t t0 = trace != nullptr ? trace->now_us() : 0;
      if (lane.begin == 0) reset();
      const PatternSet& seq = t.sequences()[lane.seq];
      std::size_t newly = 0;
      for (std::uint32_t i = 0; i < lane.count; ++i) {
        const Word64* frame =
            slab != nullptr ? slab + std::size_t{i} * frame_words : nullptr;
        newly += apply(seq[lane.begin + i], frame, static_cast<unsigned>(l));
      }
      if (trace != nullptr) {
        const std::uint64_t t1 = trace->now_us();
        trace->complete(tid, "sequence " + std::to_string(lane.seq), t0,
                        t1 - t0);
        if (newly > 0) {
          trace->instant(tid, "detect x" + std::to_string(newly), t1);
        }
      }
    }
  }
}

}  // namespace

ShardedSim::ShardedSim(const Circuit& c, const FaultUniverse& u,
                       ShardedOptions opt, const MacroFaultMap* mmap)
    : ShardedSim(std::make_shared<SimModel>(c, u, mmap), opt) {}

ShardedSim::ShardedSim(std::shared_ptr<const SimModel> model,
                       ShardedOptions opt)
    : model_(std::move(model)),
      opt_(opt),
      part_(site_partition(*model_, opt.num_threads)),
      pool_(part_.num_shards()),
      suspended_(std::move(opt_.suspended)) {
  const unsigned k = part_.num_shards();
  engines_.resize(k);
  shard_obs_.resize(k);
  parked_peak_.assign(k, 0);
  // Shard construction includes the initial reset (a full good-machine
  // sweep plus fault activation), so build the engines in parallel too.
  pool_.parallel_for(k, [&](std::size_t s) {
    engines_[s] = make_shard_engine(static_cast<unsigned>(s));
  });
}

ShardedSim::~ShardedSim() {
  // Abandoned workers hold raw pointers into their graveyard engines, so
  // join every thread before the engines (members of the same structs)
  // destruct.  A stalled shard wakes up eventually; this is where we wait.
  for (Abandoned& a : graveyard_) {
    if (a.worker.joinable()) a.worker.join();
  }
}

CsimOptions ShardedSim::shard_csim_options(unsigned s) const {
  CsimOptions copt = opt_.csim;
  const unsigned k = part_.num_shards();
  // Each shard's element pool is pre-sized from its own slice of the
  // universe (+1 for the sentinel) unless the caller already gave a hint.
  if (copt.reserve_elements == 0) {
    copt.reserve_elements = part_.shard_size(s) + 1;
  }
  // The element budget is a universe-wide ceiling: divide it across the
  // shards (the floor of 2 keeps a degenerate split able to hold at least
  // one real element per shard).
  if (copt.max_elements != 0 && k > 1) {
    copt.max_elements = std::max<std::size_t>(copt.max_elements / k, 2);
  }
  return copt;
}

std::unique_ptr<ConcurrentSim> ShardedSim::make_shard_engine(
    unsigned s) const {
  const CsimOptions copt = shard_csim_options(s);
  const std::vector<std::uint8_t>* susp =
      suspended_.empty() ? nullptr : &suspended_;
  // A single shard covering the whole universe gets no partition filter at
  // all: ShardedSim with --threads 1 *is* plain ConcurrentSim.
  if (part_.num_shards() == 1) {
    return std::make_unique<ConcurrentSim>(model_, copt, nullptr, 0, susp);
  }
  return std::make_unique<ConcurrentSim>(model_, copt, &part_, s, susp);
}

void ShardedSim::reset(Val ff_init, bool clear_status) {
  pool_.parallel_for(engines_.size(), [&](std::size_t s) {
    engines_[s]->reset(ff_init, clear_status);
  });
  merged_dirty_ = true;
}

std::size_t ShardedSim::apply_segment(
    std::span<const std::vector<Val>> vectors) {
  const std::vector<std::span<const Val>> pis(vectors.begin(), vectors.end());
  return apply_vectors(pis);
}

std::size_t ShardedSim::apply_vector(std::span<const Val> pi_vals) {
  return apply_vectors({&pi_vals, 1});
}

std::size_t ShardedSim::apply_vectors(
    std::span<const std::span<const Val>> vectors) {
  for (auto& e : engines_) e->clear_status_log();
  changes_.clear();
  const std::uint64_t start = vectors_applied_;
  std::size_t newly = 0;
  try {
    if (observer_ || opt_.resil.deadline_ms > 0) {
      // The observer's replay and the watchdog's deadline act per vector.
      for (std::size_t i = 0; i < vectors.size(); ++i) {
        newly += fork_vectors(vectors.subspan(i, 1));
      }
    } else {
      newly = fork_vectors(vectors);
    }
  } catch (...) {
    vectors_applied_ = start;
    throw;
  }
  // Each log is in time order; (vector, fault, status) is a total order
  // that keeps it, since a fault's status only rises within a vector.
  for (const auto& e : engines_) {
    const std::vector<StatusChange>& log = e->status_log();
    changes_.insert(changes_.end(), log.begin(), log.end());
  }
  std::sort(changes_.begin(), changes_.end(),
            [](const StatusChange& a, const StatusChange& b) {
              return std::tie(a.vector, a.fault, a.status) <
                     std::tie(b.vector, b.fault, b.status);
            });
  return newly;
}

std::size_t ShardedSim::fork_vectors(
    std::span<const std::span<const Val>> vectors) {
  const std::size_t k = engines_.size();
  const std::size_t n = vectors.size();
  if (n == 0) return 0;
  const std::uint64_t first = vectors_applied_;
  const std::uint64_t last_no = vec_base_ + first + n - 1;
  const bool sampling = timeline_ != nullptr && timeline_->want(last_no);
  std::vector<std::size_t> newly(k, 0);
  // A throw leaves the shards mid-segment; the caller restores a boundary.
  merged_dirty_ = true;
  // A pool task cannot be abandoned, so a watchdog runs each shard on its
  // own thread.  Observed runs keep the pool: an abandoned worker could
  // still be appending to its observation buffer when the retry records
  // into the same slot.
  if (opt_.resil.deadline_ms > 0 && !observer_) {
    apply_watched(vectors[0], newly, sampling);
  } else {
    pool_.parallel_for(k, [&](std::size_t s) {
      shard_obs_[s].clear();
      for (std::size_t i = 0; i < n; ++i) {
        newly[s] += shard_step(s, vectors[i], first + i, /*slice=*/true,
                               sampling && i + 1 == n);
      }
    });
  }
  vectors_applied_ += n;
  if (observer_) replay_observations();
  if (sampling) record_sample(last_no);
  maybe_rebalance();
  std::size_t total = 0;
  for (std::size_t v : newly) total += v;  // shards are disjoint: exact sum
  return total;
}

std::size_t ShardedSim::shard_step(std::size_t s, std::span<const Val> pis,
                                   std::uint64_t vec, bool slice,
                                   bool sample) {
  const bool timing = (slice && trace_ != nullptr) || sample;
  const auto now = [&] {
    return trace_ != nullptr ? trace_->now_us() : timeline_->now_us();
  };
  const std::uint64_t t0 = timing ? now() : 0;
  if (opt_.resil.injector != nullptr) {
    opt_.resil.injector->maybe_fire(static_cast<unsigned>(s), vec);
  }
  const std::size_t newly = engines_[s]->apply_vector(pis);
  if (timing) {
    const std::uint64_t t1 = now();
    if (sample) shard_latency_us_[s] = t1 - t0;
    if (slice) trace_vector(s, t0, t1, newly);
  }
  return newly;
}

void ShardedSim::apply_watched(std::span<const Val> pi_vals,
                               std::vector<std::size_t>& newly,
                               bool sampling) {
  const std::size_t k = engines_.size();
  // A hung worker outlives this call, so a worker touches only shared
  // state: its engine, a copy of the inputs, and its own slot.
  struct Slot {
    ConcurrentSim* engine = nullptr;
    std::size_t newly = 0;
    std::uint64_t latency_us = 0;
    std::exception_ptr error;
    bool done = false;  // guarded by Watch::mu
  };
  struct Watch {
    std::vector<Val> pis;
    std::vector<Slot> slots;
    std::mutex mu;
    std::condition_variable cv;
    std::size_t finished = 0;
  };
  const auto w = std::make_shared<Watch>();
  w->pis.assign(pi_vals.begin(), pi_vals.end());
  w->slots.resize(k);
  const std::uint64_t t0 = trace_ != nullptr ? trace_->now_us() : 0;
  // Each engine's high-water mark before its worker starts: a hung worker
  // keeps running inside its engine, so that engine is never read again.
  std::vector<std::size_t> peak(k);
  for (std::size_t s = 0; s < k; ++s) peak[s] = engines_[s]->peak_elements();
  const auto launch = std::chrono::steady_clock::now();
  std::vector<std::thread> workers(k);
  for (std::size_t s = 0; s < k; ++s) {
    w->slots[s].engine = engines_[s].get();
    workers[s] = std::thread([w, s, launch, inj = opt_.resil.injector,
                              vec = vectors_applied_] {
      Slot& slot = w->slots[s];
      try {
        if (inj != nullptr) inj->maybe_fire(static_cast<unsigned>(s), vec);
        slot.newly = slot.engine->apply_vector(w->pis);
      } catch (...) {
        slot.error = std::current_exception();
      }
      slot.latency_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - launch)
              .count());
      {
        std::lock_guard<std::mutex> lk(w->mu);
        slot.done = true;
        ++w->finished;
      }
      w->cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lk(w->mu);
    w->cv.wait_for(lk, std::chrono::milliseconds(opt_.resil.deadline_ms),
                   [&] { return w->finished == k; });
  }

  std::vector<std::size_t> hung;
  std::exception_ptr error;
  for (std::size_t s = 0; s < k; ++s) {
    const Slot& slot = w->slots[s];
    bool done;
    {
      std::lock_guard<std::mutex> lk(w->mu);
      done = slot.done;
    }
    if (!done) {
      // The worker is still executing inside its engine: park both until
      // the destructor joins them.
      graveyard_.push_back(
          Abandoned{std::move(engines_[s]), std::move(workers[s])});
      parked_peak_[s] = std::max(parked_peak_[s], peak[s]);
      hung.push_back(s);
      continue;
    }
    workers[s].join();
    if (slot.error) {
      if (!error) error = slot.error;
      continue;
    }
    newly[s] = slot.newly;
    if (sampling) shard_latency_us_[s] = slot.latency_us;
    trace_vector(s, t0, t0 + slot.latency_us, slot.newly);
  }
  // Rebuild only now that every worker is joined or parked: a throwing
  // rebuild must not destroy a joinable thread.
  for (const std::size_t s : hung) {
    engines_[s] = make_shard_engine(static_cast<unsigned>(s));
    if (trace_ != nullptr) {
      trace_->instant(driver_tid(), "requeue shard " + std::to_string(s),
                      trace_->now_us());
    }
  }
  if (!hung.empty()) {
    throw resil::ShardDeadlineExceeded(static_cast<unsigned>(hung[0]),
                                       vectors_applied_,
                                       opt_.resil.deadline_ms);
  }
  if (error) std::rethrow_exception(error);
}

void ShardedSim::trace_vector(std::size_t s, std::uint64_t t0,
                              std::uint64_t t1, std::size_t newly) const {
  if (trace_ == nullptr) return;
  const auto tid = static_cast<std::uint32_t>(s);
  trace_->complete(tid, "vector", t0, t1 - t0);
  if (newly > 0) trace_->instant(tid, "detect x" + std::to_string(newly), t1);
}

void ShardedSim::run(const TestSuite& t, Val ff_init) {
  const Circuit& c = model_->circuit();
  // A watchdog keeps width 1: a hung shard's abandoned worker can outlive
  // run(), so no engine may hold a pointer into the slab.
  const bool watched = opt_.resil.deadline_ms > 0;
  const BatchPlan plan =
      BatchPlan::build(c, t, watched ? 1 : opt_.batch_width);
  // Work that must act between vectors sends every segment through
  // apply_vector(); otherwise each shard streams a segment on its own.
  const bool per_vector =
      observer_ || timeline_ != nullptr || watched ||
      (opt_.rebalance.mode != RebalancePolicy::Mode::Off &&
       engines_.size() > 1);

  const std::size_t ngates = c.num_gates();
  const std::size_t npis = c.inputs().size();
  // A band's packed trajectory is held whole (the shards walk it lane by
  // lane, so it cannot stream); a band that would not fit runs unpacked.
  constexpr std::size_t kSlabByteCap = std::size_t{512} << 20;
  std::optional<BatchGoodSim> bsim;
  if (plan.width() > 1) bsim.emplace(c, ff_init, plan.width());
  const unsigned W = bsim ? bsim->words_per_gate() : 1;
  const std::size_t frame_words = ngates * std::size_t{W};
  const auto packed = [&](const BatchBand& band) {
    return bsim && band.lanes.size() > 1 && band.steps > 0 && ngates > 0 &&
           std::size_t{band.steps} <=
               kSlabByteCap / (frame_words * sizeof(Word64));
  };
  std::vector<Word64> slab;
  std::vector<Word64> wbuf(W);

  const std::span<const BatchBand> bands = plan.bands();
  for (std::size_t b = 0; b < bands.size();) {
    // A segment is one packed band, or a maximal run of unpacked bands.
    std::size_t e = b + 1;
    const Word64* frames = nullptr;
    if (packed(bands[b])) {
      // Precompute the whole band's good trajectory: one packed machine
      // stands in for up to `width` per-shard scalar good machines.
      obs::ScopedPhase sp(driver_timers_, obs::Phase::GoodBatch);
      const BatchBand& band = bands[b];
      slab.resize(frame_words * band.steps);
      bsim->reset(ff_init);
      for (std::uint32_t step = 0; step < band.steps; ++step) {
        std::uint64_t active = 0;
        for (const BatchLane& lane : band.lanes) active += step < lane.count;
        CFS_COUNT_N(batch_counters_, BatchLanesWasted, plan.width() - active);
        for (std::size_t pi = 0; pi < npis; ++pi) {
          wn_splat(wbuf.data(), W, Val::X);
          for (std::size_t l = 0; l < band.lanes.size(); ++l) {
            const BatchLane& lane = band.lanes[l];
            if (step < lane.count) {
              wn_set(wbuf.data(), static_cast<unsigned>(l),
                     t.sequences()[lane.seq][lane.begin + step][pi]);
            }
          }
          bsim->set_input(static_cast<unsigned>(pi), wbuf.data());
        }
        bsim->settle();
        std::copy(bsim->values().begin(), bsim->values().end(),
                  slab.begin() + std::size_t{step} * frame_words);
        if (step + 1 < band.steps) bsim->clock();
      }
      frames = slab.data();
    } else {
      while (e < bands.size() && !packed(bands[e])) ++e;
    }
    const std::span<const BatchBand> segment = bands.subspan(b, e - b);
    b = e;

    if (per_vector) {
      walk_lanes(
          segment, t, frames, frame_words, nullptr, 0, [&] { reset(ff_init); },
          [&](std::span<const Val> pis, const Word64* frame, unsigned lane) {
            if (frame != nullptr) {
              for (auto& eng : engines_) {
                eng->set_good_batch_oracle(frame, lane, W);
              }
            }
            return apply_vector(pis);
          });
    } else {
      // One fork-join per segment: each shard walks it with its own
      // engine, arming only its own oracle.  Every shard applies every
      // vector in the same order, so its own count is the driver's.
      const std::uint64_t first = vectors_applied_;
      pool_.parallel_for(engines_.size(), [&](std::size_t s) {
        ConcurrentSim& sim = *engines_[s];
        sim.clear_status_log();
        std::uint64_t vec = first;
        walk_lanes(
            segment, t, frames, frame_words, trace_,
            static_cast<std::uint32_t>(s), [&] { sim.reset(ff_init); },
            [&](std::span<const Val> pis, const Word64* frame, unsigned lane) {
              if (frame != nullptr) sim.set_good_batch_oracle(frame, lane, W);
              return shard_step(s, pis, vec++, /*slice=*/false,
                                /*sample=*/false);
            });
      });
      std::uint64_t segment_vectors = 0;
      for (const BatchBand& band : segment) {
        for (const BatchLane& lane : band.lanes) segment_vectors += lane.count;
      }
      vectors_applied_ += segment_vectors;
    }
  }
  if (bsim) batch_counters_.merge(bsim->counters());
  merged_dirty_ = true;
}

const std::vector<Detect>& ShardedSim::status() const {
  if (merged_dirty_) {
    obs::ScopedPhase sp(driver_timers_, obs::Phase::ShardMerge);
    const std::uint64_t t0 = trace_ ? trace_->now_us() : 0;
    if (engines_.size() == 1) {
      merged_ = engines_[0]->status();
    } else {
      std::vector<const std::vector<Detect>*> per;
      per.reserve(engines_.size());
      for (const auto& e : engines_) per.push_back(&e->status());
      merged_ = part_.merge(per);
    }
    merged_dirty_ = false;
    if (trace_) {
      trace_->complete(driver_tid(), "merge", t0, trace_->now_us() - t0);
    }
  }
  return merged_;
}

RunStateSnapshot ShardedSim::capture_run_state() const {
  if (engines_.size() == 1) return engines_[0]->capture_run_state();
  std::vector<RunStateSnapshot> per(engines_.size());
  for (std::size_t s = 0; s < engines_.size(); ++s) {
    per[s] = engines_[s]->capture_run_state();
  }
  RunStateSnapshot out;
  // Every shard simulates the same good machine; take shard 0's copy.
  out.flop_good = per[0].flop_good;
  out.flop_faulty.resize(per[0].flop_faulty.size());
  for (std::size_t d = 0; d < out.flop_faulty.size(); ++d) {
    auto& merged = out.flop_faulty[d];
    for (const RunStateSnapshot& p : per) {
      merged.insert(merged.end(), p.flop_faulty[d].begin(),
                    p.flop_faulty[d].end());
    }
    // Shards own disjoint fault sets, so this is a merge, not a dedup.
    std::sort(merged.begin(), merged.end(),
              [](const FlopFault& a, const FlopFault& b) {
                return a.fault < b.fault;
              });
  }
  if (!per[0].prev_pins.empty()) {
    // Each engine only maintains previous values for the faults it owns;
    // read every fault's entry from its owner shard.
    out.prev_pins.resize(per[0].prev_pins.size());
    for (std::size_t id = 0; id < out.prev_pins.size(); ++id) {
      out.prev_pins[id] =
          per[part_.shard_of(static_cast<std::uint32_t>(id))].prev_pins[id];
    }
  }
  return out;
}

void ShardedSim::restore_run_state(const RunStateSnapshot& s,
                                   const std::vector<Detect>& status) {
  pool_.parallel_for(engines_.size(), [&](std::size_t i) {
    engines_[i]->restore_run_state(s, status);
  });
  merged_dirty_ = true;
}

std::vector<std::uint64_t> ShardedSim::cut_weights(
    std::vector<std::uint64_t>& elems) const {
  const std::size_t nf = part_.num_faults();
  // Per-fault live-element counts are partition-invariant: each engine
  // contributes the elements of the faults it owns, and a fault's list
  // structure does not depend on which shard simulates it.
  elems.assign(nf, 0);
  for (const auto& e : engines_) e->accumulate_live_weights(elems);

  // Cut on element counts, but give every live fault a floor of one unit:
  // a currently element-free live fault still costs its share of future
  // activations, and the floor keeps the fault *counts* from collapsing
  // onto one shard when most weights are zero.
  std::vector<std::uint64_t> weights = elems;
  const std::vector<Detect>& master = status();
  for (std::uint32_t id = 0; id < nf; ++id) {
    const bool parked = !suspended_.empty() && suspended_[id];
    if (master[id] != Detect::Hard && !parked) {
      weights[id] = std::max<std::uint64_t>(weights[id], 1);
    }
  }
  return weights;
}

double ShardedSim::imbalance_ratio() const {
  std::vector<std::uint64_t> elems;
  const std::vector<std::uint64_t> w = cut_weights(elems);
  std::vector<std::uint64_t> load(engines_.size(), 0);
  for (std::uint32_t id = 0; id < w.size(); ++id) {
    load[part_.shard_of(id)] += w[id];
  }
  std::uint64_t total = 0, heaviest = 0;
  for (const std::uint64_t l : load) {
    total += l;
    heaviest = std::max(heaviest, l);
  }
  if (total == 0) return 1.0;
  return static_cast<double>(heaviest) * engines_.size() /
         static_cast<double>(total);
}

void ShardedSim::maybe_rebalance() {
  if (engines_.size() <= 1) return;
  const RebalancePolicy& rp = opt_.rebalance;
  switch (rp.mode) {
    case RebalancePolicy::Mode::Off:
      return;
    case RebalancePolicy::Mode::Every:
      if (rp.every == 0 || vectors_applied_ < policy_anchor_vec_ + rp.every) {
        return;
      }
      break;
    case RebalancePolicy::Mode::Auto:
      if (vectors_applied_ < policy_anchor_vec_ + rp.cooldown) return;
      policy_anchor_vec_ = vectors_applied_;
      if (imbalance_ratio() < rp.threshold) return;
      break;
  }
  rebalance_now();
}

std::size_t ShardedSim::rebalance_now() {
  const std::size_t k = engines_.size();
  if (k <= 1) return 0;
  obs::ScopedPhase sp(driver_timers_, obs::Phase::Rebalance);
  const std::uint64_t t0 = trace_ ? trace_->now_us() : 0;
  const std::size_t nf = part_.num_faults();

  // Snapshot under the *old* ownership: capture_run_state reads each
  // fault's entry from its owner shard, so it must run before the
  // partition changes.  status() is cached; copy it out because restore
  // invalidates the merge.
  RunStateSnapshot snap = capture_run_state();
  const std::vector<Detect> master = status();
  std::vector<std::uint64_t> elems;
  const std::vector<std::uint64_t> weights = cut_weights(elems);

  std::vector<std::uint32_t> old_owner(nf);
  for (std::uint32_t id = 0; id < nf; ++id) old_owner[id] = part_.shard_of(id);
  const std::size_t moved = part_.partition_by_weight(weights);
  std::uint64_t moved_elems = 0;
  for (std::uint32_t id = 0; id < nf; ++id) {
    if (part_.shard_of(id) != old_owner[id]) moved_elems += elems[id];
  }

  // Point every engine at its new slice (ownership base first, then the
  // suspension overlay on top), grow its pool to the new share, and
  // rebuild from the snapshot.  restore_run_state re-derives the lists
  // under the new masks, so the run continues bit-identically.
  for (std::size_t s = 0; s < k; ++s) {
    engines_[s]->set_shard(part_, static_cast<unsigned>(s));
    engines_[s]->set_suspended(suspended_);
    engines_[s]->reserve_elements(part_.shard_size(s) + 1);
  }
  restore_run_state(snap, master);

  ++rebalances_;
  faults_migrated_ += moved;
  elements_migrated_ += moved_elems;
  policy_anchor_vec_ = vectors_applied_;
  CFS_COUNT(batch_counters_, Rebalances);
  CFS_COUNT_N(batch_counters_, FaultsMigrated, moved);
  CFS_COUNT_N(batch_counters_, ElementsMigrated, moved_elems);
  if (trace_ != nullptr) {
    trace_->complete(driver_tid(), "rebalance", t0, trace_->now_us() - t0);
    trace_->instant(driver_tid(),
                    "rebalance: " + std::to_string(moved) + " faults, " +
                        std::to_string(moved_elems) + " elements",
                    trace_->now_us());
  }
  return moved;
}

void ShardedSim::set_suspended(const std::vector<std::uint8_t>& suspended) {
  suspended_ = suspended;
  for (auto& e : engines_) e->set_suspended(suspended);
}

void ShardedSim::adopt_status(const std::vector<Detect>& status) {
  for (auto& e : engines_) e->adopt_status(status);
  merged_dirty_ = true;
}

void ShardedSim::reset_peak_elements() {
  for (auto& e : engines_) e->reset_peak_elements();
  std::fill(parked_peak_.begin(), parked_peak_.end(), 0);
}

void ShardedSim::set_trace(obs::TraceEmitter* trace) {
  trace_ = trace;
  if (trace_ != nullptr) {
    for (std::size_t s = 0; s < engines_.size(); ++s) {
      trace_->name_track(static_cast<std::uint32_t>(s),
                         "shard " + std::to_string(s));
    }
    trace_->name_track(driver_tid(), "driver");
  }
}

void ShardedSim::set_timeline(obs::Timeline* timeline,
                              std::uint64_t vec_base) {
  timeline_ = timeline;
  vec_base_ = vec_base;
  if (timeline_ != nullptr) {
    timeline_->set_num_shards(num_shards());
    shard_latency_us_.assign(engines_.size(), 0);
    sample_scratch_.shards.resize(engines_.size());
  }
}

void ShardedSim::record_sample(std::uint64_t vec_no) {
  obs::TimelineSample& s = sample_scratch_;
  s.vec = vec_no;
  // Deterministic section: read the merged master status -- each fault's
  // verdict comes from its owner shard, so these values are bit-identical
  // for any --threads/--batch combination (and need no counters, so they
  // survive CFS_OBS=OFF builds).
  const std::vector<Detect>& st = status();
  for (obs::ShardSample& sh : s.shards) sh.live_faults = 0;
  std::uint64_t hard = 0, potential = 0;
  for (std::uint32_t id = 0; id < st.size(); ++id) {
    if (st[id] == Detect::Hard) {
      ++hard;
    } else {
      ++s.shards[part_.shard_of(id)].live_faults;
      if (st[id] == Detect::Potential) ++potential;
    }
  }
  s.hard = hard;
  s.potential = potential;
  s.live_faults = st.size() - hard;
  // Work + wall sections: machine effort and timing, shard-dependent.
  std::uint64_t dropped = 0, live_el = 0, trav = 0, gates = 0, slowest = 0;
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    const ConcurrentSim& e = *engines_[i];
    dropped += e.faults_dropped();
    const std::uint64_t le = e.live_elements();
    s.shards[i].live_elements = le;
    s.shards[i].latency_us = shard_latency_us_[i];
    slowest = std::max(slowest, shard_latency_us_[i]);
    live_el += le;
    trav += e.counters().get(obs::Counter::ElementsTraversed);
    gates += e.gates_processed();
  }
  s.dropped = dropped;
  s.live_elements = live_el;
  s.traversals = trav;
  s.gates = gates;
  s.rebalances = rebalances_;
  s.t_us = timeline_->now_us();
  s.latency_us = slowest;
  timeline_->record(s);
  if (trace_ != nullptr) {
    // Counter tracks: area charts of the drain, alongside the slices.
    const std::uint64_t ts = trace_->now_us();
    trace_->counter(driver_tid(), "detections", ts,
                    {{"hard", hard}, {"potential", potential}});
    trace_->counter(driver_tid(), "pool", ts,
                    {{"live_elements", live_el}});
    for (std::size_t i = 0; i < s.shards.size(); ++i) {
      trace_->counter(static_cast<std::uint32_t>(i), "load", ts,
                      {{"live_faults", s.shards[i].live_faults},
                       {"live_elements", s.shards[i].live_elements}});
    }
  }
}

void ShardedSim::set_detection_observer(ConcurrentSim::DetectionObserver obs) {
  observer_ = std::move(obs);
  for (std::size_t s = 0; s < engines_.size(); ++s) {
    if (observer_) {
      auto* buf = &shard_obs_[s];
      engines_[s]->set_detection_observer(
          [buf](std::uint32_t fault, std::uint32_t po, bool hard) {
            buf->push_back({po, fault, hard});
          });
    } else {
      engines_[s]->set_detection_observer(nullptr);
    }
  }
}

void ShardedSim::replay_observations() {
  obs::ScopedPhase sp(driver_timers_, obs::Phase::ShardMerge);
  // Each shard records in (po asc, fault asc) order; the sorted union is
  // exactly the sequence one engine over the whole universe produces.
  std::vector<Observation> all;
  std::size_t n = 0;
  for (const auto& v : shard_obs_) n += v.size();
  all.reserve(n);
  for (const auto& v : shard_obs_) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end(),
            [](const Observation& a, const Observation& b) {
              return a.po != b.po ? a.po < b.po : a.fault < b.fault;
            });
  for (const Observation& o : all) observer_(o.fault, o.po, o.hard);
}

SimStats ShardedSim::stats() const {
  SimStats st;
  st.model_bytes = model_->bytes();
  st.circuit_bytes = model_->circuit().bytes();
  st.driver = driver_timers_;
  st.rebalances = rebalances_;
  st.faults_migrated = faults_migrated_;
  st.elements_migrated = elements_migrated_;
  st.per_engine.reserve(engines_.size());
  for (std::size_t s = 0; s < engines_.size(); ++s) {
    const ConcurrentSim* e = engines_[s].get();
    EngineStats es;
    es.gates_processed = e->gates_processed();
    es.elements_evaluated = e->elements_evaluated();
    es.vectors_simulated = e->vectors_simulated();
    es.faults_dropped = e->faults_dropped();
    // A slot whose engine was parked keeps that engine's high-water mark.
    es.peak_elements = std::max(e->peak_elements(), parked_peak_[s]);
    es.state_bytes = e->state_bytes();
    es.counters = e->counters();
    es.timers = e->timers();
    es.hists = e->histograms();
    es.levels = e->level_profile();
    st.total.accumulate(es);
    st.per_engine.push_back(std::move(es));
  }
  // Driver-side batch telemetry (packed good machine + wasted lanes) has
  // no owning engine: it appears in the totals only.
  st.total.counters.merge(batch_counters_);
  return st;
}

std::size_t ShardedSim::bytes() const {
  std::size_t b = model_->bytes();
  for (const auto& e : engines_) b += e->state_bytes();
  return b;
}

void ShardedSim::report_memory(MemStats& ms) const {
  std::size_t pool = 0, fixed = 0;
  for (const auto& e : engines_) {
    pool += e->pool_bytes();
    fixed += e->state_bytes() - e->pool_bytes();
  }
  ms.sample("fault_elements", pool);
  ms.sample("engine_fixed", fixed);
  ms.sample("model", model_->bytes());
  ms.sample("circuit", model_->circuit().bytes());
}

}  // namespace cfs
