// Zero-delay event queue: per-level dirty bitmaps of gate ids.
//
// The paper's key synchronous-circuit simplification (§2.1): "the timing
// queue is no longer necessary and only gate identifiers are 'scheduled'
// into the event queue when there is an event on at least one machine
// element."  Gates are drained in level order; because a combinational
// fanout always sits at a strictly higher level than its driver, a single
// ascending sweep settles the network.
//
// Scheduling is a coalescing bitmap OR rather than a duplicate-checked
// bucket push: every gate owns one bit at a fixed *position* -- gates laid
// out in (level, id) order, each level padded to a 64-bit word boundary so
// no word spans two levels -- and schedule() ORs that bit in (a second OR
// arms the level in a summary bitmap).  Scheduling an already-pending gate
// is therefore a no-op OR instead of a branch, and draining a level walks
// its words with ctz, visiting set bits in ascending gate-id order.
//
// Ordering guarantee: within a level gates are processed in ascending id
// order (the bucket queue processed them in insertion order).  Gates of one
// level never feed each other -- a combinational gate's level is strictly
// above all of its fanins' -- so any within-level permutation produces the
// same settled state, the same detection order, and the same counter
// totals; the digests and counter pins downstream rely on exactly this.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "netlist/circuit.h"
#include "obs/counters.h"

namespace cfs {

class LevelQueue {
 public:
  explicit LevelQueue(const Circuit& c) {
    const std::size_t n = c.num_gates();
    const unsigned nl = c.num_levels();
    // Counting sort into (level, id) positions, padding each level's range
    // to a word boundary so a word never spans two levels.
    std::vector<std::uint32_t> count(nl, 0);
    for (GateId g = 0; g < n; ++g) ++count[c.level(g)];
    word_begin_.resize(nl + 1);
    std::vector<std::uint32_t> next(nl);
    std::uint32_t w = 0;
    for (unsigned lvl = 0; lvl < nl; ++lvl) {
      word_begin_[lvl] = w;
      next[lvl] = w * 64;
      w += (count[lvl] + 63) / 64;
    }
    word_begin_[nl] = w;
    gate_at_.assign(std::size_t{w} * 64, kNoGate);  // padding bits never set
    sched_key_.resize(n);
    for (GateId g = 0; g < n; ++g) {
      const unsigned lvl = c.level(g);
      const std::uint32_t pos = next[lvl]++;
      sched_key_[g] = (std::uint64_t{lvl} << 32) | pos;
      gate_at_[pos] = g;
    }
    words_.assign(w, 0);
    dirty_.assign((nl + 63) / 64, 0);
    batch_gates_.resize(*std::max_element(count.begin(), count.end()));
  }

  /// Schedule a gate for (re)evaluation.  Idempotent: an already-pending
  /// gate's bit is simply ORed again.
  void schedule(GateId g) {
    const std::uint64_t key = sched_key_[g];
    const std::uint32_t pos = static_cast<std::uint32_t>(key);
    const std::uint32_t lvl = static_cast<std::uint32_t>(key >> 32);
    std::uint64_t& word = words_[pos >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (pos & 63);
#if CFS_OBS_ENABLED
    if (word & bit) {
      CFS_COUNT(counters_, BitmapCoalesced);
    } else {
      CFS_COUNT(counters_, EventsScheduled);
    }
#endif
    word |= bit;
    dirty_[lvl >> 6] |= std::uint64_t{1} << (lvl & 63);
  }

  bool empty() const {
    for (const std::uint64_t d : dirty_) {
      if (d != 0) return false;
    }
    return true;
  }

  /// Discard every pending event.  Recovery primitive: an exception thrown
  /// from drain()'s process callback (e.g. a pool-budget overflow) leaves
  /// bits set; the engine rebuild clears them before rescheduling from
  /// scratch.
  void clear() {
    std::fill(words_.begin(), words_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
  }

  /// Drain in ascending level order: sweep the lowest dirty level's words,
  /// processing set bits in ascending gate-id order, until no level is
  /// dirty.  `process(g)` may schedule gates at strictly higher levels; a
  /// same-level reschedule re-arms the level and is swept again before the
  /// queue moves on.
  template <typename F>
  void drain(F&& process) {
    for (std::uint32_t lvl; (lvl = pop_lowest_level()) != kNoLevel;) {
      for (std::uint32_t w = word_begin_[lvl]; w < word_begin_[lvl + 1];
           ++w) {
        // Re-read after every callback: process() may set further bits in
        // this word, and consuming the lowest set bit first keeps the
        // ascending-id order.
        while (words_[w] != 0) {
          const unsigned b =
              static_cast<unsigned>(std::countr_zero(words_[w]));
          words_[w] &= words_[w] - 1;
          ++processed_;
          process(gate_at_[(std::size_t{w} << 6) | b]);
        }
      }
    }
  }

  /// Batched drain: identical level order and within-level ascending-id
  /// order as drain(), but each dirty level is emitted as one whole batch
  /// and handed to `process_batch(const GateId* gates, std::size_t n)` in
  /// a single call.  The level's words are expanded bit by bit (ctz, low
  /// bits first) into the batch and cleared before the callback runs, so a
  /// (re)schedule of a gate in this level from inside the batch re-arms the
  /// level and is swept in a fresh batch rather than appended to the
  /// current one; callers whose callbacks only schedule strictly-higher
  /// levels (every settle loop in this repo -- combinational fanouts always
  /// sit above their drivers) observe bit-identical processing order to
  /// drain().  On an exception from the callback the rest of the batch is
  /// dropped; all engine recovery paths clear() and reschedule from
  /// scratch, which is exactly the contract drain() already had.
  template <typename F>
  void drain_levels(F&& process_batch) {
    for (std::uint32_t lvl; (lvl = pop_lowest_level()) != kNoLevel;) {
      std::size_t count = 0;
      for (std::uint32_t w = word_begin_[lvl]; w < word_begin_[lvl + 1];
           ++w) {
        for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
          batch_gates_[count++] =
              gate_at_[(std::size_t{w} << 6) |
                       static_cast<unsigned>(std::countr_zero(bits))];
        }
        words_[w] = 0;
      }
      if (count == 0) continue;
      processed_ += count;
      process_batch(batch_gates_.data(), count);
    }
  }

  /// Total gates processed over the queue's lifetime (an activity metric).
  std::uint64_t processed() const { return processed_; }

  /// Scheduling telemetry (EventsScheduled / BitmapCoalesced; zero when
  /// built with CFS_OBS=OFF).
  const obs::Counters& counters() const { return counters_; }

  std::size_t bytes() const {
    return sched_key_.capacity() * sizeof(std::uint64_t) +
           gate_at_.capacity() * sizeof(GateId) +
           word_begin_.capacity() * sizeof(std::uint32_t) +
           words_.capacity() * sizeof(std::uint64_t) +
           dirty_.capacity() * sizeof(std::uint64_t) +
           batch_gates_.capacity() * sizeof(GateId);
  }

 private:
  static constexpr std::uint32_t kNoLevel = 0xFFFFFFFFu;

  /// Lowest dirty level, its summary bit cleared; kNoLevel when none is.
  std::uint32_t pop_lowest_level() {
    for (std::size_t dw = 0; dw < dirty_.size(); ++dw) {
      if (dirty_[dw] != 0) {
        const std::uint32_t lvl =
            static_cast<std::uint32_t>(dw * 64) +
            static_cast<std::uint32_t>(std::countr_zero(dirty_[dw]));
        dirty_[dw] &= dirty_[dw] - 1;
        return lvl;
      }
    }
    return kNoLevel;
  }

  std::vector<std::uint64_t> sched_key_;   // per gate: (level << 32) | pos
  std::vector<GateId> gate_at_;            // position -> gate id
  std::vector<std::uint32_t> word_begin_;  // per level: first word index
  std::vector<std::uint64_t> words_;       // dirty bit per position
  std::vector<std::uint64_t> dirty_;       // dirty bit per level
  std::vector<GateId> batch_gates_;        // drain_levels gate-id scratch
  std::uint64_t processed_ = 0;
  obs::Counters counters_;
};

}  // namespace cfs
