// Time-series sampler: the campaign as a moving process.
//
// A `Timeline` records one sample per simulated vector (or every Nth) into
// a preallocated ring: coverage, live faults, counter deltas, pool
// population, per-shard weight and latency.  The ring never allocates on
// the hot path -- when it wraps, the oldest samples are overwritten (the
// stats document keeps the newest `capacity`); an attached JSONL stream
// still receives *every* sample, so `--timeline=F` captures the full
// series while `--stats-json` stays bounded.
//
// Determinism contract (mirrors the stats-JSON split): each sample is
// partitioned into three sections.  The *deterministic* section (vec,
// hard, potential, dropped, live_faults) is computed from the merged
// master status -- one transition per fault, each owned by exactly one
// shard -- and is bit-identical across --threads and --batch for a fixed
// (circuit, universe, tests).  The *work* section (live elements,
// traversal/gate deltas) measures real machine effort, which depends on
// how faults share engines.  The *wall* section (timestamps, latencies)
// is never reproducible.  Tests and CI compare exactly the deterministic
// tuple.
//
// Streaming: samples append JSONL lines to an in-memory buffer; flush()
// lazily opens the file (append mode, so campaign resumes continue the
// stream) and writes whole lines only.  Campaigns flush at checkpoint
// boundaries, so a kill -9 anywhere leaves a well-formed stream whose
// last sample precedes the checkpoint the campaign resumes from --
// resume appends the continuation and no sample is lost or duplicated.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace cfs::obs {

class JsonWriter;

/// One shard's slice of a sample.
struct ShardSample {
  std::uint64_t live_faults = 0;    ///< owned faults not yet hard-detected
  std::uint64_t live_elements = 0;  ///< shard pool live fault-list elements
  std::uint64_t latency_us = 0;     ///< this shard's wall time for the vector
};

struct TimelineSample {
  // Deterministic section: thread- and batch-invariant.
  std::uint64_t vec = 0;         ///< suite position (0-based, cumulative)
  std::uint64_t hard = 0;        ///< cumulative hard detections
  std::uint64_t potential = 0;   ///< cumulative potential detections
  std::uint64_t dropped = 0;     ///< cumulative faults dropped
  std::uint64_t live_faults = 0; ///< universe size minus hard
  // Work section: real effort, shard-dependent (zero deltas in OBS-off
  // builds where the underlying counters are compiled out).
  std::uint64_t live_elements = 0;  ///< summed pool live elements
  std::uint64_t traversals = 0;     ///< cumulative ElementsTraversed
  std::uint64_t gates = 0;          ///< cumulative gates processed
  std::uint64_t rebalances = 0;     ///< cumulative dynamic repartitions
  // Wall section: never deterministic.
  std::uint64_t t_us = 0;        ///< since Timeline construction
  std::uint64_t latency_us = 0;  ///< the slowest shard's wall time for it
  // Per-shard attribution (size = driver shard count).
  std::vector<ShardSample> shards;
};

class Timeline {
 public:
  /// `capacity` ring slots (>= 1; the stats block holds at most this many
  /// samples), sampling every `every`th vector (0 is clamped to 1).
  explicit Timeline(std::size_t capacity = 4096, std::uint64_t every = 1);

  /// Should vector `vec` be sampled?
  bool want(std::uint64_t vec) const { return vec % every_ == 0; }
  std::uint64_t every() const { return every_; }
  std::size_t capacity() const { return ring_.size(); }

  /// Fix the per-shard width; ring slots are (re)sized once, ahead of the
  /// hot path.  Drivers call this from set_timeline().
  void set_num_shards(unsigned k);
  unsigned num_shards() const { return num_shards_; }

  /// Microseconds since construction (the wall section's time base).
  std::uint64_t now_us() const;

  /// Record one sample (driver thread only).  `s.shards` must have
  /// exactly num_shards() entries.  Copies into the ring without
  /// allocating, appends a JSONL line if a stream is attached, and
  /// invokes the observer last.
  void record(const TimelineSample& s);

  /// Samples currently held (<= capacity()).
  std::size_t size() const;
  /// Total samples ever recorded, including overwritten ones.
  std::uint64_t recorded() const { return recorded_; }
  /// Sample `i` in oldest-first order (0 <= i < size()).
  const TimelineSample& at(std::size_t i) const;

  /// Callback invoked after each record() -- the live progress meter.
  void set_observer(std::function<void(const TimelineSample&)> obs) {
    observer_ = std::move(obs);
  }

  // -- JSONL streaming ------------------------------------------------------
  /// Stream every sample to `path` as JSON Lines.  File creation is lazy:
  /// nothing is opened until the first flush() with buffered content, so a
  /// timeline that never samples never creates a file.  Opened in append
  /// mode -- a resumed campaign continues the stream in place.
  void stream_to(const std::string& path);
  bool streaming() const { return !stream_path_.empty(); }
  /// Write all buffered lines to the stream file and flush it.  Throws
  /// cfs::Error with the OS diagnostic if the path is unwritable.  Called
  /// at checkpoint boundaries (campaigns) and at end of run.
  void flush();

  /// The stats document's "timeline" block (oldest-first samples).
  void write_json(JsonWriter& w) const;
  /// One sample as a standalone JSON object (a JSONL line body).
  static void write_sample_json(JsonWriter& w, const TimelineSample& s);

 private:
  void append_stream_line(const TimelineSample& s);

  std::uint64_t every_;
  unsigned num_shards_ = 1;
  std::vector<TimelineSample> ring_;
  std::uint64_t recorded_ = 0;
  std::chrono::steady_clock::time_point t0_;

  std::function<void(const TimelineSample&)> observer_;

  std::string stream_path_;
  std::string stream_buffer_;
  bool stream_opened_ = false;
  bool header_pending_ = false;
};

}  // namespace cfs::obs
