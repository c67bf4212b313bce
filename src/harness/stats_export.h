// JSON export of a whole run: metadata + coverage + the SimStats /
// counter / timer tree of obs/.  This is the machine interface the BENCH
// trajectory and the CI schema check consume; tools/stats_schema.json pins
// the shape, and tests/test_obs.cpp round-trips it.
#pragma once

#include <ostream>
#include <string>

#include "harness/runner.h"

namespace cfs {

/// Run provenance recorded alongside the measurements.
struct RunMetadata {
  std::string circuit;
  std::string engine;           ///< engine/variant name, e.g. "csim-mv"
  std::string mode = "stuck-at";  ///< "stuck-at" | "transition"
  unsigned threads = 1;
  std::uint64_t seed = 0;
  std::size_t vectors = 0;
  std::size_t sequences = 0;
  std::string ff_init = "X";    ///< "X" | "0" | "1"
};

/// Serialize one run as the stats document (schema_version 1).  The
/// "deterministic" block holds only shard-invariant counters -- those are
/// bit-identical across --threads for a fixed (circuit, tests) pair; the
/// per-engine blocks carry the full registry plus the work-attribution
/// histograms and level profile.  `timeline`, when given, fills the
/// "timeline" block with the sampler's ring (the block is always present;
/// without a timeline it is empty with zeroed dimensions).
void write_run_stats_json(std::ostream& os, const RunMetadata& meta,
                          const RunResult& r,
                          const obs::Timeline* timeline = nullptr);

/// write_run_stats_json() to a file; throws cfs::Error on I/O failure.
void save_run_stats_json(const std::string& path, const RunMetadata& meta,
                         const RunResult& r,
                         const obs::Timeline* timeline = nullptr);

}  // namespace cfs
