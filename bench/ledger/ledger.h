// Shared pieces of the ledger benchmark program: options, measurement
// helpers, and the report a workload hands back to main().
//
// Every number the ledger prints is taken from outside the library: a
// steady-clock span around a public call, getrusage() and /proc/self/status,
// or telemetry the library already exposes (ShardedSim::stats(),
// CampaignResult, the cfsd `stats` op, the shard trace tracks).  Nothing
// under src/ is instrumented for the benchmark.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace ledger {

namespace obs = cfs::obs;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Timed-loop budget; 0 = run the workload's default rep count.
  double seconds = 0;
  /// Fixed timed-rep count (overrides `seconds`); 0 = not fixed.
  unsigned reps = 0;
  bool trace = false;
  bool smoke = false;
  /// Artifact directory (ledger JSON, traces, scratch state).  Relative
  /// paths keep the service's AF_UNIX socket path short.
  std::string out = "bench/ledger/out";
  /// Pinned-digest file; empty skips the pin.
  std::string pins;
};

inline constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = kFnvBasis);
std::string hex64(std::uint64_t v);

double now_s();          ///< steady clock, seconds
double cpu_s();          ///< process user+system CPU seconds, all threads
double peak_rss_mib();   ///< this process image's peak resident set

/// Median and quartiles with Python's statistics.quantiles(n=4) default
/// ("exclusive") method, so the ledger and compare.py agree.
struct Summary {
  double median = 0, q1 = 0, q3 = 0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> v);

/// Times a scope and, when an emitter is attached, records it as one
/// complete event on the benchmark's own track.
class Spans {
 public:
  static constexpr std::uint32_t kTrack = 9000;
  explicit Spans(obs::TraceEmitter* tr, std::uint32_t track = kTrack)
      : tr_(tr), track_(track) {}
  template <typename F>
  double time(const std::string& name, F&& f) {
    const std::uint64_t t0 = tr_ ? tr_->now_us() : 0;
    const double s0 = now_s();
    f();
    const double dt = now_s() - s0;
    if (tr_) tr_->complete(track_, name, t0, tr_->now_us() - t0);
    return dt;
  }

 private:
  obs::TraceEmitter* tr_;
  std::uint32_t track_;
};

/// Decides how many timed reps run: a fixed count, a time budget (at least
/// three reps), or the workload default.
class RepLoop {
 public:
  RepLoop(const Options& opt, unsigned default_reps)
      : opt_(opt), default_reps_(default_reps), start_(now_s()) {}
  bool more(unsigned done) const;

 private:
  const Options& opt_;
  unsigned default_reps_;
  double start_;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Row {
  std::string name;
  double seconds = 0;
};

/// What one workload run hands back.  End-to-end series hold one sample per
/// timed untraced rep (or per session); per-layer values come from the
/// traced reps and reference runs, absent where the workload bypasses the
/// layer.
struct Report {
  std::string config;
  std::map<std::string, std::vector<double>> e2e;
  std::map<std::string, double> layer;
  std::vector<Row> table;      ///< traced layer table
  double table_setup_s = 0;    ///< setup rows of the table sum to this
  double table_wall_s = 0;     ///< the other rows sum to this
  std::vector<Check> checks;
  std::string digest;          ///< the workload's answer digest (hex)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::unique_ptr<obs::TraceEmitter> trace;  ///< last traced rep's spans

  /// One checked operation (a rep, a session) without a named check.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// A named check, also counted as one operation.
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
    op(ok);
  }
};

struct Workload {
  const char* name;
  const char* why;
  unsigned compute_threads;
  unsigned clients;
  Report (*run)(const Options&);
};

/// The four workloads, in run order.
const std::vector<Workload>& workloads();

/// Per-process scratch directory under `out` (checkpoints, service state,
/// the socket).
std::string scratch_root(const Options& opt);

/// A fresh directory, removed with everything in it on scope exit.
struct ScratchDir {
  explicit ScratchDir(std::string p);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string path;
};

}  // namespace ledger
