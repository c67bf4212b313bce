// ledger -- the benchmark program: runs one named workload per process,
// times every layer call from outside, checks the answers, and reports
// every metric by name and unit.
//
//   ledger --workload=NAME [--seed=N] [--seconds=S | --reps=N] [--trace=0|1]
//          [--smoke] [--out=DIR] [--pins=FILE]
//
// Flags also accept the space-separated form (`--workload NAME`).  Output:
// a human-readable report on stdout whose last line is one JSON object
// {"correct", "attempted", "failed", "metrics"} -- the end-to-end metrics
// untraced, the per-layer metrics with --trace=1 -- and the full ledger
// document in DIR/ledger-NAME[-trace].json (plus DIR/trace-NAME.json, a
// chrome://tracing file, when traced).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <sched.h>
#include <sys/resource.h>

#include "ledger.h"

#include "obs/counters.h"
#include "obs/json_stats.h"
#include "simd/simd.h"
#include "svc/wire.h"
#include "util/error.h"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif

namespace ledger {

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  // VmHWM, not ru_maxrss: Linux carries the parent's high-water mark
  // across fork+exec into ru_maxrss, so a launcher's size would leak in.
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  // statistics.quantiles(v, n=4, method="exclusive").
  const auto q = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  };
  s.q1 = q(1);
  s.q3 = q(3);
  return s;
}

bool RepLoop::more(unsigned done) const {
  // A traced run alternates plain and traced reps, so it needs both kinds.
  const unsigned floor = opt_.trace ? 2 : 1;
  if (opt_.reps != 0) return done < std::max(opt_.reps, floor);
  if (opt_.seconds > 0) {
    return done < (opt_.trace ? 4u : 3u) ||
           (now_s() - start_ < opt_.seconds && done < 1000);
  }
  return done < std::max(default_reps_, floor);
}

namespace {

// ---------------------------------------------------------------------------
// Metric catalogue.  `in_result` marks what the last stdout line carries;
// BENCHMARK.json lists exactly those.  Such a metric in seconds must be
// measured on every workload; its counts and ratios read 0 on a workload
// that bypasses their layer.

struct MetricDef {
  const char* name;
  const char* unit;
  bool in_result;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", true},
    {"wall_s", "s", true},
    {"cpu_s", "s", true},
    {"peak_rss_mib", "MiB", true},
};

constexpr MetricDef kPerLayer[] = {
    {"gen.make_s", "s", true},
    {"netlist.parse_s", "s", true},
    {"netlist.macro_extract_s", "s", false},
    {"faults.universe_s", "s", true},
    {"faults.macro_map_s", "s", false},
    {"core.model_build_s", "s", true},
    {"sim.engine_build_s", "s", true},
    {"resil.runner_build_s", "s", false},
    {"sim.good_replay_s", "s", true},
    {"sim.good_events", "count", true},
    {"sim.good_share", "ratio", true},
    {"sim.gates_processed", "count", true},
    {"sim.gate_work_amplification", "ratio", true},
    {"sim.shard_skew", "ratio", true},
    {"sim.critical_path_s", "s", true},
    {"sim.parallel_speedup", "ratio", true},
    {"core.fault_prop_s", "s", true},
    {"core.clocking_s", "s", true},
    {"core.drop_pass_s", "s", true},
    {"core.good_eval_s", "s", true},
    {"core.elements_traversed", "count", true},
    {"core.elements_allocated", "count", true},
    {"core.elements_freed", "count", true},
    {"core.elements_reused", "count", true},
    {"core.lists_unchanged", "count", true},
    {"core.table_evals", "count", true},
    {"core.events_scheduled", "count", true},
    {"core.macro_table_lookups", "count", true},
    {"core.peak_elements", "count", true},
    {"sim.good_batch_s", "s", false},
    {"sim.shard_merge_s", "s", false},
    {"sim.batch_lane_util", "ratio", true},
    {"sim.batch_speedup", "ratio", true},
    {"sim.rebalance_s", "s", false},
    {"sim.rebalances", "count", true},
    {"sim.faults_migrated", "count", true},
    {"resil.checkpoints_written", "count", true},
    {"resil.checkpoint_bytes", "bytes", true},
    {"resil.checkpoint_save_s", "s", false},
    {"resil.checkpoint_load_s", "s", false},
    {"resil.checkpoint_share", "ratio", true},
    {"resil.campaign_overhead_frac", "ratio", true},
    {"svc.open_p50_s", "s", false},
    {"svc.open_p90_s", "s", false},
    {"svc.rpc_rtt_p50_us", "us", false},
    {"svc.model_cache_hits", "count", true},
    {"svc.model_cache_misses", "count", true},
    {"svc.updates_shed", "count", true},
    {"svc.checkpoint_write_retries", "count", true},
    {"obs.trace_overhead_frac", "ratio", true},
    {"layers.unattributed_frac", "ratio", true},
};

// ---------------------------------------------------------------------------
// Arguments

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "ledger: %s\n", why.c_str());
  std::fputs(
      "usage: ledger --workload=NAME [--seed=N] [--seconds=S | --reps=N]\n"
      "              [--trace=0|1] [--smoke] [--out=DIR] [--pins=FILE]\n"
      "workloads:",
      stderr);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fputs("\n", stderr);
  std::exit(2);
}

std::uint64_t to_u64(const std::string& flag, const std::string& v) {
  if (v.empty() || v.size() > 18 ||
      v.find_first_not_of("0123456789") != std::string::npos) {
    usage("--" + flag + " needs an integer 0..10^18, got '" + v + "'");
  }
  return std::stoull(v);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) usage("unexpected argument '" + a + "'");
    a = a.substr(2);
    std::string v;
    bool has_value = false;
    if (const auto eq = a.find('='); eq != std::string::npos) {
      v = a.substr(eq + 1);
      a = a.substr(0, eq);
      has_value = true;
    }
    const auto value = [&]() -> std::string {
      if (has_value) return v;
      if (i + 1 >= argc) usage("--" + a + " needs a value");
      return argv[++i];
    };
    if (a == "workload") {
      o.workload = value();
    } else if (a == "seed") {
      o.seed = to_u64(a, value());
    } else if (a == "seconds") {
      o.seconds = static_cast<double>(to_u64(a, value()));
    } else if (a == "reps") {
      o.reps = static_cast<unsigned>(to_u64(a, value()));
    } else if (a == "trace") {
      // A bare --trace means --trace=1 unless a 0/1 follows.
      if (!has_value && i + 1 < argc &&
          (std::string(argv[i + 1]) == "0" || std::string(argv[i + 1]) == "1")) {
        v = argv[++i];
        has_value = true;
      }
      o.trace = !has_value || to_u64(a, v) != 0;
    } else if (a == "smoke") {
      o.smoke = true;
    } else if (a == "out") {
      o.out = value();
    } else if (a == "pins") {
      o.pins = value();
    } else {
      usage("unknown flag --" + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

// ---------------------------------------------------------------------------
// Host block

/// CPUs this process may run on (the affinity mask, like `nproc`).
unsigned nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string isa() {
  return std::string(cfs::simd::isa_name(cfs::simd::detect_isa()));
}

std::string commit() {
  const char* c = std::getenv("LEDGER_COMMIT");
  return c != nullptr && *c != '\0' ? c : "unknown";
}

std::optional<std::string> pinned_digest(const Options& opt) {
  if (opt.pins.empty() || opt.smoke) return std::nullopt;
  std::ifstream f(opt.pins);
  if (!f) throw cfs::Error("cannot read pins file " + opt.pins);
  std::ostringstream os;
  os << f.rdbuf();
  const cfs::svc::JsonValue doc = cfs::svc::json_parse(os.str());
  if (doc.req_u64("seed") != opt.seed) return std::nullopt;
  const cfs::svc::JsonValue* d = doc.find("digests");
  const cfs::svc::JsonValue* w = d ? d->find(opt.workload) : nullptr;
  if (w == nullptr) return std::nullopt;
  return w->as_string();
}

// ---------------------------------------------------------------------------
// Output

struct E2E {
  std::string name, unit;
  Summary s;
  bool in_result = false;
  std::vector<double> samples;
};

std::vector<E2E> end_to_end(const Report& r) {
  std::vector<E2E> out;
  for (const MetricDef& d : kEndToEnd) {
    const auto it = r.e2e.find(d.name);
    if (it == r.e2e.end() || it->second.empty()) {
      throw cfs::Error(std::string("workload reported no ") + d.name);
    }
    out.push_back({d.name, d.unit, summarize(it->second), d.in_result,
                   it->second});
  }
  if (const auto it = r.e2e.find("session_s"); it != r.e2e.end()) {
    std::vector<double> v = it->second;
    out.push_back({"session_p50_s", "s", summarize(v), false, {}});
    std::sort(v.begin(), v.end());
    Summary p90;
    p90.n = v.size();
    p90.median = p90.q1 = p90.q3 = v.empty() ? 0 : v[v.size() * 9 / 10];
    out.push_back({"session_p90_s", "s", p90, false, {}});
  }
  if (const auto it = r.e2e.find("first_update_s"); it != r.e2e.end()) {
    out.push_back(
        {"first_update_p50_s", "s", summarize(it->second), false, {}});
  }
  Summary ff;
  ff.n = r.attempted;
  ff.median = ff.q1 = ff.q3 =
      r.attempted ? static_cast<double>(r.failed) /
                        static_cast<double>(r.attempted)
                  : 0;
  out.push_back({"failed_frac", "ratio", ff, false, {}});
  return out;
}

/// A per-layer metric's value on the result line (see kPerLayer).
double result_layer_value(const Report& r, const MetricDef& d) {
  const auto it = r.layer.find(d.name);
  if (it != r.layer.end()) return it->second;
  if (std::string(d.unit) == "s") {
    throw cfs::Error(std::string("traced run did not measure ") + d.name);
  }
  return 0;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_report(const Workload& w, const Options& opt, const Report& r,
                  const std::vector<E2E>& e2e) {
  std::printf("ledger %s (seed %llu%s%s)\n", w.name,
              static_cast<unsigned long long>(opt.seed),
              opt.smoke ? ", smoke" : "", opt.trace ? ", traced" : "");
  std::printf("  %s\n", r.config.c_str());
  std::printf("  host: %u cpus, %s, isa %s, %s build, CFS_OBS=%s, "
              "commit %s\n",
              nproc(), cpu_model().c_str(), isa().c_str(), LEDGER_BUILD_TYPE,
              CFS_OBS_ENABLED ? "ON" : "OFF", commit().c_str());
  std::printf("end-to-end (untraced reps: median [q1, q3], n):\n");
  for (const E2E& m : e2e) {
    std::printf("  %-20s %12.6g %-5s [%.6g, %.6g]  n=%zu\n", m.name.c_str(),
                m.s.median, m.unit.c_str(), m.s.q1, m.s.q3, m.s.n);
  }
  std::printf("checks (%llu attempted, %llu failed):\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const Check& c : r.checks) {
    std::printf("  %-4s %s: %s\n", c.ok ? "ok" : "FAIL", c.name.c_str(),
                c.detail.c_str());
  }
  if (!opt.trace) return;
  std::printf("per-layer (traced reps and reference runs; - = layer "
              "bypassed):\n");
  for (const MetricDef& d : kPerLayer) {
    const auto it = r.layer.find(d.name);
    if (it == r.layer.end()) {
      std::printf("  %-30s %14s %s\n", d.name, "-", d.unit);
    } else {
      std::printf("  %-30s %14.6g %s\n", d.name, it->second, d.unit);
    }
  }
  std::printf("layer table (traced rep with the median wall time):\n");
  for (const Row& row : r.table) {
    const bool setup = row.name.rfind("setup: ", 0) == 0;
    const double base = setup ? r.table_setup_s : r.table_wall_s;
    std::printf("  %-58s %10.6f s %6.1f%% of %s\n", row.name.c_str(),
                row.seconds, base > 0 ? 100 * row.seconds / base : 0.0,
                setup ? "setup" : "wall");
  }
  std::printf("  %-58s %10.6f s\n", "setup total", r.table_setup_s);
  std::printf("  %-58s %10.6f s\n", "wall total (rows above + unattributed)",
              r.table_wall_s);
}

void write_document(const std::string& path, const Workload& w,
                    const Options& opt, const Report& r,
                    const std::vector<E2E>& e2e,
                    const std::optional<std::string>& pin) {
  std::ostringstream os;
  {
    cfs::obs::JsonWriter j(os);
    j.begin_object();
    j.field("schema", "cfs-ledger/1");
    j.field("workload", w.name);
    j.field("why", w.why);
    j.field("config", r.config);
    j.field("seed", opt.seed);
    j.field("smoke", opt.smoke);
    j.field("traced", opt.trace);
    j.key("host");
    j.begin_object();
    j.field("nproc", nproc());
    j.field("cpu_model", cpu_model());
    j.field("isa", isa());
    j.field("build_type", LEDGER_BUILD_TYPE);
    j.field("cfs_obs", CFS_OBS_ENABLED != 0);
    j.field("commit", commit());
    j.end_object();
    j.key("threads");
    j.begin_object();
    j.field("compute", w.compute_threads);
    j.field("clients", w.clients);
    j.end_object();
    j.field("correct", r.failed == 0);
    j.field("attempted", r.attempted);
    j.field("failed", r.failed);
    j.field("digest", r.digest);
    // JsonWriter writes a non-finite double as null.
    const double null = std::nan("");
    j.key("pinned_digest");
    if (pin) {
      j.value(*pin);
    } else {
      j.value(null);
    }
    j.key("checks");
    j.begin_array();
    for (const Check& c : r.checks) {
      j.begin_object();
      j.field("name", c.name);
      j.field("ok", c.ok);
      j.field("detail", c.detail);
      j.end_object();
    }
    j.end_array();
    j.key("end_to_end");
    j.begin_object();
    for (const E2E& m : e2e) {
      j.key(m.name);
      j.begin_object();
      j.field("unit", m.unit);
      j.field("median", m.s.median);
      j.field("q1", m.s.q1);
      j.field("q3", m.s.q3);
      j.field("n", static_cast<std::uint64_t>(m.s.n));
      if (!m.samples.empty()) {
        j.key("samples");
        j.begin_array();
        for (double x : m.samples) j.value(x);
        j.end_array();
      }
      j.end_object();
    }
    j.end_object();
    if (opt.trace) {
      j.key("per_layer");
      j.begin_object();
      for (const MetricDef& d : kPerLayer) {
        j.key(d.name);
        j.begin_object();
        j.field("unit", d.unit);
        j.key("value");
        const auto it = r.layer.find(d.name);
        j.value(it != r.layer.end() ? it->second : null);
        j.end_object();
      }
      j.end_object();
      j.key("layer_table");
      j.begin_object();
      j.field("setup_s", r.table_setup_s);
      j.field("wall_s", r.table_wall_s);
      j.key("rows");
      j.begin_array();
      for (const Row& row : r.table) {
        j.begin_object();
        j.field("name", row.name);
        j.field("seconds", row.seconds);
        j.end_object();
      }
      j.end_array();
      j.end_object();
    }
    j.end_object();
  }
  os << '\n';
  cfs::obs::atomic_write(path, os.str(), "ledger");
}

/// The result line: the last line of stdout.
std::string result_line(const Options& opt, const Report& r,
                        const std::vector<E2E>& e2e) {
  std::string s = "{\"correct\": ";
  s += r.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  bool first = true;
  const auto add = [&](const std::string& name, double v, const char* unit) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + num(v) + ", \"unit\": \"" + unit +
         "\"}";
  };
  if (opt.trace) {
    for (const MetricDef& d : kPerLayer) {
      if (d.in_result) add(d.name, result_layer_value(r, d), d.unit);
    }
  } else {
    for (const E2E& m : e2e) {
      if (m.in_result) add(m.name, m.s.median, m.unit.c_str());
    }
  }
  s += "}}";
  return s;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  // A daemon connection dropped mid-write must surface as an error the
  // workload counts, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  const Options opt = parse_args(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& c : workloads()) {
    if (opt.workload == c.name) w = &c;
  }
  if (w == nullptr) usage("unknown workload '" + opt.workload + "'");
  if (w->compute_threads > nproc()) {
    std::fprintf(stderr,
                 "ledger: refusing %s: it runs %u compute threads but this "
                 "host has %u cpus, so its numbers would not be comparable\n",
                 w->name, w->compute_threads, nproc());
    return 2;
  }
  try {
    const ScratchDir scratch(scratch_root(opt));

    Report r = w->run(opt);
    const std::optional<std::string> pin = pinned_digest(opt);
    if (pin) {
      r.check("digest matches the pinned digest for seed " +
                  std::to_string(opt.seed),
              *pin == r.digest, r.digest + " vs pinned " + *pin);
    }
    const std::vector<E2E> e2e = end_to_end(r);
    print_report(*w, opt, r, e2e);
    const std::string doc =
        opt.out + "/ledger-" + w->name + (opt.trace ? "-trace" : "") + ".json";
    write_document(doc, *w, opt, r, e2e, pin);
    std::printf("ledger document: %s\n", doc.c_str());
    if (r.trace) {
      const std::string tr = opt.out + "/trace-" + w->name + ".json";
      r.trace->save(tr);
      std::printf("trace: %s (last traced rep, chrome://tracing)\n",
                  tr.c_str());
    }
    std::printf("%s\n", result_line(opt, r, e2e).c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
}
