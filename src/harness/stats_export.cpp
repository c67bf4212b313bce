#include "harness/stats_export.h"

#include <sstream>

#include "obs/json_stats.h"
#include "obs/trace.h"
#include "util/error.h"

namespace cfs {

namespace {

void write_engine(obs::JsonWriter& w, const EngineStats& e) {
  w.field("gates_processed", e.gates_processed);
  w.field("elements_evaluated", e.elements_evaluated);
  w.field("vectors_simulated", e.vectors_simulated);
  w.field("faults_dropped", e.faults_dropped);
  w.field("peak_elements", static_cast<std::uint64_t>(e.peak_elements));
  w.field("state_bytes", static_cast<std::uint64_t>(e.state_bytes));
  w.key("counters");
  obs::write_counters(w, e.counters);
  w.key("timers");
  obs::write_timers(w, e.timers);
  w.key("histograms");
  obs::write_histograms(w, e.hists);
  w.key("levels");
  obs::write_level_profile(w, e.levels);
}

}  // namespace

void write_run_stats_json(std::ostream& os, const RunMetadata& meta,
                          const RunResult& r, const obs::Timeline* timeline) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("schema_version", std::uint64_t{1});

  w.key("meta");
  w.begin_object();
  w.field("circuit", meta.circuit);
  w.field("engine", meta.engine);
  w.field("sim_name", r.sim_name);
  w.field("mode", meta.mode);
  w.field("threads", r.threads);
  w.field("batch", r.batch);
  w.field("seed", meta.seed);
  w.field("vectors", static_cast<std::uint64_t>(meta.vectors));
  w.field("sequences", static_cast<std::uint64_t>(meta.sequences));
  w.field("ff_init", meta.ff_init);
  w.end_object();

  w.key("coverage");
  w.begin_object();
  w.field("total", static_cast<std::uint64_t>(r.cov.total));
  w.field("hard", static_cast<std::uint64_t>(r.cov.hard));
  w.field("potential", static_cast<std::uint64_t>(r.cov.potential));
  w.field("pct", r.cov.pct());
  w.end_object();

  w.field("cpu_s", r.cpu_s);
  w.field("mem_bytes", static_cast<std::uint64_t>(r.mem_bytes));
  w.field("activity", r.activity);
  w.field("model_bytes", static_cast<std::uint64_t>(r.stats.model_bytes));
  w.field("circuit_bytes",
          static_cast<std::uint64_t>(r.stats.circuit_bytes));

  // Shard-invariant counter sums: identical for any --threads value.
  w.key("deterministic");
  obs::write_deterministic_counters(w, r.stats.total.counters);

  // Time-series samples (obs/timeline.h): always present so the schema
  // stays fixed; an un-sampled run carries an empty, zero-dimension block.
  w.key("timeline");
  if (timeline != nullptr) {
    timeline->write_json(w);
  } else {
    w.begin_object();
    w.field("every", std::uint64_t{0});
    w.field("capacity", std::uint64_t{0});
    w.field("num_shards", std::uint64_t{0});
    w.field("recorded", std::uint64_t{0});
    w.key("samples");
    w.begin_array();
    w.end_array();
    w.end_object();
  }

  // Dynamic-rebalancing counters (sim/sharded_sim.h): zero unless the run
  // enabled --rebalance and the policy actually fired.
  w.key("rebalance");
  w.begin_object();
  w.field("rebalances", r.stats.rebalances);
  w.field("faults_migrated", r.stats.faults_migrated);
  w.field("elements_migrated", r.stats.elements_migrated);
  w.end_object();

  // Harness envelope + driver-side phases (merge/replay).
  w.key("timers");
  w.begin_object();
  w.key("run");
  w.begin_object();
  w.field("seconds", r.cpu_s);
  w.field("calls", r.run_timers.count(obs::Phase::Run));
  w.end_object();
  w.key("driver");
  obs::write_timers(w, r.stats.driver);
  w.end_object();

  w.key("totals");
  w.begin_object();
  write_engine(w, r.stats.total);
  w.end_object();

  w.key("engines");
  w.begin_array();
  for (std::size_t s = 0; s < r.stats.per_engine.size(); ++s) {
    w.begin_object();
    w.field("shard", static_cast<std::uint64_t>(s));
    write_engine(w, r.stats.per_engine[s]);
    w.end_object();
  }
  w.end_array();

  w.end_object();
}

void save_run_stats_json(const std::string& path, const RunMetadata& meta,
                         const RunResult& r, const obs::Timeline* timeline) {
  // Atomic replace (tmp+rename): a crash mid-export leaves the previous
  // stats file (or none), never a torn JSON document.
  std::ostringstream os;
  write_run_stats_json(os, meta, r, timeline);
  os << '\n';
  obs::atomic_write(path, os.str(), "stats");
}

}  // namespace cfs
