// The ledger's four workloads.  Each builds its inputs from the seed, runs
// one discarded warm-up rep (the first rep in a process is markedly slower),
// then timed reps with setup timed on every rep, checks every answer, and
// -- in a traced run -- adds the reference runs the per-layer metrics need.
// README.md gives the reason for each workload and which end-to-end metric
// each layer metric should move.
#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "ledger.h"

#include "core/sim_model.h"
#include "faults/fault.h"
#include "faults/macro_map.h"
#include "gen/iscas_profiles.h"
#include "netlist/bench_parser.h"
#include "netlist/bench_writer.h"
#include "netlist/macro_extract.h"
#include "patterns/batch_plan.h"
#include "patterns/pattern.h"
#include "resil/campaign.h"
#include "resil/snapshot.h"
#include "sim/good_sim.h"
#include "sim/sharded_sim.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/service.h"
#include "util/error.h"
#include "util/rng.h"

namespace ledger {

std::string scratch_root(const Options& opt) {
  return opt.out + "/tmp-" + std::to_string(::getpid());
}

ScratchDir::ScratchDir(std::string p) : path(std::move(p)) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

namespace {

using namespace cfs;
namespace fs = std::filesystem;
using Series = std::map<std::string, std::vector<double>>;

// ---------------------------------------------------------------------------
// Inputs

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  Rng r(seed ^ (k * 0x9E3779B97F4A7C15ull));
  return r.next();
}

/// `seqs` independent random sequences of `len` vectors, each applied from
/// reset (the shape `cfs tgen` emits).  Vector values depend on the seed
/// only; the circuits are the fixed ISCAS-89 profiles.
TestSuite make_suite(const std::string& circuit, std::size_t seqs,
                     std::size_t len, std::uint64_t seed, std::uint64_t salt) {
  const unsigned npis = iscas89_profile(circuit).num_pis;
  TestSuite t;
  for (std::size_t j = 0; j < seqs; ++j) {
    t.sequences().push_back(
        PatternSet::random(npis, len, sub_seed(seed, salt * 1000 + j)));
  }
  return t;
}

std::uint64_t status_digest(const std::vector<Detect>& st) {
  return fnv1a(st.data(), st.size());
}

// ---------------------------------------------------------------------------
// Setup pipeline: gen -> write_bench -> parse_bench -> universe ->
// extract_macros -> map_faults_to_macros -> SimModel.

enum class Mode { StuckAt, StuckAtMacro, Transition };

/// Owns everything a SimModel borrows, so it must not move once built.
struct Model {
  std::optional<Circuit> circuit;
  FaultUniverse universe;
  std::optional<MacroExtraction> ext;
  std::optional<MacroFaultMap> mmap;
  std::shared_ptr<const SimModel> model;
  const Circuit& sim_circuit() const { return ext ? ext->circuit : *circuit; }
};

struct SetupTimes {
  double gen = 0, parse = 0, universe = 0, macro_extract = 0, macro_map = 0,
         model = 0, engine = 0;
  /// The last setup step: ShardedSim or CampaignRunner construction.
  std::string engine_name = "sim.engine_build";
  double total() const {
    return gen + parse + universe + macro_extract + macro_map + model + engine;
  }
};

std::string gen_text(const std::string& circuit, Spans& sp, SetupTimes& t) {
  std::string text;
  t.gen += sp.time("gen.make",
                   [&] { text = write_bench(make_benchmark(circuit)); });
  return text;
}

std::unique_ptr<Model> build_from_text(const std::string& text,
                                       const std::string& name, Mode mode,
                                       Spans& sp, SetupTimes& t) {
  auto m = std::make_unique<Model>();
  t.parse += sp.time("netlist.parse",
                     [&] { m->circuit.emplace(parse_bench(text, name)); });
  t.universe += sp.time("faults.universe", [&] {
    m->universe = mode == Mode::Transition
                      ? FaultUniverse::all_transition(*m->circuit)
                      : FaultUniverse::all_stuck_at(*m->circuit);
  });
  if (mode == Mode::StuckAtMacro) {
    t.macro_extract += sp.time("netlist.macro_extract", [&] {
      m->ext.emplace(extract_macros(*m->circuit));
    });
    t.macro_map += sp.time("faults.macro_map", [&] {
      m->mmap = map_faults_to_macros(*m->circuit, *m->ext, m->universe);
    });
  }
  t.model += sp.time("core.model_build", [&] {
    m->model = std::make_shared<SimModel>(m->sim_circuit(), m->universe,
                                          m->mmap ? &*m->mmap : nullptr);
  });
  return m;
}

std::unique_ptr<Model> build_model(const std::string& circuit, Mode mode,
                                   Spans& sp, SetupTimes& t) {
  return build_from_text(gen_text(circuit, sp, t), circuit, mode, sp, t);
}

/// An untimed model for reference runs.
std::unique_ptr<Model> quiet_model(const std::string& circuit, Mode mode) {
  Spans none(nullptr);
  SetupTimes ignored;
  return build_model(circuit, mode, none, ignored);
}

void add_setup_layers(Series& s, const SetupTimes& t) {
  s["gen.make_s"].push_back(t.gen);
  s["netlist.parse_s"].push_back(t.parse);
  s["faults.universe_s"].push_back(t.universe);
  s["core.model_build_s"].push_back(t.model);
  s[t.engine_name + "_s"].push_back(t.engine);
  if (t.macro_extract > 0) {
    s["netlist.macro_extract_s"].push_back(t.macro_extract);
    s["faults.macro_map_s"].push_back(t.macro_map);
  }
}

void add_setup_rows(std::vector<Row>& rows, const SetupTimes& t) {
  rows.push_back({"setup: gen.make", t.gen});
  rows.push_back({"setup: netlist.parse", t.parse});
  rows.push_back({"setup: faults.universe", t.universe});
  if (t.macro_extract > 0) {
    rows.push_back({"setup: netlist.macro_extract", t.macro_extract});
    rows.push_back({"setup: faults.macro_map", t.macro_map});
  }
  rows.push_back({"setup: core.model_build", t.model});
  rows.push_back({"setup: " + t.engine_name, t.engine});
}

// ---------------------------------------------------------------------------
// Readings of existing telemetry

constexpr obs::Phase kEnginePhases[] = {obs::Phase::GoodEval,
                                        obs::Phase::FaultProp,
                                        obs::Phase::DropPass,
                                        obs::Phase::Clocking};

double engine_phase_s(const obs::PhaseTimers& t) {
  double s = 0;
  for (obs::Phase p : kEnginePhases) s += t.seconds(p);
  return s;
}

std::size_t critical_shard(const SimStats& st) {
  std::size_t best = 0;
  for (std::size_t s = 1; s < st.per_engine.size(); ++s) {
    if (engine_phase_s(st.per_engine[s].timers) >
        engine_phase_s(st.per_engine[best].timers)) {
      best = s;
    }
  }
  return best;
}

/// Per-layer readings of ShardedSim::stats(): engine phases and counters
/// summed over shards, the sharding shape, and the driver phases.
std::map<std::string, double> engine_layers(const SimStats& st) {
  std::map<std::string, double> v;
  const EngineStats& tot = st.total;
  v["core.fault_prop_s"] = tot.timers.seconds(obs::Phase::FaultProp);
  v["core.clocking_s"] = tot.timers.seconds(obs::Phase::Clocking);
  v["core.drop_pass_s"] = tot.timers.seconds(obs::Phase::DropPass);
  v["core.good_eval_s"] = tot.timers.seconds(obs::Phase::GoodEval);
  const auto count = [&](const char* name, obs::Counter c) {
    v[name] = static_cast<double>(tot.counters.get(c));
  };
  count("core.elements_traversed", obs::Counter::ElementsTraversed);
  count("core.elements_allocated", obs::Counter::ElementsAllocated);
  count("core.elements_freed", obs::Counter::ElementsFreed);
  count("core.elements_reused", obs::Counter::ElementsReused);
  count("core.lists_unchanged", obs::Counter::ListsUnchanged);
  count("core.table_evals", obs::Counter::TableEvals);
  count("core.events_scheduled", obs::Counter::EventsScheduled);
  count("core.macro_table_lookups", obs::Counter::MacroTableLookups);
  v["core.peak_elements"] = static_cast<double>(tot.peak_elements);
  v["sim.gates_processed"] = static_cast<double>(tot.gates_processed);

  double max_s = 0, sum_s = 0;
  for (const EngineStats& e : st.per_engine) {
    const double x = engine_phase_s(e.timers);
    max_s = std::max(max_s, x);
    sum_s += x;
  }
  v["sim.critical_path_s"] = max_s;
  v["sim.shard_skew"] =
      sum_s > 0 ? max_s * static_cast<double>(st.per_engine.size()) / sum_s
                : 1.0;
  v["sim.good_batch_s"] = st.driver.seconds(obs::Phase::GoodBatch);
  v["sim.shard_merge_s"] = st.driver.seconds(obs::Phase::ShardMerge);
  v["sim.rebalance_s"] = st.driver.seconds(obs::Phase::Rebalance);
  v["sim.rebalances"] = static_cast<double>(st.rebalances);
  v["sim.faults_migrated"] = static_cast<double>(st.faults_migrated);
  return v;
}

void push_all(Series& s, const std::map<std::string, double>& v) {
  for (const auto& [k, x] : v) s[k].push_back(x);
}

struct Replay {
  double seconds = 0;
  std::uint64_t events = 0;
};

/// Standalone good-machine replay of a suite: the work each shard's private
/// good machine repeats.
Replay good_replay(const Circuit& c, const TestSuite& t) {
  GoodSim g(c, Val::Zero);
  const std::uint64_t e0 = g.events_processed();
  const double t0 = now_s();
  for (const PatternSet& seq : t.sequences()) {
    g.reset(Val::Zero);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      g.apply(seq[i]);
      g.clock();
    }
  }
  return {now_s() - t0, g.events_processed() - e0};
}

/// A plain driver loop (reset + apply_vector per vector, merged status at
/// the end) over a fresh ShardedSim: the same engines without the campaign
/// or service layers on top.
struct PlainRun {
  double build = 0, wall = 0;
  SimStats stats;
};

PlainRun plain_loop(const Model& m, const TestSuite& t,
                    const ShardedOptions& so) {
  PlainRun r;
  std::unique_ptr<ShardedSim> sim;
  double t0 = now_s();
  sim = std::make_unique<ShardedSim>(m.model, so);
  r.build = now_s() - t0;
  t0 = now_s();
  for (const PatternSet& seq : t.sequences()) {
    sim->reset(Val::Zero);
    for (std::size_t i = 0; i < seq.size(); ++i) sim->apply_vector(seq[i]);
  }
  (void)sim->status();
  r.wall = now_s() - t0;
  r.stats = sim->stats();
  return r;
}

struct Probe {
  double save = 0, load = 0;
};

/// Median save_checkpoint / load_checkpoint time over `n` calls each.
Probe checkpoint_probe(const resil::CampaignCheckpoint& ck,
                       const std::string& path, int n) {
  std::vector<double> save, load;
  for (int i = 0; i < n; ++i) {
    double t0 = now_s();
    resil::save_checkpoint(path, ck);
    save.push_back(now_s() - t0);
    t0 = now_s();
    (void)resil::load_checkpoint(path);
    load.push_back(now_s() - t0);
  }
  fs::remove(path);
  return {summarize(save).median, summarize(load).median};
}

void fold_layers(Report& rep, const Series& s) {
  for (const auto& [name, v] : s) rep.layer[name] = summarize(v).median;
}

/// The rep whose wall time is the median (upper median for even counts).
template <typename R>
const R& median_rep(const std::vector<R>& reps) {
  std::vector<std::size_t> idx(reps.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return reps[a].wall < reps[b].wall;
  });
  return reps[idx[idx.size() / 2]];
}

template <typename R>
double median_of(const std::vector<R>& reps, double R::*f) {
  std::vector<double> v;
  for (const R& r : reps) v.push_back(r.*f);
  return summarize(v).median;
}

/// Close the layer table: the run rows plus "unattributed" sum to wall_s.
void finish_table(Report& rep, double setup_s, double wall_s) {
  double run_rows = 0;
  for (const Row& r : rep.table) {
    if (r.name.rfind("setup: ", 0) != 0) run_rows += r.seconds;
  }
  const double un = wall_s - run_rows;
  rep.table.push_back({"unattributed", un});
  rep.table_setup_s = setup_s;
  rep.table_wall_s = wall_s;
  rep.layer["layers.unattributed_frac"] = wall_s > 0 ? un / wall_s : 0;
}

/// Extra set-up-only passes after each untraced rep: at most this many, and
/// only while they fit in this share of the rep's wall time.  A run gets
/// 5-15 reps, and the median of that few ms-scale set-ups moved by 30% from
/// run to run.  Passes taken right after each rep see the state that rep's
/// own set-up saw; a burst of passes at the end of the run measured a
/// warmer, faster set-up and sampled only one moment of the host's load.
constexpr unsigned kSetupPassesPerRep = 4;
constexpr double kSetupPassShare = 0.05;

/// Warm-up, then timed reps until the loop says stop.  In a traced run
/// every other rep is traced (per-layer numbers), the rest are plain (the
/// trace-overhead baseline).  Every rep's digest must equal the warm-up's.
/// After each untraced rep, `setup_only()` passes (the same set-up, timed
/// the same way, with nothing run on it) add `setup_s` samples.
template <typename R, typename F, typename G>
void rep_loop(const Options& opt, unsigned default_reps, Report& rep, F&& run,
              G&& setup_only, std::vector<R>& plain, std::vector<R>& traced) {
  const R warm = run(-1, nullptr);
  rep.digest = hex64(warm.digest);
  rep.op(warm.ok());
  // Peak memory of one rep, as a one-shot `cfs` process would see it;
  // later reps only add allocator fragmentation on top.
  rep.e2e["peak_rss_mib"].push_back(peak_rss_mib());
  unsigned agree = 0, reps = 0;
  std::vector<double> extra_setup;
  const RepLoop loop(opt, default_reps);
  for (unsigned i = 0; loop.more(i); ++i) {
    const bool traced_rep = opt.trace && i % 2 == 1;
    auto em = traced_rep ? std::make_unique<obs::TraceEmitter>() : nullptr;
    if (em) {
      em->name_track(Spans::kTrack, "ledger");
      for (std::uint32_t c = 1; c <= 3; ++c) {
        em->name_track(Spans::kTrack + c, "ledger client " + std::to_string(c));
      }
    }
    R r = run(static_cast<int>(i), em.get());
    const bool ok = r.ok() && r.digest == warm.digest;
    ++reps;
    agree += ok;
    rep.op(ok);
    if (traced_rep) {
      traced.push_back(std::move(r));
      rep.trace = std::move(em);
      continue;
    }
    if (!opt.trace && !opt.smoke) {
      const double t0 = now_s();
      const double budget = kSetupPassShare * r.wall - r.setup_s();
      for (unsigned k = 0; k < kSetupPassesPerRep && now_s() - t0 <= budget;
           ++k) {
        extra_setup.push_back(setup_only());
      }
    }
    plain.push_back(std::move(r));
  }
  rep.check("every rep agrees with the warm-up rep", agree == reps,
            std::to_string(agree) + "/" + std::to_string(reps));
  std::vector<double>& setup = rep.e2e["setup_s"];
  for (const R& r : plain) {
    setup.push_back(r.setup_s());
    rep.e2e["wall_s"].push_back(r.wall);
    rep.e2e["cpu_s"].push_back(r.cpu);
  }
  setup.insert(setup.end(), extra_setup.begin(), extra_setup.end());
}

// ---------------------------------------------------------------------------
// seq-s5378 and lanes-s35932: ShardedSim::run over one suite.

struct SimSpec {
  std::string circuit;
  std::size_t sequences;
  std::size_t length;
  unsigned shards;
  unsigned batch;
  unsigned default_reps;
};

ShardedOptions sharded_options(unsigned shards, unsigned batch) {
  ShardedOptions o;
  o.num_threads = shards;
  o.batch_width = batch;
  o.csim.split_lists = true;  // csim-MV: macros + split lists
  return o;
}

struct SimRep {
  SetupTimes setup;
  double wall = 0, cpu = 0;
  std::uint64_t digest = 0;
  SimStats stats;
  bool ok() const { return true; }
  double setup_s() const { return setup.total(); }
};

/// A sim rep's set-up: the model, then the ShardedSim built on it (declared
/// second, so it is destroyed first).
struct SimSetup {
  std::unique_ptr<Model> m;
  std::unique_ptr<ShardedSim> sim;
};

SimSetup sim_setup(const SimSpec& s, unsigned shards, unsigned batch,
                   Spans& sp, SetupTimes& t) {
  SimSetup u;
  sp.time("setup", [&] {
    u.m = build_model(s.circuit, Mode::StuckAtMacro, sp, t);
    t.engine = sp.time("sim.engine_build", [&] {
      u.sim = std::make_unique<ShardedSim>(u.m->model,
                                           sharded_options(shards, batch));
    });
  });
  return u;
}

SimRep sim_rep(const SimSpec& s, const TestSuite& t, unsigned shards,
               unsigned batch, obs::TraceEmitter* tr) {
  SimRep r;
  Spans sp(tr);
  const SimSetup u = sim_setup(s, shards, batch, sp, r.setup);
  ShardedSim* sim = u.sim.get();
  if (tr != nullptr) sim->set_trace(tr);
  const double c0 = cpu_s();
  // The merged status is part of the unit of work: `cfs sim` reads it.
  r.wall = sp.time("run", [&] {
    sim->run(t, Val::Zero);
    (void)sim->status();
  });
  r.cpu = cpu_s() - c0;
  r.digest = status_digest(sim->status());
  r.stats = sim->stats();
  return r;
}

Report run_sim(const Options& opt, const SimSpec& s) {
  Report rep;
  const TestSuite t =
      make_suite(s.circuit, s.sequences, s.length, opt.seed, 1);
  std::ostringstream cfg;
  cfg << s.circuit << " csim-MV, " << s.sequences << " x " << s.length
      << " random vectors, FFs reset to 0, " << s.shards << " shards, batch "
      << s.batch;
  rep.config = cfg.str();

  std::vector<SimRep> plain, traced;
  rep_loop(opt, s.default_reps, rep,
           [&](int, obs::TraceEmitter* tr) {
             return sim_rep(s, t, s.shards, s.batch, tr);
           },
           [&] {
             Spans none(nullptr);
             SetupTimes st;
             (void)sim_setup(s, s.shards, s.batch, none, st);
             return st.total();
           },
           plain, traced);

  // References: one shard at batch 1 is a plain ConcurrentSim behind the
  // same entry point.  It costs several seconds on s35932, so an untraced
  // batched run checks against its own shards at batch 1 (lanes path vs
  // scalar path) and leaves the one-shard check to the traced run.
  const auto reference = [&](unsigned shards) {
    SimRep r = sim_rep(s, t, shards, 1, nullptr);
    rep.check(std::to_string(s.shards) + "-shard batch-" +
                  std::to_string(s.batch) + " status == " +
                  std::to_string(shards) + "-shard batch-1 reference",
              hex64(r.digest) == rep.digest,
              rep.digest + " vs " + hex64(r.digest));
    return r;
  };
  if (!opt.trace) {
    reference(s.batch > 1 ? s.shards : 1);
    return rep;
  }
  const SimRep ref = reference(1);

  Series L;
  for (const SimRep& r : traced) {
    add_setup_layers(L, r.setup);
    push_all(L, engine_layers(r.stats));
  }
  fold_layers(rep, L);

  const double wall = median_of(plain, &SimRep::wall);
  const double cpu = median_of(plain, &SimRep::cpu);
  rep.layer["obs.trace_overhead_frac"] =
      median_of(traced, &SimRep::wall) / wall - 1;
  rep.layer["sim.gate_work_amplification"] =
      rep.layer["sim.gates_processed"] /
      static_cast<double>(ref.stats.total.gates_processed);
  rep.layer["sim.parallel_speedup"] = ref.wall / wall;
  if (s.batch > 1) {
    rep.layer["sim.batch_speedup"] = reference(s.shards).wall / wall;
  }

  const auto m = quiet_model(s.circuit, Mode::StuckAtMacro);
  const Replay g = good_replay(m->sim_circuit(), t);
  rep.layer["sim.good_replay_s"] = g.seconds;
  rep.layer["sim.good_events"] = static_cast<double>(g.events);
  rep.layer["sim.good_share"] = s.shards * g.seconds / cpu;

  const SimRep& mid = median_rep(traced);
  if (s.batch > 1) {
    const BatchPlan plan = BatchPlan::build(m->sim_circuit(), t, s.batch);
    const double slots =
        static_cast<double>(plan.packed_steps()) * plan.width();
    const double wasted = static_cast<double>(
        mid.stats.total.counters.get(obs::Counter::BatchLanesWasted));
    rep.layer["sim.batch_lane_util"] = slots > 0 ? 1 - wasted / slots : 0;
  }

  add_setup_rows(rep.table, mid.setup);
  const std::size_t cs = critical_shard(mid.stats);
  const obs::PhaseTimers& ct = mid.stats.per_engine[cs].timers;
  for (obs::Phase p : kEnginePhases) {
    rep.table.push_back({"shard " + std::to_string(cs) + " (critical): core." +
                             std::string(obs::phase_name(p)),
                         ct.seconds(p)});
  }
  if (s.batch > 1) {
    rep.table.push_back({"driver: sim.good_batch",
                         mid.stats.driver.seconds(obs::Phase::GoodBatch)});
  }
  rep.table.push_back({"driver: sim.shard_merge",
                       mid.stats.driver.seconds(obs::Phase::ShardMerge)});
  finish_table(rep, mid.setup.total(), mid.wall);
  return rep;
}

// ---------------------------------------------------------------------------
// campaign-s5378-tr: halt + resume through CampaignRunner checkpoints.

struct CampaignSpec {
  std::string circuit;
  std::size_t length;
  std::uint64_t halt_after;
  std::uint64_t checkpoint_every;
  unsigned shards;
  unsigned default_reps;
};

resil::CampaignOptions campaign_options(unsigned shards) {
  resil::CampaignOptions o;
  o.ff_init = Val::Zero;
  o.sharded.num_threads = shards;
  o.sharded.csim.split_lists = true;
  if (shards > 1) o.sharded.rebalance.mode = RebalancePolicy::Mode::Auto;
  return o;
}

/// Sums over one traced campaign rep's shard and driver tracks.
struct CampaignTrace {
  double lockstep_critical = 0;  ///< per vector, the slowest shard, summed
  double merge = 0, rebalance = 0;
};

CampaignTrace read_campaign_trace(const obs::TraceEmitter& em,
                                  unsigned shards) {
  std::ostringstream os;
  em.write(os);
  const svc::JsonValue doc = svc::json_parse(os.str());
  // The k-th "vector" slice on every shard track is the same vector: the
  // lockstep driver waits for all shards before the next one starts.
  std::vector<std::vector<double>> slices(shards);
  CampaignTrace ct;
  for (const svc::JsonValue& e : doc.find("traceEvents")->as_array()) {
    if (e.opt_string("ph", "") != "X") continue;
    const std::string name = e.opt_string("name", "");
    const std::uint64_t tid = e.opt_u64("tid", 0);
    const double dur = static_cast<double>(e.opt_u64("dur", 0)) * 1e-6;
    if (name == "vector" && tid < shards) {
      slices[tid].push_back(dur);
    } else if (tid == shards && name == "merge") {
      ct.merge += dur;
    } else if (tid == shards && name == "rebalance") {
      ct.rebalance += dur;
    }
  }
  std::size_t n = slices[0].size();
  for (const auto& v : slices) n = std::min(n, v.size());
  for (std::size_t k = 0; k < n; ++k) {
    double worst = 0;
    for (const auto& v : slices) worst = std::max(worst, v[k]);
    ct.lockstep_critical += worst;
  }
  return ct;
}

struct CampaignRep {
  SetupTimes setup;
  double wall = 0, cpu = 0;
  std::uint64_t digest = 0;
  bool halted_then_finished = false;
  std::uint64_t checkpoints = 0, checkpoint_bytes = 0;
  std::uint64_t rebalances = 0, faults_migrated = 0;
  CampaignTrace trace;
  std::optional<resil::CampaignCheckpoint> final_checkpoint;
  bool ok() const { return halted_then_finished; }
  double setup_s() const { return setup.total(); }
};

/// A campaign rep's set-up: the model, then the first CampaignRunner
/// (declared second, so it is destroyed first).
struct CampaignSetup {
  std::unique_ptr<Model> m;
  std::unique_ptr<resil::CampaignRunner> first;
};

CampaignSetup campaign_setup(const CampaignSpec& s, const TestSuite& t,
                             const resil::CampaignOptions& copt, Spans& sp,
                             SetupTimes& st) {
  CampaignSetup u;
  sp.time("setup", [&] {
    u.m = build_model(s.circuit, Mode::Transition, sp, st);
    st.engine = sp.time("resil.runner_build", [&] {
      u.first = std::make_unique<resil::CampaignRunner>(u.m->model, t, copt);
    });
  });
  return u;
}

resil::CampaignOptions campaign_rep_options(const CampaignSpec& s,
                                            const std::string& ck,
                                            obs::TraceEmitter* tr) {
  resil::CampaignOptions copt = campaign_options(s.shards);
  copt.checkpoint_path = ck;
  copt.checkpoint_every = s.checkpoint_every;
  copt.halt_after = s.halt_after;
  copt.trace = tr;
  return copt;
}

CampaignRep campaign_rep(const CampaignSpec& s, const TestSuite& t,
                         const std::string& dir, obs::TraceEmitter* tr) {
  CampaignRep r;
  r.setup.engine_name = "resil.runner_build";
  Spans sp(tr);
  const std::string ck = dir + "/ck.bin";
  const resil::CampaignOptions copt = campaign_rep_options(s, ck, tr);
  const CampaignSetup u = campaign_setup(s, t, copt, sp, r.setup);
  const Model* m = u.m.get();
  resil::CampaignRunner* first = u.first.get();
  resil::CampaignResult a, b;
  const double c0 = cpu_s();
  r.wall = sp.time("run", [&] {
    sp.time("resil.run_until_halt", [&] { a = first->run(); });
    sp.time("resil.resume", [&] {
      resil::CampaignOptions ropt = copt;
      ropt.halt_after = 0;
      ropt.resume_path = ck;
      resil::CampaignRunner resumed(m->model, t, ropt);
      b = resumed.run();
    });
  });
  r.cpu = cpu_s() - c0;
  r.digest = b.digest();
  r.halted_then_finished = a.halted && !b.halted;
  r.checkpoints = a.checkpoints_written + b.checkpoints_written;
  r.rebalances = a.rebalances + b.rebalances;
  r.faults_migrated = a.faults_migrated + b.faults_migrated;
  r.checkpoint_bytes = fs::file_size(ck);
  if (tr != nullptr) {
    r.trace = read_campaign_trace(*tr, s.shards);
    r.final_checkpoint = resil::load_checkpoint(ck);
  }
  return r;
}

Report run_campaign(const Options& opt, const CampaignSpec& s) {
  Report rep;
  const TestSuite t = make_suite(s.circuit, 1, s.length, opt.seed, 2);
  std::ostringstream cfg;
  cfg << s.circuit << " transition, csim-V two-pass core, 1 x " << s.length
      << " random vectors, FFs reset to 0, " << s.shards
      << " shards, rebalance auto, checkpoint every " << s.checkpoint_every
      << ", halt after " << s.halt_after << " then resume";
  rep.config = cfg.str();
  const std::string root = scratch_root(opt);

  std::vector<CampaignRep> plain, traced;
  rep_loop(opt, s.default_reps, rep,
           [&](int i, obs::TraceEmitter* tr) {
             ScratchDir d(root + "/campaign-" + std::to_string(i + 1));
             return campaign_rep(s, t, d.path, tr);
           },
           [&] {
             // The runner touches no file until it runs.
             Spans none(nullptr);
             SetupTimes st;
             (void)campaign_setup(
                 s, t, campaign_rep_options(s, root + "/ck.bin", nullptr),
                 none, st);
             return st.total();
           },
           plain, traced);

  // Reference: the same campaign uninterrupted on one shard, without
  // checkpoints or rebalancing.  The digest pins status and detection
  // order.
  const auto m = quiet_model(s.circuit, Mode::Transition);
  const resil::CampaignResult ref =
      resil::CampaignRunner(m->model, t, campaign_options(1)).run();
  rep.check("halt+resume == uninterrupted 1-shard campaign",
            hex64(ref.digest()) == rep.digest,
            rep.digest + " vs " + hex64(ref.digest()));
  if (!opt.trace) return rep;

  Series L;
  for (const CampaignRep& r : traced) {
    add_setup_layers(L, r.setup);
    L["resil.checkpoints_written"].push_back(
        static_cast<double>(r.checkpoints));
    L["resil.checkpoint_bytes"].push_back(
        static_cast<double>(r.checkpoint_bytes));
  }
  // The campaign's own engines are private to CampaignRunner, so engine
  // phases and counters come from a plain apply_vector loop over the same
  // shards and policy.
  ShardedOptions so = campaign_options(s.shards).sharded;
  const PlainRun loop4 = plain_loop(*m, t, so);
  so.num_threads = 1;
  const PlainRun loop1 = plain_loop(*m, t, so);
  push_all(L, engine_layers(loop4.stats));
  L["sim.engine_build_s"].push_back(loop4.build);
  fold_layers(rep, L);

  const CampaignRep& mid = median_rep(traced);
  rep.layer["sim.rebalances"] = static_cast<double>(mid.rebalances);
  rep.layer["sim.faults_migrated"] = static_cast<double>(mid.faults_migrated);
  rep.layer["sim.rebalance_s"] = mid.trace.rebalance;
  rep.layer["sim.shard_merge_s"] = mid.trace.merge;
  rep.layer["sim.critical_path_s"] = mid.trace.lockstep_critical;

  const double wall = median_of(plain, &CampaignRep::wall);
  const double cpu = median_of(plain, &CampaignRep::cpu);
  rep.layer["obs.trace_overhead_frac"] =
      median_of(traced, &CampaignRep::wall) / wall - 1;
  rep.layer["sim.gate_work_amplification"] =
      static_cast<double>(loop4.stats.total.gates_processed) /
      static_cast<double>(loop1.stats.total.gates_processed);
  rep.layer["sim.parallel_speedup"] = loop1.wall / loop4.wall;
  rep.layer["resil.campaign_overhead_frac"] = wall / loop4.wall - 1;

  const Replay g = good_replay(m->sim_circuit(), t);
  rep.layer["sim.good_replay_s"] = g.seconds;
  rep.layer["sim.good_events"] = static_cast<double>(g.events);
  rep.layer["sim.good_share"] = s.shards * g.seconds / cpu;

  const Probe p =
      checkpoint_probe(*mid.final_checkpoint, root + "/probe.bin", 20);
  rep.layer["resil.checkpoint_save_s"] = p.save;
  rep.layer["resil.checkpoint_load_s"] = p.load;
  rep.layer["resil.checkpoint_share"] =
      static_cast<double>(mid.checkpoints) * p.save / cpu;

  add_setup_rows(rep.table, mid.setup);
  rep.table.push_back({"shards: lockstep critical path (slowest shard per "
                       "vector)",
                       mid.trace.lockstep_critical});
  rep.table.push_back({"driver: sim.shard_merge", mid.trace.merge});
  rep.table.push_back({"driver: sim.rebalance", mid.trace.rebalance});
  rep.table.push_back({"resil: checkpoint writes (" +
                           std::to_string(mid.checkpoints) +
                           " x median save)",
                       static_cast<double>(mid.checkpoints) * p.save});
  finish_table(rep, mid.setup.total(), mid.wall);
  return rep;
}

// ---------------------------------------------------------------------------
// svc-mix: a closed loop of clients against an in-process cfsd.

struct SvcSpec {
  std::string circuit;
  std::string mode;  ///< sa | sa-macro | tr
  std::size_t vectors;
};

struct SvcWorkload {
  std::vector<SvcSpec> specs;
  unsigned sessions_per_rep;
  unsigned clients;
  unsigned max_sessions;
  unsigned default_reps;
};

Mode spec_mode(const SvcSpec& s) {
  if (s.mode == "tr") return Mode::Transition;
  return s.mode == "sa-macro" ? Mode::StuckAtMacro : Mode::StuckAt;
}

struct SessionOut {
  unsigned spec = 0;
  bool ok = false;
  std::string error;
  std::uint64_t digest = 0;
  double latency = 0, first_update = -1;
  double open = 0, watch = 0, status = 0;
};

/// One session, the way `cfs connect` drives it: open (blocks through
/// admission), watch until the session leaves Running, read the status.
SessionOut run_session(svc::Client& cli, const std::string& name,
                       const std::string& open_payload) {
  SessionOut o;
  const double t0 = now_s();
  try {
    svc::JsonValue resp = cli.call(open_payload);
    const double t_open = now_s();
    o.open = t_open - t0;
    if (!resp.opt_bool("ok", false)) {
      o.error = resp.opt_string("error", "?");
      return o;
    }
    std::string state = resp.opt_string("state", "?");
    std::uint64_t after = 0;
    while (state == "running" || state == "queued") {
      resp = cli.call("{\"op\":\"watch\",\"session\":\"" + name +
                      "\",\"after\":" + std::to_string(after) +
                      ",\"wait_ms\":1000}");
      if (!resp.opt_bool("ok", false)) {
        o.error = resp.opt_string("error", "?");
        return o;
      }
      const svc::JsonValue* ups = resp.find("updates");
      if (o.first_update < 0 && ups != nullptr) {
        for (const svc::JsonValue& u : ups->as_array()) {
          const svc::JsonValue* up = u.find("update");
          if (up != nullptr && up->find("sample") != nullptr) {
            o.first_update = now_s() - t0;
            break;
          }
        }
      }
      after = resp.opt_u64("next", after);
      state = resp.opt_string("state", state);
    }
    const double t_watch = now_s();
    o.watch = t_watch - t_open;
    resp = cli.call("{\"op\":\"status\",\"session\":\"" + name + "\"}");
    const double t_end = now_s();
    o.status = t_end - t_watch;
    o.latency = t_end - t0;
    state = resp.opt_string("state", "?");
    if (!resp.opt_bool("ok", false) || state != "done") {
      o.error = "session ended " + state;
      return o;
    }
    o.digest = std::stoull(resp.opt_string("digest", "0"), nullptr, 16);
    o.ok = true;
  } catch (const std::exception& e) {
    o.error = std::string("transport: ") + e.what();
  }
  return o;
}

/// The in-process daemon: Service core, AF_UNIX Server, and its accept
/// loop thread, torn down in dependency order.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { (void)stop(); }

  /// Service ctor + Server::start + the first hello reply on `ctl`: the
  /// daemon's set-up as a client sees it.  Returns the three times.
  std::array<double, 3> start(const svc::ServiceConfig& cfg,
                              const std::string& sock, svc::Client& ctl,
                              Spans& sp) {
    std::array<double, 3> t{};
    t[0] = sp.time("svc.service_ctor",
                   [&] { service_ = std::make_unique<svc::Service>(cfg); });
    t[1] = sp.time("svc.server_start", [&] {
      server_ = std::make_unique<svc::Server>(*service_, sock);
      server_->start();
      loop_ = std::thread([this] {
        try {
          server_->run();
        } catch (const std::exception& e) {
          loop_error_ = e.what();
        }
      });
    });
    t[2] = sp.time("svc.first_hello", [&] {
      ctl.connect(sock);
      if (!ctl.call("{\"op\":\"hello\"}").opt_bool("ok", false)) {
        throw Error("cfsd refused hello");
      }
    });
    return t;
  }

  /// Stop the accept loop and tear down (the Service destructor drains).
  /// No `shutdown` op: its reply can be lost when another connection's
  /// post-request drain check stops the server first.  Returns the accept
  /// loop's error, if it had one.
  std::string stop() {
    if (server_) server_->request_stop();
    if (loop_.joinable()) loop_.join();
    server_.reset();
    service_.reset();
    return loop_error_;
  }

 private:
  std::unique_ptr<svc::Service> service_;
  std::unique_ptr<svc::Server> server_;
  std::thread loop_;
  std::string loop_error_;  ///< written by loop_, read after the join
};

struct SvcRep {
  double inputs = 0;             ///< client-side request preparation
  std::array<double, 3> daemon{};  ///< Service ctor, Server::start, hello
  double wall = 0, cpu = 0;
  std::uint64_t digest = 0;  ///< of the session digests, in session order
  std::vector<SessionOut> sessions;
  std::map<std::string, double> counters;  ///< from the `stats` op
  double rtt_p50_us = 0;
  bool ok() const { return true; }
  double setup_s() const { return inputs + daemon[0] + daemon[1] + daemon[2]; }
};

/// A control-connection request; transport errors name the op.
svc::JsonValue control(svc::Client& ctl, const std::string& op) {
  try {
    return ctl.call("{\"op\":\"" + op + "\"}");
  } catch (const std::exception& e) {
    throw Error("cfsd " + op + ": " + e.what());
  }
}

/// What a `cfs connect` client prepares before its first open: each spec's
/// circuit text and test suite, and the open request built from them.
struct SvcInputs {
  std::vector<std::string> texts;
  std::vector<TestSuite> suites;
  std::vector<std::string> open_tail;  ///< per spec, after the session name
};

SvcInputs make_svc_inputs(const SvcWorkload& w, std::uint64_t seed,
                          Spans& sp, SetupTimes& t) {
  SvcInputs in;
  for (std::size_t k = 0; k < w.specs.size(); ++k) {
    const SvcSpec& s = w.specs[k];
    in.texts.push_back(gen_text(s.circuit, sp, t));
    in.suites.push_back(make_suite(s.circuit, 1, s.vectors, seed, 10 + k));
    in.open_tail.push_back(
        "\",\"circuit\":\"" + svc::json_escape(in.texts.back()) +
        "\",\"tests\":\"" + svc::json_escape(in.suites.back().to_text()) +
        "\",\"mode\":\"" + s.mode +
        "\",\"threads\":1,\"batch\":1,\"reset0\":true}");
  }
  return in;
}

/// A svc rep's set-up: the client's request preparation, then the daemon
/// started in `dir` and answering the control client.  Members are
/// destroyed in reverse: the control client closes before the daemon stops.
struct SvcSetup {
  std::string sock;
  SvcInputs in;
  Daemon d;
  svc::Client ctl;
  double inputs = 0;
  std::array<double, 3> daemon{};

  SvcSetup(const SvcWorkload& w, std::uint64_t seed, const std::string& dir,
           obs::TraceEmitter* tr, Spans& sp)
      : sock(dir + "/sock") {
    if (sock.size() >= 100) {
      throw Error("socket path too long for AF_UNIX: " + sock);
    }
    svc::ServiceConfig cfg;
    cfg.max_sessions = w.max_sessions;
    cfg.state_dir = dir + "/state";
    cfg.trace = tr;
    // The daemon itself starts in well under a millisecond, most of it
    // filesystem metadata latency; the client's request preparation is the
    // set-up a `cfs connect` user waits through before the first open.
    sp.time("setup", [&] {
      inputs = sp.time("svc.client_inputs", [&] {
        SetupTimes ignored;
        in = make_svc_inputs(w, seed, sp, ignored);
      });
      daemon = d.start(cfg, sock, ctl, sp);
    });
  }
  double total() const { return inputs + daemon[0] + daemon[1] + daemon[2]; }
};

SvcRep svc_rep(const SvcWorkload& w, const std::vector<unsigned>& order,
               std::uint64_t seed, const std::string& dir, int rep_no,
               obs::TraceEmitter* tr) {
  SvcRep r;
  Spans sp(tr);
  SvcSetup u(w, seed, dir, tr, sp);
  r.inputs = u.inputs;
  r.daemon = u.daemon;
  const SvcInputs& in = u.in;
  Daemon& d = u.d;
  svc::Client& ctl = u.ctl;
  const std::string& sock = u.sock;

  const std::size_t n = order.size();
  r.sessions.resize(n);
  std::atomic<std::size_t> next{0};
  const std::string prefix = "r" + std::to_string(rep_no + 1) + "s";
  const auto client = [&](unsigned c) {
    Spans csp(tr, Spans::kTrack + 1 + c);
    svc::Client cli;
    std::string connect_error;
    try {
      cli.connect(sock);
    } catch (const std::exception& e) {
      connect_error = e.what();
    }
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) break;
      const unsigned spec = order[i];
      const std::string name = prefix + std::to_string(i);
      SessionOut o;
      if (!connect_error.empty()) {
        o.error = "transport: " + connect_error;
      } else {
        csp.time("session " + name, [&] {
          o = run_session(cli, name,
                          "{\"op\":\"open\",\"session\":\"" + name +
                              in.open_tail[spec]);
        });
      }
      o.spec = spec;
      r.sessions[i] = std::move(o);
    }
  };
  const double c0 = cpu_s();
  r.wall = sp.time("run", [&] {
    std::vector<std::thread> th;
    for (unsigned c = 0; c < w.clients; ++c) th.emplace_back(client, c);
    for (std::thread& t : th) t.join();
  });
  r.cpu = cpu_s() - c0;

  std::vector<std::uint64_t> digests;
  for (const SessionOut& o : r.sessions) digests.push_back(o.digest);
  r.digest = fnv1a(digests.data(), digests.size() * sizeof(std::uint64_t));
  const svc::JsonValue stats = control(ctl, "stats");
  if (const svc::JsonValue* b = stats.find("svc")) {
    for (const char* k : {"model_cache_hits", "model_cache_misses",
                          "updates_shed", "checkpoint_write_retries"}) {
      r.counters[std::string("svc.") + k] =
          static_cast<double>(b->opt_u64(k, 0));
    }
  }
  if (tr != nullptr) {
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
      const double t0 = now_s();
      (void)control(ctl, "hello");
      us.push_back((now_s() - t0) * 1e6);
    }
    r.rtt_p50_us = summarize(us).median;
  }
  ctl.close();
  if (const std::string err = d.stop(); !err.empty()) {
    throw Error("cfsd accept loop: " + err);
  }
  return r;
}

/// Reference answer for one spec: the same campaign the service runs
/// (one thread, element budget, containment, checkpoints every 32
/// vectors), driven in-process without the service.
struct SpecRef {
  std::uint64_t digest = 0;
  std::uint64_t checkpoints = 0, checkpoint_bytes = 0;
  resil::CampaignCheckpoint final_checkpoint;
};

SpecRef spec_reference(const Model& m, const TestSuite& t,
                       const std::string& ck) {
  const svc::ServiceConfig dflt;
  resil::CampaignOptions o;
  o.ff_init = Val::Zero;
  o.sharded.num_threads = 1;
  o.sharded.csim.split_lists = true;
  o.sharded.csim.max_elements = dflt.default_session_elements;
  o.sharded.resil.max_retries = dflt.shard_retries;
  o.checkpoint_path = ck;
  o.checkpoint_every = dflt.checkpoint_every;
  const resil::CampaignResult r = resil::CampaignRunner(m.model, t, o).run();
  SpecRef s;
  s.digest = r.digest();
  s.checkpoints = r.checkpoints_written;
  s.checkpoint_bytes = fs::file_size(ck);
  s.final_checkpoint = resil::load_checkpoint(ck);
  fs::remove(ck);
  return s;
}

Report run_svc(const Options& opt, const SvcWorkload& w) {
  Report rep;
  const std::size_t nspec = w.specs.size();
  std::ostringstream cfg;
  cfg << "in-process cfsd, max_sessions " << w.max_sessions << ", "
      << w.clients << " closed-loop clients, " << w.sessions_per_rep
      << " sessions per rep cycling";
  for (const SvcSpec& s : w.specs) {
    cfg << " " << s.circuit << " " << s.mode << " x " << s.vectors;
  }
  cfg << " (reset0, threads 1, batch 1)";
  rep.config = cfg.str();

  // A fixed cycle, not a seeded shuffle: which long session runs last
  // decides a rep's tail, and a shuffle moved wall_s by ~15% between seeds.
  std::vector<unsigned> order;
  for (unsigned i = 0; i < w.sessions_per_rep; ++i) order.push_back(i % nspec);

  const std::string root = scratch_root(opt);
  std::vector<SvcRep> plain, traced;
  rep_loop(opt, w.default_reps, rep,
           [&](int i, obs::TraceEmitter* tr) {
             ScratchDir d(root + "/svc-" + std::to_string(i + 1));
             return svc_rep(w, order, opt.seed, d.path, i, tr);
           },
           [&] {
             ScratchDir d(root + "/svc-setup");
             Spans none(nullptr);
             return SvcSetup(w, opt.seed, d.path, nullptr, none).total();
           },
           plain, traced);

  // The same inputs again, untimed, for the reference runs.
  Spans none(nullptr);
  SetupTimes input_times;
  const SvcInputs in = make_svc_inputs(w, opt.seed, none, input_times);

  // Reference answers per spec; every session must match its spec's.
  std::vector<SpecRef> refs;
  std::vector<std::unique_ptr<Model>> models;
  SetupTimes ref_times;
  for (std::size_t k = 0; k < nspec; ++k) {
    models.push_back(build_from_text(in.texts[k], w.specs[k].circuit,
                                     spec_mode(w.specs[k]), none, ref_times));
    refs.push_back(spec_reference(*models.back(), in.suites[k],
                                  root + "/ref.bin"));
  }
  std::vector<std::uint64_t> ref_digests;
  for (const SpecRef& r : refs) ref_digests.push_back(r.digest);
  rep.digest = hex64(fnv1a(ref_digests.data(),
                           ref_digests.size() * sizeof(std::uint64_t)));

  std::size_t sessions = 0, bad = 0;
  std::string first_error;
  const auto judge = [&](const std::vector<SvcRep>& reps) {
    for (const SvcRep& r : reps) {
      for (const SessionOut& o : r.sessions) {
        const bool ok = o.ok && o.digest == refs[o.spec].digest;
        ++sessions;
        rep.op(ok);
        if (!ok) {
          ++bad;
          if (first_error.empty()) {
            first_error = o.ok ? "digest mismatch" : o.error;
          }
        }
      }
    }
  };
  judge(plain);
  judge(traced);
  rep.check("every session done with its spec's reference digest", bad == 0,
            std::to_string(sessions - bad) + "/" + std::to_string(sessions) +
                (first_error.empty() ? "" : " (" + first_error + ")"));

  for (const SvcRep& r : plain) {
    for (const SessionOut& o : r.sessions) {
      if (!o.ok) continue;
      rep.e2e["session_s"].push_back(o.latency);
      if (o.first_update >= 0) {
        rep.e2e["first_update_s"].push_back(o.first_update);
      }
    }
  }
  if (!opt.trace) return rep;

  // Per-layer: model setup as the service's cache miss pays it, engine
  // phases from a plain one-thread loop per spec, and good-machine replays
  // -- each scaled by how many sessions of that spec one rep runs.
  std::vector<double> per_spec(nspec, 0);
  for (unsigned s : order) per_spec[s] += 1;
  std::map<std::string, double> eng;
  double good_s = 0, good_events = 0, engine_build = 0, peak = 0;
  double checkpoints = 0, save_weighted = 0, load_weighted = 0;
  std::uint64_t bytes = 0;
  for (std::size_t k = 0; k < nspec; ++k) {
    ShardedOptions so;
    so.csim.split_lists = true;
    const PlainRun pr = plain_loop(*models[k], in.suites[k], so);
    for (const auto& [name, v] : engine_layers(pr.stats)) {
      eng[name] += per_spec[k] * v;
    }
    peak = std::max(peak, static_cast<double>(pr.stats.total.peak_elements));
    engine_build += per_spec[k] * pr.build;
    const Replay g = good_replay(models[k]->sim_circuit(), in.suites[k]);
    good_s += per_spec[k] * g.seconds;
    good_events += per_spec[k] * static_cast<double>(g.events);
    const Probe p =
        checkpoint_probe(refs[k].final_checkpoint, root + "/probe.bin", 20);
    const double ck = per_spec[k] * static_cast<double>(refs[k].checkpoints);
    checkpoints += ck;
    save_weighted += ck * p.save;
    load_weighted += ck * p.load;
    bytes = std::max(bytes, refs[k].checkpoint_bytes);
  }
  for (const auto& [name, v] : eng) rep.layer[name] = v;
  rep.layer["core.peak_elements"] = peak;  // one session's, not a sum
  rep.layer["sim.shard_skew"] = 1.0;
  rep.layer["sim.engine_build_s"] = engine_build;
  rep.layer["gen.make_s"] = input_times.gen;
  rep.layer["netlist.parse_s"] = ref_times.parse;
  rep.layer["faults.universe_s"] = ref_times.universe;
  rep.layer["netlist.macro_extract_s"] = ref_times.macro_extract;
  rep.layer["faults.macro_map_s"] = ref_times.macro_map;
  rep.layer["core.model_build_s"] = ref_times.model;

  const double wall = median_of(plain, &SvcRep::wall);
  const double cpu = median_of(plain, &SvcRep::cpu);
  rep.layer["obs.trace_overhead_frac"] =
      median_of(traced, &SvcRep::wall) / wall - 1;
  rep.layer["sim.good_replay_s"] = good_s;
  rep.layer["sim.good_events"] = good_events;
  rep.layer["sim.good_share"] = good_s / cpu;
  rep.layer["resil.checkpoints_written"] = checkpoints;
  rep.layer["resil.checkpoint_bytes"] = static_cast<double>(bytes);
  rep.layer["resil.checkpoint_save_s"] = save_weighted / checkpoints;
  rep.layer["resil.checkpoint_load_s"] = load_weighted / checkpoints;
  rep.layer["resil.checkpoint_share"] = save_weighted / cpu;

  std::vector<double> open;
  Series L;
  for (const SvcRep& r : traced) {
    for (const auto& [k, v] : r.counters) L[k].push_back(v);
    L["svc.rpc_rtt_p50_us"].push_back(r.rtt_p50_us);
  }
  for (const auto* reps : {&plain, &traced}) {
    for (const SvcRep& r : *reps) {
      for (const SessionOut& o : r.sessions) {
        if (o.ok) open.push_back(o.open);
      }
    }
  }
  fold_layers(rep, L);
  std::sort(open.begin(), open.end());
  if (!open.empty()) {
    rep.layer["svc.open_p50_s"] = summarize(open).median;
    rep.layer["svc.open_p90_s"] = open[open.size() * 9 / 10];
  }

  const SvcRep& mid = median_rep(traced);
  rep.table.push_back({"setup: svc.client_inputs", mid.inputs});
  rep.table.push_back({"setup: svc.service_ctor", mid.daemon[0]});
  rep.table.push_back({"setup: svc.server_start", mid.daemon[1]});
  rep.table.push_back({"setup: svc.first_hello", mid.daemon[2]});
  double o_s = 0, w_s = 0, st_s = 0;
  for (const SessionOut& o : mid.sessions) {
    o_s += o.open;
    w_s += o.watch;
    st_s += o.status;
  }
  const double nc = w.clients;
  rep.table.push_back({"clients (mean): svc open, incl. admission wait",
                       o_s / nc});
  rep.table.push_back({"clients (mean): svc watch, session running",
                       w_s / nc});
  rep.table.push_back({"clients (mean): svc status", st_s / nc});
  finish_table(rep, mid.setup_s(), mid.wall);
  return rep;
}

// ---------------------------------------------------------------------------
// The catalogue.  Sizes were chosen so that one rep takes about a second
// (a few for lanes-s35932) on a 4-core host; README.md records the
// measurements behind them.

Report seq_s5378(const Options& opt) {
  return opt.smoke ? run_sim(opt, {"s298", 1, 64, 4, 1, 1})
                   : run_sim(opt, {"s5378", 1, 4096, 4, 1, 7});
}

Report lanes_s35932(const Options& opt) {
  return opt.smoke ? run_sim(opt, {"s1494", 8, 8, 4, 64, 1})
                   : run_sim(opt, {"s35932", 32, 16, 4, 64, 5});
}

// s5378, not s1494: on s1494 a shard's share of one vector is ~0.15 ms, so
// the 8192 fork-joins per rep made the rep's CPU time track host load
// (rep-to-rep CV 4-10%, against 1-4% here).
Report campaign_s5378_tr(const Options& opt) {
  return opt.smoke ? run_campaign(opt, {"s298", 64, 32, 16, 4, 1})
                   : run_campaign(opt, {"s5378", 2048, 1024, 16, 4, 7});
}

Report svc_mix(const Options& opt) {
  if (opt.smoke) {
    return run_svc(opt, {{{"s298", "sa-macro", 48},
                          {"s298", "tr", 48},
                          {"s1494", "sa", 32}},
                         12, 3, 2, 1});
  }
  return run_svc(opt, {{{"s1494", "sa-macro", 512},
                        {"s298", "tr", 512},
                        {"s5378", "sa", 128}},
                       24, 3, 2, 5});
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"seq-s5378",
       "one long sequence: fault-list merge, clocking and every shard's "
       "replay of the good machine dominate; lanes, checkpoints and the "
       "service are bypassed",
       4, 0, seq_s5378},
      {"lanes-s35932",
       "many short sequences at batch 64: the only workload on the lanes "
       "layer, with frequent sequence-start rebuilds and a working set "
       "bigger than L2",
       4, 0, lanes_s35932},
      {"campaign-s5378-tr",
       "checkpoint I/O, restore, auto rebalancing and the transition engine "
       "together on the lockstep driver",
       4, 0, campaign_s5378_tr},
      {"svc-mix",
       "service queueing, model cache, wire framing and session "
       "persistence; one-thread sessions bypass sharding and lanes",
       2, 3, svc_mix},
  };
  return w;
}

}  // namespace ledger
