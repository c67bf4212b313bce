// cfs -- the command-line front end of the fault-simulation library.
//
//   cfs stats    <circuit>                      circuit statistics
//   cfs gen      <benchmark> [--out=FILE]       emit a synthetic benchmark
//   cfs macro    <circuit> [--cap=N]            macro extraction report
//   cfs collapse <circuit>                      fault-collapsing report
//   cfs tgen     <circuit> [--out=FILE] [--budget=N] [--seed=N] [--reset0]
//   cfs sim      <circuit> [--engine=csim-mv|csim-v|csim-m|csim|proofs|
//                           serial|deductive]
//                          [--tests=FILE | --random=N] [--seed=N]
//                          [--reset0] [--transition] [--verbose]
//                          [--threads=N] [--batch=N|auto]
//                          [--rebalance=off|auto|N] [--rebalance-threshold=R]
//
// <circuit> is a .bench file path (contains '.' or '/') or the name of a
// built-in ISCAS-89 profile benchmark (s27, s298, ..., s35932).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "args.h"
#include "baseline/deductive_sim.h"
#include "core/concurrent_sim.h"
#include "faults/fault.h"
#include "faults/sampling.h"
#include "gen/iscas_profiles.h"
#include "harness/runner.h"
#include "harness/stats_export.h"
#include "harness/table.h"
#include "obs/progress.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "netlist/bench_parser.h"
#include "resil/campaign.h"
#include "resil/containment.h"
#include "svc/client.h"
#include "netlist/bench_writer.h"
#include "netlist/macro_extract.h"
#include "patterns/compaction.h"
#include "patterns/tgen.h"
#include "util/error.h"
#include "util/memtrack.h"
#include "util/stopwatch.h"

namespace {

using namespace cfs;
using cli::Args;

Circuit load_circuit(const std::string& spec) {
  if (spec.find('/') != std::string::npos ||
      spec.find('.') != std::string::npos) {
    return parse_bench_file(spec);
  }
  return make_benchmark(spec);
}

int cmd_stats(const Args& args) {
  args.allow_only({});
  const Circuit c = load_circuit(args.positional().at(0));
  const auto st = c.stats();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const FaultUniverse t = FaultUniverse::all_transition(c);
  std::printf("circuit      %s\n", c.name().c_str());
  std::printf("inputs       %zu\n", st.num_pis);
  std::printf("outputs      %zu\n", st.num_pos);
  std::printf("flip-flops   %zu\n", st.num_dffs);
  std::printf("gates        %zu\n", st.num_comb_gates);
  std::printf("levels       %u\n", st.num_levels);
  std::printf("max fanin    %zu\n", st.max_fanin);
  std::printf("max fanout   %zu\n", st.max_fanout);
  std::printf("sa faults    %zu\n", u.size());
  std::printf("tr faults    %zu\n", t.size());
  std::printf("image bytes  %s\n", format_bytes(c.bytes()).c_str());
  return 0;
}

int cmd_gen(const Args& args) {
  args.allow_only({"out"});
  const Circuit c = make_benchmark(args.positional().at(0));
  const std::string text = write_bench(c);
  const std::string out = args.get("out");
  if (out.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream f(out);
    if (!f) throw Error("cannot write " + out);
    f << text;
    std::printf("wrote %s (%zu gates)\n", out.c_str(), c.num_gates());
  }
  return 0;
}

int cmd_macro(const Args& args) {
  args.allow_only({"cap"});
  const Circuit c = load_circuit(args.positional().at(0));
  MacroOptions opt;
  opt.max_inputs = args.get_uint<unsigned>("cap", 4);
  const MacroExtraction ext = extract_macros(c, opt);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const MacroFaultMap mm = map_faults_to_macros(c, ext, u);
  std::size_t collapsed_gates = 0;
  for (const MacroInfo& m : ext.macros) collapsed_gates += m.internal.size();
  std::printf("gates        %zu -> %zu\n", c.num_gates(),
              ext.circuit.num_gates());
  std::printf("macros       %zu (covering %zu gates, cap %u inputs)\n",
              ext.macros.size(), collapsed_gates, opt.max_inputs);
  std::printf("functional   %zu faults (%zu masked inside their region)\n",
              mm.num_functional, mm.num_masked);
  std::printf("table bytes  %s\n", format_bytes(mm.bytes()).c_str());
  return 0;
}

int cmd_collapse(const Args& args) {
  args.allow_only({});
  const Circuit c = load_circuit(args.positional().at(0));
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const auto rep = collapse_equivalent(c, u);
  std::size_t classes = 0;
  for (std::uint32_t i = 0; i < rep.size(); ++i) classes += rep[i] == i;
  std::printf("faults       %zu\n", u.size());
  std::printf("classes      %zu (%.1f%% of the universe)\n", classes,
              100.0 * static_cast<double>(classes) /
                  static_cast<double>(u.size()));
  return 0;
}

int cmd_tgen(const Args& args) {
  args.allow_only({"out", "budget", "seed", "reset0"});
  const Circuit c = load_circuit(args.positional().at(0));
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  TgenOptions opt;
  opt.max_vectors = args.get_uint("budget", 4096);
  opt.seed = args.get_uint("seed", 7);
  opt.ff_init = args.has("reset0") ? Val::Zero : Val::X;
  Stopwatch sw;
  const TgenResult r = generate_tests(c, u, opt);
  std::printf("%zu vectors in %zu sequences, %.2f%% coverage (%zu/%zu hard, "
              "%zu potential), %.2fs\n",
              r.suite.total_vectors(), r.suite.num_sequences(),
              r.coverage.pct(), r.coverage.hard, r.coverage.total,
              r.coverage.potential, sw.seconds());
  const std::string out = args.get("out");
  if (!out.empty()) {
    r.suite.save(out, c.name() + " tests (cfs tgen)");
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

int cmd_compact(const Args& args) {
  args.allow_only({"tests", "out", "reset0"});
  const Circuit c = load_circuit(args.positional().at(0));
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite tests = TestSuite::load(args.get("tests"));
  if (tests.empty()) {
    throw Error("test file '" + args.get("tests") + "' contains no vectors");
  }
  if (tests.num_inputs() != c.inputs().size()) {
    throw Error("test file width does not match the circuit's inputs");
  }
  CompactionOptions opt;
  opt.ff_init = args.has("reset0") ? Val::Zero : Val::X;
  Stopwatch sw;
  const SuiteCompactionResult r = compact_suite(c, u, tests, opt);
  std::printf("%zu -> %zu vectors (%.1f%% kept), %zu validation sims, "
              "%.2fs\n",
              r.original_vectors, r.suite.total_vectors(),
              100.0 * static_cast<double>(r.suite.total_vectors()) /
                  static_cast<double>(
                      r.original_vectors ? r.original_vectors : 1),
              r.simulations, sw.seconds());
  std::printf("coverage preserved at %.2f%% (%zu hard)\n", r.coverage.pct(),
              r.coverage.hard);
  const std::string out = args.get("out");
  if (!out.empty()) {
    r.suite.save(out, c.name() + " compacted tests");
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

void print_shard_stats(const RunResult& r) {
  for (std::size_t s = 0; s < r.stats.per_engine.size(); ++s) {
    const EngineStats& e = r.stats.per_engine[s];
    std::printf("  shard %-2zu  %10llu gates  %12llu elements  "
                "%8llu vec  %8llu drop  %8zu peak  %s\n",
                s, static_cast<unsigned long long>(e.gates_processed),
                static_cast<unsigned long long>(e.elements_evaluated),
                static_cast<unsigned long long>(e.vectors_simulated),
                static_cast<unsigned long long>(e.faults_dropped),
                e.peak_elements, format_bytes(e.state_bytes).c_str());
  }
  const EngineStats& tot = r.stats.total;
  std::printf("  total     %10llu gates  %12llu elements  "
              "%8llu vec  %8llu drop  %8zu peak  %s\n",
              static_cast<unsigned long long>(tot.gates_processed),
              static_cast<unsigned long long>(tot.elements_evaluated),
              static_cast<unsigned long long>(tot.vectors_simulated),
              static_cast<unsigned long long>(tot.faults_dropped),
              tot.peak_elements, format_bytes(tot.state_bytes).c_str());
}

// --rebalance=off|auto|N picks the dynamic shard-rebalancing policy
// (sim/sharded_sim.h): off keeps the initial equal-count split, auto
// re-cuts it by live-element weight when the imbalance ratio crosses
// --rebalance-threshold (default 1.25), and a number N re-cuts
// unconditionally every N vectors.  Results are bit-identical for every
// policy; only the work/wall telemetry changes.
RebalancePolicy parse_rebalance(const Args& args) {
  RebalancePolicy rp;
  const std::string spec = args.get("rebalance", "off");
  if (spec == "off") {
    rp.mode = RebalancePolicy::Mode::Off;
  } else if (spec == "auto") {
    rp.mode = RebalancePolicy::Mode::Auto;
  } else {
    // A zero period ("0", "00") would never fire.
    const bool digits =
        spec.find_first_not_of("0123456789") == std::string::npos;
    rp.every = digits ? args.get_uint("rebalance", 0) : 0;
    if (rp.every == 0) {
      throw Error("--rebalance must be off, auto, or a period N >= 1");
    }
    rp.mode = RebalancePolicy::Mode::Every;
  }
  if (args.has("rebalance-threshold")) {
    const std::string t = args.get("rebalance-threshold");
    char* end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    if (end == t.c_str() || *end != '\0' || !(v >= 1.0)) {
      throw Error("--rebalance-threshold must be a number >= 1.0");
    }
    rp.threshold = v;
  }
  return rp;
}

// Resilient campaign path of `cfs sim`: checkpoint/resume, shard failure
// containment, memory-budget multi-pass degradation (resil/campaign.h).
// Selected whenever any campaign flag is present.
int run_campaign(const Args& args, const Circuit& c, const std::string& engine,
                 Val ff_init, unsigned threads, unsigned batch,
                 const TestSuite& tests) {
  for (const char* bad : {"sample", "collapse", "stats-json"}) {
    if (args.has(bad)) {
      throw Error("--" + std::string(bad) +
                  " cannot be combined with campaign flags");
    }
  }
  // Transition mode never extracts macros (mirrors run_csim_transition:
  // csim-mv in transition mode means split lists only).
  const bool use_macros = (engine == "csim-mv" || engine == "csim-m") &&
                          !args.has("transition");

  resil::CampaignOptions copt;
  copt.ff_init = ff_init;
  copt.sharded.num_threads = threads;
  // Campaigns stream segments through apply_segment, which has no packed
  // good machine, so the scalar one runs regardless; accepting the flag
  // keeps one command line valid across plain and campaign runs.
  copt.sharded.batch_width = batch;
  copt.sharded.rebalance = parse_rebalance(args);
  copt.sharded.csim.split_lists = engine == "csim-mv" || engine == "csim-v";
  copt.sharded.csim.max_elements = args.get_uint("max-elements", 0);
  copt.sharded.resil.max_retries = args.get_uint<unsigned>("retries", 0);
  copt.sharded.resil.deadline_ms =
      args.get_uint<std::uint32_t>("deadline-ms", 0);
  copt.sharded.resil.backoff_ms =
      args.get_uint<std::uint32_t>("backoff-ms", 1);
  copt.checkpoint_path = args.get("checkpoint");
  copt.checkpoint_every = args.get_uint("checkpoint-every", 0);
  copt.resume_path = args.get("resume");
  copt.halt_after = args.get_uint("halt-after", 0);
  copt.sleep_ms = args.get_uint<std::uint32_t>("sleep-ms", 0);

  // Telemetry rides along: fail fast on unwritable paths (the files
  // themselves are created lazily, after work has been done).
  const std::string trace_path = args.get("trace");
  obs::TraceEmitter trace;
  if (!trace_path.empty()) {
    obs::ensure_writable(trace_path, "trace");
    copt.trace = &trace;
  }
  const std::string timeline_path = args.get("timeline");
  obs::Timeline timeline(4096, args.get_uint("sample-every", 1));
  obs::ProgressMeter meter(tests.total_vectors());
  if (!timeline_path.empty()) {
    obs::ensure_writable(timeline_path, "timeline");
    timeline.stream_to(timeline_path);
    copt.timeline = &timeline;
  }
  if (args.has("progress")) {
    meter.attach(timeline);
    copt.timeline = &timeline;
  }

  // Sabotage hook for containment testing.  Only contained when --retries
  // is also given; without it an injected failure aborts the run, which is
  // the negative control.
  resil::FaultInjector injector;
  if (args.has("inject")) {
    for (const resil::InjectionSpec& spec :
         resil::FaultInjector::parse(args.get("inject"))) {
      injector.add(spec);
    }
    copt.sharded.resil.injector = &injector;
  }

  const FaultUniverse u = args.has("transition")
                              ? FaultUniverse::all_transition(c)
                              : FaultUniverse::all_stuck_at(c);
  Stopwatch sw;
  resil::CampaignResult r;
  std::string sim_name = engine;
  if (use_macros) {
    MacroExtraction ext = extract_macros(c);
    MacroFaultMap mmap = map_faults_to_macros(c, ext, u);
    resil::CampaignRunner runner(ext.circuit, u, tests, copt, &mmap);
    r = runner.run();
  } else {
    resil::CampaignRunner runner(c, u, tests, copt);
    r = runner.run();
  }
  meter.finish();

  std::printf("campaign %s on %s: %zu faults, %zu vectors in %zu "
              "sequences%s\n",
              sim_name.c_str(), c.name().c_str(), u.size(),
              tests.total_vectors(), tests.num_sequences(),
              copt.resume_path.empty() ? "" : " (resumed)");
  std::printf("coverage  %.2f%% (%zu/%zu hard, %zu potential)\n",
              r.coverage.pct(), r.coverage.hard, r.coverage.total,
              r.coverage.potential);
  std::printf("counters  hard=%llu potential=%llu dropped=%llu\n",
              static_cast<unsigned long long>(r.detections_hard),
              static_cast<unsigned long long>(r.detections_potential),
              static_cast<unsigned long long>(r.faults_dropped));
  std::printf("digest    %016llx\n",
              static_cast<unsigned long long>(r.digest()));
  std::printf("passes    %u, %llu vectors simulated, %llu checkpoints\n",
              r.passes, static_cast<unsigned long long>(r.vectors),
              static_cast<unsigned long long>(r.checkpoints_written));
  std::printf("resil     retries=%llu requeues=%llu peak=%zu elements\n",
              static_cast<unsigned long long>(r.shard_retries),
              static_cast<unsigned long long>(r.shard_requeues),
              r.peak_elements);
  if (r.rebalances > 0) {
    std::printf("rebal     rebalances=%llu faults=%llu elements=%llu\n",
                static_cast<unsigned long long>(r.rebalances),
                static_cast<unsigned long long>(r.faults_migrated),
                static_cast<unsigned long long>(r.elements_migrated));
  }
  std::printf("cpu       %.3fs\n", sw.seconds());
  if (r.halted) {
    std::printf("halted    after %llu vectors%s\n",
                static_cast<unsigned long long>(r.vectors),
                copt.checkpoint_path.empty() ? ""
                                             : " (checkpoint written)");
  }
  if (copt.trace != nullptr) {
    trace.save(trace_path);
    std::printf("trace     %s (%zu events, chrome://tracing)\n",
                trace_path.c_str(), trace.num_events());
  }
  if (!timeline_path.empty()) {
    std::printf("timeline  %s (%llu samples)\n", timeline_path.c_str(),
                static_cast<unsigned long long>(timeline.recorded()));
  }
  return 0;
}

int cmd_sim(const Args& args) {
  args.allow_only(
      {"engine", "tests", "random", "seed", "reset0", "transition",
       "verbose", "sample", "collapse", "threads", "batch", "trace",
       "stats-json", "timeline", "progress", "sample-every",
       "rebalance", "rebalance-threshold",
       "checkpoint", "checkpoint-every", "resume", "max-elements", "retries",
       "deadline-ms", "backoff-ms", "inject", "halt-after", "sleep-ms"});
  const Circuit c = load_circuit(args.positional().at(0));
  const std::string engine = args.get("engine", "csim-mv");
  const Val ff_init = args.has("reset0") ? Val::Zero : Val::X;
  const unsigned threads = args.get_uint<unsigned>("threads", 1);
  if (threads == 0) throw Error("--threads must be at least 1");

  // --batch=N picks the pattern-lane width of the packed good machine
  // (sim/batch_good_sim.h); "auto" means 64 for combinational circuits,
  // where every vector is independent, and 1 for sequential ones, where
  // lanes only pack across separate sequences.
  const std::string batch_spec = args.get("batch", "auto");
  unsigned batch = 1;
  if (batch_spec == "auto") {
    batch = c.dffs().empty() ? 64u : 1u;
  } else {
    const std::uint64_t n = args.get_uint("batch", 1);
    if (n == 0 || n > kMaxBatchLanes) {
      throw Error("--batch must be 1..256 (or auto)");
    }
    batch = static_cast<unsigned>(n);
  }

  TestSuite tests;
  if (args.has("tests")) {
    tests = TestSuite::load(args.get("tests"));
    if (tests.empty()) {
      throw Error("test file '" + args.get("tests") +
                  "' contains no vectors");
    }
    if (tests.num_inputs() != c.inputs().size()) {
      throw Error("test file width does not match the circuit's inputs");
    }
  } else {
    tests = TestSuite(PatternSet::random(c.inputs().size(),
                                         args.get_uint("random", 256),
                                         args.get_uint("seed", 1)));
  }

  const bool csim_engine = engine == "csim-mv" || engine == "csim-v" ||
                           engine == "csim-m" || engine == "csim";
  if (threads > 1 && !csim_engine) {
    throw Error("--threads supports the csim engines only");
  }
  if (args.has("batch") && !csim_engine) {
    throw Error("--batch supports the csim engines only");
  }
  if ((args.has("rebalance") || args.has("rebalance-threshold")) &&
      !csim_engine) {
    throw Error("--rebalance supports the csim engines only");
  }
  const RebalancePolicy rpol = parse_rebalance(args);

  const bool campaign_mode =
      args.has("checkpoint") || args.has("checkpoint-every") ||
      args.has("resume") || args.has("max-elements") || args.has("retries") ||
      args.has("deadline-ms") || args.has("backoff-ms") ||
      args.has("inject") || args.has("halt-after") || args.has("sleep-ms");
  if (campaign_mode) {
    if (!csim_engine) {
      throw Error("campaign flags support the csim engines only");
    }
    if (args.has("transition") && engine == "csim-m") {
      throw Error("--transition requires a csim engine");
    }
    return run_campaign(args, c, engine, ff_init, threads, batch, tests);
  }

  // Every csim run goes through the sharded driver, whose one shard at
  // --threads=1 is the plain engine, so --trace (one track per shard) and
  // --timeline/--progress (one sample per vector) are available for every
  // csim run.  Output paths are probed up front (obs::ensure_writable) so
  // a typo'd path fails before the simulation, not after it.
  const std::string trace_path = args.get("trace");
  if (!trace_path.empty() && !csim_engine) {
    throw Error("--trace supports the csim engines only");
  }
  if (!trace_path.empty()) obs::ensure_writable(trace_path, "trace");
  obs::TraceEmitter trace;
  obs::TraceEmitter* tr = trace_path.empty() ? nullptr : &trace;

  const std::string timeline_path = args.get("timeline");
  const bool progress = args.has("progress");
  const std::string stats_path = args.get("stats-json");
  if ((!timeline_path.empty() || progress) && !csim_engine) {
    throw Error("--timeline/--progress support the csim engines only");
  }
  if (!stats_path.empty()) obs::ensure_writable(stats_path, "stats");
  obs::Timeline timeline(4096, args.get_uint("sample-every", 1));
  obs::ProgressMeter meter(tests.total_vectors());
  obs::Timeline* tl = nullptr;
  if (!timeline_path.empty()) {
    obs::ensure_writable(timeline_path, "timeline");
    timeline.stream_to(timeline_path);
    tl = &timeline;
  }
  if (progress) {
    meter.attach(timeline);
    tl = &timeline;
  }
  // --stats-json fills its "timeline" block from the same sampler (csim
  // engines only; the baselines have no sharded driver to sample).
  if (!stats_path.empty() && csim_engine) tl = &timeline;

  RunResult r;
  if (args.has("transition")) {
    if (engine != "csim-mv" && engine != "csim-v" && engine != "csim") {
      throw Error("--transition requires a csim engine");
    }
    const FaultUniverse u = FaultUniverse::all_transition(c);
    r = run_csim_transition(c, u, tests, ff_init, engine != "csim", threads,
                            tr, batch, tl, rpol);
  } else if (args.has("sample")) {
    const FaultUniverse full = FaultUniverse::all_stuck_at(c);
    const SubUniverse sub = restrict_universe(
        full, sample_faults(full, args.get_uint("sample", 1000),
                            args.get_uint("seed", 1) + 1));
    r = run_csim(c, sub.universe, tests, CsimVariant::V, ff_init, true,
                 threads, tr, batch, tl, rpol);
    r.sim_name += " (sampled " + std::to_string(sub.universe.size()) + "/" +
                  std::to_string(full.size()) + ")";
  } else if (args.has("collapse")) {
    const FaultUniverse full = FaultUniverse::all_stuck_at(c);
    const auto rep = collapse_equivalent(c, full);
    const SubUniverse reps = representative_universe(full, rep);
    Stopwatch sw;
    ShardedOptions sopt;
    sopt.num_threads = threads;
    sopt.batch_width = batch;
    sopt.rebalance = rpol;
    ShardedSim sim(c, reps.universe, sopt);
    if (tr != nullptr) sim.set_trace(tr);
    if (tl != nullptr) sim.set_timeline(tl);
    sim.run(tests, ff_init);
    r.cpu_s = sw.seconds();
    r.threads = sim.num_shards();
    r.batch = batch;
    r.sim_name = "csim-V (collapsed " + std::to_string(reps.universe.size()) +
                 " classes)";
    r.mem_bytes = sim.bytes() + c.bytes();
    r.cov = summarize(expand_to_classes(sim.status(), reps, rep));
    r.stats = sim.stats();
    r.activity = r.stats.total.elements_evaluated;
  } else {
    const FaultUniverse u = FaultUniverse::all_stuck_at(c);
    const auto run_variant = [&](CsimVariant v) {
      return run_csim(c, u, tests, v, ff_init, true, threads, tr, batch, tl,
                      rpol);
    };
    if (engine == "csim-mv") {
      r = run_variant(CsimVariant::MV);
    } else if (engine == "csim-v") {
      r = run_variant(CsimVariant::V);
    } else if (engine == "csim-m") {
      r = run_variant(CsimVariant::M);
    } else if (engine == "csim") {
      r = run_variant(CsimVariant::Plain);
    } else if (engine == "proofs") {
      r = run_proofs(c, u, tests, ff_init);
    } else if (engine == "serial") {
      r = run_serial(c, u, tests, ff_init);
    } else if (engine == "deductive") {
      const Val init = ff_init == Val::X ? Val::Zero : ff_init;
      DeductiveSim sim(c, u, init);
      Stopwatch sw;
      for (const PatternSet& seq : tests.sequences()) {
        sim.reset(init);
        for (std::size_t i = 0; i < seq.size(); ++i) {
          sim.apply_vector(seq[i]);
        }
      }
      r.sim_name = "deductive";
      r.cpu_s = sw.seconds();
      r.mem_bytes = sim.bytes() + c.bytes();
      r.cov = sim.coverage();
    } else {
      throw Error("unknown engine '" + engine + "'");
    }
  }

  meter.finish();
  std::printf("%s on %s: %zu vectors in %zu sequences\n", r.sim_name.c_str(),
              c.name().c_str(), tests.total_vectors(),
              tests.num_sequences());
  std::printf("coverage  %.2f%% (%zu/%zu hard, %zu potential)\n", r.cov.pct(),
              r.cov.hard, r.cov.total, r.cov.potential);
  std::printf("cpu       %.3fs\n", r.cpu_s);
  std::printf("memory    %s\n", format_bytes(r.mem_bytes).c_str());
  if (r.threads > 1) {
    std::printf("threads   %u fault shards over one shared model\n",
                r.threads);
  }
  if (r.batch > 1) {
    std::printf("batch     %u pattern lanes per packed good-machine pass\n",
                r.batch);
  }
  if (r.stats.rebalances > 0) {
    std::printf("rebal     %llu repartitions, %llu faults (%llu elements) "
                "migrated\n",
                static_cast<unsigned long long>(r.stats.rebalances),
                static_cast<unsigned long long>(r.stats.faults_migrated),
                static_cast<unsigned long long>(r.stats.elements_migrated));
  }
  if (args.has("verbose")) {
    std::printf("activity  %llu element/word evaluations\n",
                static_cast<unsigned long long>(r.activity));
    if (!r.stats.per_engine.empty()) print_shard_stats(r);
  }
  if (tr != nullptr) {
    trace.save(trace_path);
    std::printf("trace     %s (%zu events, chrome://tracing)\n",
                trace_path.c_str(), trace.num_events());
  }
  if (!timeline_path.empty()) {
    timeline.flush();
    std::printf("timeline  %s (%llu samples)\n", timeline_path.c_str(),
                static_cast<unsigned long long>(timeline.recorded()));
  }
  if (!stats_path.empty()) {
    RunMetadata meta;
    meta.circuit = c.name();
    meta.engine = engine;
    meta.mode = args.has("transition") ? "transition" : "stuck-at";
    meta.threads = threads;
    meta.seed = args.get_uint("seed", 1);
    meta.vectors = tests.total_vectors();
    meta.sequences = tests.num_sequences();
    meta.ff_init = ff_init == Val::Zero ? "0" : "X";
    save_run_stats_json(stats_path, meta, r, tl);
    std::printf("stats     %s\n", stats_path.c_str());
  }
  return 0;
}

// Exit codes for `cfs connect`: structured service refusals map to
// distinct codes so scripts can branch without parsing stderr.
//   0 session done   1 error/failed   3 refused or shed   4 halted/draining
int connect_error_exit(const std::string& code, const std::string& message) {
  std::fprintf(stderr, "cfs connect: %s: %s\n", code.c_str(),
               message.c_str());
  if (code == "admission_refused" || code == "backpressure" ||
      code == "deadline_exceeded") {
    return 3;
  }
  if (code == "draining") return 4;
  return 1;
}

// `cfs connect <socket>` -- the cfsd client.  Default action: open (or
// reconnect to) a session, stream its updates, and print the final digest.
// With --status/--cancel/--stats/--shutdown, perform that single op.
int cmd_connect(const Args& args) {
  args.allow_only({"session", "circuit", "tests", "random", "seed", "mode",
                   "threads", "batch", "elements", "reset0", "wait-ms",
                   "quiet", "status", "cancel", "stats", "shutdown"});
  const std::string sock = args.positional().at(0);
  const bool quiet = args.has("quiet");
  svc::Client cli;
  cli.connect(sock);

  const auto one_op = [&](const std::string& payload) -> int {
    const svc::JsonValue resp = cli.call(payload);
    if (!resp.opt_bool("ok", false)) {
      return connect_error_exit(resp.opt_string("error", "internal"),
                                resp.opt_string("message", "?"));
    }
    std::printf("%s\n", resp.dump().c_str());
    return 0;
  };
  if (args.has("stats")) return one_op("{\"op\":\"stats\"}");
  if (args.has("shutdown")) return one_op("{\"op\":\"shutdown\"}");
  const std::string session = args.get("session");
  if (session.empty()) throw Error("--session=NAME is required");
  const std::string esc = svc::json_escape(session);
  if (args.has("status")) {
    return one_op("{\"op\":\"status\",\"session\":\"" + esc + "\"}");
  }
  if (args.has("cancel")) {
    return one_op("{\"op\":\"cancel\",\"session\":\"" + esc + "\"}");
  }

  // Open: ship the circuit and suite inline so the daemon is
  // self-contained (and can persist them for crash recovery).  Both
  // serializations are deterministic, so reconnecting after a daemon
  // restart reproduces the same spec fingerprint.
  const Circuit c = load_circuit(args.get("circuit", "s298"));
  const std::string circuit_text = write_bench(c);
  TestSuite tests;
  if (args.has("tests")) {
    tests = TestSuite::load(args.get("tests"));
  } else {
    tests = TestSuite(PatternSet::random(c.inputs().size(),
                                         args.get_uint("random", 256),
                                         args.get_uint("seed", 1)));
  }
  std::string req = "{\"op\":\"open\",\"session\":\"" + esc + "\"";
  req += ",\"circuit\":\"" + svc::json_escape(circuit_text) + "\"";
  req += ",\"tests\":\"" + svc::json_escape(tests.to_text()) + "\"";
  req += ",\"mode\":\"" + svc::json_escape(args.get("mode", "sa")) + "\"";
  req += ",\"threads\":" + std::to_string(args.get_uint("threads", 1));
  req += ",\"batch\":" + std::to_string(args.get_uint("batch", 1));
  if (args.has("elements")) {
    req += ",\"elements\":" + std::to_string(args.get_uint("elements", 0));
  }
  if (args.has("reset0")) req += ",\"reset0\":true";
  if (args.has("wait-ms")) {
    req += ",\"wait_ms\":" + std::to_string(args.get_uint("wait-ms", 0));
  }
  req += "}";
  svc::JsonValue resp = cli.call(req);
  if (!resp.opt_bool("ok", false)) {
    return connect_error_exit(resp.opt_string("error", "internal"),
                              resp.opt_string("message", "?"));
  }
  if (!quiet) {
    std::printf("session %s %s%s\n", session.c_str(),
                resp.opt_string("state", "?").c_str(),
                resp.opt_bool("resumed", false) ? " (resumed)" : "");
  }

  // Stream updates until the session leaves Running.  A slow terminal
  // never slows the campaign: the daemon's ring skips us ahead and
  // reports how much we missed.
  std::uint64_t after = 0;
  std::string state = resp.opt_string("state", "running");
  while (state == "running" || state == "queued") {
    resp = cli.call("{\"op\":\"watch\",\"session\":\"" + esc +
                    "\",\"after\":" + std::to_string(after) +
                    ",\"wait_ms\":1000}");
    if (!resp.opt_bool("ok", false)) {
      return connect_error_exit(resp.opt_string("error", "internal"),
                                resp.opt_string("message", "?"));
    }
    const std::uint64_t skipped = resp.opt_u64("skipped", 0);
    if (skipped != 0 && !quiet) {
      std::printf("  (skipped %llu updates)\n",
                  static_cast<unsigned long long>(skipped));
    }
    if (const svc::JsonValue* ups = resp.find("updates")) {
      for (const svc::JsonValue& u : ups->as_array()) {
        if (const svc::JsonValue* sample = u.find("update");
            sample != nullptr && !quiet) {
          if (const svc::JsonValue* sm = sample->find("sample")) {
            std::printf("  vec %llu  hard %llu  potential %llu\n",
                        static_cast<unsigned long long>(
                            sm->opt_u64("vec", 0)),
                        static_cast<unsigned long long>(
                            sm->opt_u64("hard", 0)),
                        static_cast<unsigned long long>(
                            sm->opt_u64("potential", 0)));
          }
        }
      }
    }
    after = resp.opt_u64("next", after);
    state = resp.opt_string("state", state);
  }

  resp = cli.call("{\"op\":\"status\",\"session\":\"" + esc + "\"}");
  if (!resp.opt_bool("ok", false)) {
    return connect_error_exit(resp.opt_string("error", "internal"),
                              resp.opt_string("message", "?"));
  }
  state = resp.opt_string("state", "?");
  if (state == "done") {
    std::printf("session %s done\n", session.c_str());
    std::printf("coverage  %llu/%llu hard, %llu potential\n",
                static_cast<unsigned long long>(resp.opt_u64("hard", 0)),
                static_cast<unsigned long long>(resp.opt_u64("total", 0)),
                static_cast<unsigned long long>(
                    resp.opt_u64("potential", 0)));
    std::printf("digest    %s\n", resp.opt_string("digest", "?").c_str());
    return 0;
  }
  if (state == "halted") {
    std::printf("session %s halted (resumable; reconnect to continue)\n",
                session.c_str());
    return 4;
  }
  std::fprintf(stderr, "cfs connect: session %s %s: %s\n", session.c_str(),
               state.c_str(), resp.opt_string("message", "?").c_str());
  return 1;
}

int usage() {
  std::fputs(
      "usage: cfs <command> <circuit> [options]\n"
      "commands:\n"
      "  stats    <circuit>                     circuit statistics\n"
      "  gen      <benchmark> [--out=F]         emit synthetic .bench\n"
      "  macro    <circuit> [--cap=N]           macro extraction report\n"
      "  collapse <circuit>                     fault collapsing report\n"
      "  tgen     <circuit> [--out=F] [--budget=N] [--seed=N] [--reset0]\n"
      "  compact  <circuit> --tests=F [--out=F2] [--reset0]\n"
      "  sim      <circuit> [--engine=E] [--tests=F|--random=N] [--seed=N]\n"
      "           [--reset0] [--transition] [--verbose] [--threads=N]\n"
      "           [--batch=N|auto] [--sample=N | --collapse] [--trace=F]\n"
      "           [--stats-json=F] [--timeline=F] [--progress]\n"
      "           [--sample-every=N]\n"
      "           [--rebalance=off|auto|N] [--rebalance-threshold=R]\n"
      "           campaign flags (resilient path):\n"
      "           [--checkpoint=F] [--checkpoint-every=N] [--resume=F]\n"
      "           [--max-elements=K] [--retries=N] [--deadline-ms=N]\n"
      "           [--backoff-ms=N] [--inject=SPEC] [--halt-after=N]\n"
      "           [--sleep-ms=N]\n"
      "  connect  <socket> --session=NAME       talk to a cfsd daemon\n"
      "           [--circuit=C] [--tests=F|--random=N] [--seed=N]\n"
      "           [--mode=sa|sa-macro|tr] [--threads=N] [--batch=N]\n"
      "           [--elements=N] [--reset0] [--wait-ms=N] [--quiet]\n"
      "           [--status | --cancel | --stats | --shutdown]\n"
      "engines: csim-mv csim-v csim-m csim proofs serial deductive\n"
      "<circuit>: a .bench path, or a built-in profile benchmark name\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (args.positional().empty()) return usage();
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "macro") return cmd_macro(args);
    if (cmd == "collapse") return cmd_collapse(args);
    if (cmd == "tgen") return cmd_tgen(args);
    if (cmd == "compact") return cmd_compact(args);
    if (cmd == "sim") return cmd_sim(args);
    if (cmd == "connect") return cmd_connect(args);
    return usage();
  } catch (const cfs::Error& e) {
    std::fprintf(stderr, "cfs: %s\n", e.what());
    return 1;
  }
}
