#include "harness/runner.h"

#include "baseline/proofs_sim.h"
#include "baseline/serial_sim.h"
#include "netlist/macro_extract.h"
#include "obs/timers.h"

namespace cfs {

std::string variant_name(CsimVariant v) {
  switch (v) {
    case CsimVariant::Plain: return "csim";
    case CsimVariant::V: return "csim-V";
    case CsimVariant::M: return "csim-M";
    case CsimVariant::MV: return "csim-MV";
  }
  return "?";
}

namespace {

// Run the suite through `sim` and read the result off the merged status
// and the shard statistics.  The whole suite runs inside the Run phase of
// the result's timers, the same accumulator the telemetry export reads, so
// the tables' CPU column and the stats JSON cannot disagree.
RunResult run_sharded(ShardedSim& sim, const TestSuite& t, Val ff_init,
                      const std::string& name, std::size_t circuit_bytes,
                      obs::TraceEmitter* trace, unsigned batch_width,
                      obs::Timeline* timeline) {
  RunResult r;
  if (trace != nullptr) sim.set_trace(trace);
  if (timeline != nullptr) sim.set_timeline(timeline);
  {
    obs::ScopedPhase sp(r.run_timers, obs::Phase::Run);
    sim.run(t, ff_init);
  }
  r.cpu_s = r.run_timers.seconds(obs::Phase::Run);
  r.threads = sim.num_shards();
  r.batch = batch_width;
  r.sim_name = r.threads > 1 ? name + " x" + std::to_string(r.threads) : name;
  r.mem_bytes = sim.bytes() + circuit_bytes;
  r.cov = sim.coverage();
  r.stats = sim.stats();
  r.activity = r.stats.total.elements_evaluated;
  return r;
}

}  // namespace

RunResult run_csim(const Circuit& c, const FaultUniverse& u,
                   const TestSuite& t, CsimVariant variant, Val ff_init,
                   bool drop_detected, unsigned num_threads,
                   obs::TraceEmitter* trace, unsigned batch_width,
                   obs::Timeline* timeline, const RebalancePolicy& rebalance) {
  ShardedOptions sopt;
  sopt.num_threads = num_threads;
  sopt.batch_width = batch_width;
  sopt.rebalance = rebalance;
  sopt.csim.split_lists =
      variant == CsimVariant::V || variant == CsimVariant::MV;
  sopt.csim.drop_detected = drop_detected;
  const std::string name = variant_name(variant);
  if (variant == CsimVariant::M || variant == CsimVariant::MV) {
    MacroExtraction ext = extract_macros(c);
    MacroFaultMap mmap = map_faults_to_macros(c, ext, u);
    ShardedSim sim(ext.circuit, u, sopt, &mmap);
    return run_sharded(sim, t, ff_init, name, ext.circuit.bytes(), trace,
                       batch_width, timeline);
  }
  ShardedSim sim(c, u, sopt);
  return run_sharded(sim, t, ff_init, name, c.bytes(), trace, batch_width,
                     timeline);
}

RunResult run_proofs(const Circuit& c, const FaultUniverse& u,
                     const TestSuite& t, Val ff_init) {
  RunResult r;
  r.sim_name = "PROOFS";
  ProofsSim sim(c, u, ff_init);
  {
    obs::ScopedPhase sp(r.run_timers, obs::Phase::Run);
    for (const PatternSet& seq : t.sequences()) {
      sim.reset(ff_init);
      for (std::size_t i = 0; i < seq.size(); ++i) sim.apply_vector(seq[i]);
    }
  }
  r.cpu_s = r.run_timers.seconds(obs::Phase::Run);
  r.mem_bytes = sim.bytes() + c.bytes();
  r.cov = sim.coverage();
  r.activity = sim.word_evals();
  return r;
}

RunResult run_serial(const Circuit& c, const FaultUniverse& u,
                     const TestSuite& t, Val ff_init) {
  RunResult r;
  r.sim_name = "serial";
  SerialOptions opt;
  opt.ff_init = ff_init;
  SerialResult sr;
  {
    obs::ScopedPhase sp(r.run_timers, obs::Phase::Run);
    sr = serial_fault_sim(c, u, t, opt);
  }
  r.cpu_s = r.run_timers.seconds(obs::Phase::Run);
  r.mem_bytes = c.bytes();
  r.cov = summarize(sr.status);
  r.activity = sr.events;
  return r;
}

RunResult run_csim_transition(const Circuit& c, const FaultUniverse& u,
                              const TestSuite& t, Val ff_init,
                              bool split_lists, unsigned num_threads,
                              obs::TraceEmitter* trace, unsigned batch_width,
                              obs::Timeline* timeline,
                              const RebalancePolicy& rebalance) {
  ShardedOptions sopt;
  sopt.num_threads = num_threads;
  sopt.batch_width = batch_width;
  sopt.rebalance = rebalance;
  sopt.csim.split_lists = split_lists;
  ShardedSim sim(c, u, sopt);
  return run_sharded(sim, t, ff_init,
                     split_lists ? "csim-V (transition)" : "csim (transition)",
                     c.bytes(), trace, batch_width, timeline);
}

}  // namespace cfs
