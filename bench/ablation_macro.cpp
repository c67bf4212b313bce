// Ablation A: macro extraction.  Sweeps the macro input cap and reports
// gate-count compression, simulation time, memory, and fault-element
// activity against the no-macro baseline (DESIGN.md calls this out as the
// paper's headline memory effect: Figure 3 / the s35932 16.2M -> 9.24M
// observation).
#include <cstdio>

#include "common.h"
#include "faults/fault.h"
#include "faults/macro_map.h"
#include "gen/iscas_profiles.h"
#include "harness/runner.h"
#include "harness/table.h"
#include "netlist/macro_extract.h"
#include "util/stopwatch.h"

int main() {
  using namespace cfs;
  std::printf("Ablation A: macro extraction (input-cap sweep)\n\n");
  Table t({"ckt", "cap", "#gates", "#macros", "#func flts", "cpu",
           "mem(MiB)"});
  for (const std::string& name : bench::suite()) {
    const Circuit c = make_benchmark(name);
    const FaultUniverse u = FaultUniverse::all_stuck_at(c);
    const TestSuite p = bench::deterministic_tests(c, u, 512, 1000);

    // Baseline: no macros.
    {
      const RunResult r = run_csim(c, u, p, CsimVariant::V, bench::kFfInit);
      t.row({name, "-", fmt_count(c.num_gates()), "0", "0",
             fmt_fixed(r.cpu_s, 3), bench::fmt_meg(r.mem_bytes)});
    }
    for (unsigned cap : {2u, 4u, 6u}) {
      MacroOptions mo;
      mo.max_inputs = cap;
      const MacroExtraction ext = extract_macros(c, mo);
      const MacroFaultMap mm = map_faults_to_macros(c, ext, u);
      ConcurrentSim sim(ext.circuit, u, CsimOptions{}, &mm);
      Stopwatch sw;
      for (const PatternSet& seq : p.sequences()) {
        sim.reset(bench::kFfInit);
        for (std::size_t i = 0; i < seq.size(); ++i) sim.apply_vector(seq[i]);
      }
      t.row({name, fmt_count(cap), fmt_count(ext.circuit.num_gates()),
             fmt_count(ext.macros.size()), fmt_count(mm.num_functional),
             fmt_fixed(sw.seconds(), 3),
             bench::fmt_meg(sim.bytes() + ext.circuit.bytes())});
    }
  }
  std::printf("%s\n", t.str().c_str());
  return 0;
}
