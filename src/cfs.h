// cfs — concurrent fault simulation for synchronous sequential circuits.
//
// Umbrella header for library users: pulls in the whole public API.
// Typical flow:
//
//   #include "cfs.h"
//   using namespace cfs;
//
//   Circuit c = parse_bench_file("design.bench");      // or Builder / gen
//   FaultUniverse faults = FaultUniverse::all_stuck_at(c);
//   TgenResult tests = generate_tests(c, faults);      // or PatternSet I/O
//
//   ConcurrentSim sim(c, faults);                      // csim-V
//   for (const PatternSet& seq : tests.suite.sequences()) {
//     sim.reset();
//     for (std::size_t i = 0; i < seq.size(); ++i) sim.apply_vector(seq[i]);
//   }
//   Coverage cov = sim.coverage();
//
// See README.md for macro mode (csim-M/MV), transition faults, baselines,
// dictionaries, and the arbitrary-delay engine.
#pragma once

// Netlist core.
#include "netlist/bench_parser.h"
#include "netlist/bench_writer.h"
#include "netlist/builder.h"
#include "netlist/circuit.h"
#include "netlist/hierarchy.h"
#include "netlist/macro_extract.h"

// Circuit sources.
#include "gen/circuit_gen.h"
#include "gen/iscas_profiles.h"
#include "gen/known_circuits.h"

// Fault model.
#include "faults/fault.h"
#include "faults/macro_map.h"
#include "faults/partition.h"
#include "faults/sampling.h"
#include "faults/transition_model.h"

// Good-machine simulators.
#include "sim/batch_good_sim.h"
#include "sim/delay_sim.h"
#include "sim/good_sim.h"
#include "sim/vcd.h"

// The concurrent fault simulators and dictionaries.
#include "core/concurrent_sim.h"
#include "core/delay_concurrent.h"
#include "core/dictionary.h"
#include "core/sim_model.h"

// Sharded multi-threaded driver.
#include "sim/sharded_sim.h"

// Baselines.
#include "baseline/deductive_sim.h"
#include "baseline/proofs_sim.h"
#include "baseline/serial_sim.h"

// Tests and patterns.
#include "patterns/compaction.h"
#include "patterns/pattern.h"
#include "patterns/tgen.h"

// Experiment harness.
#include "harness/runner.h"
#include "harness/table.h"
