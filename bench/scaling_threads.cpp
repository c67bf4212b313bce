// Thread-scaling study for the sharded driver: vectors/second against the
// shard count on the largest circuits of the active scale, random
// patterns, csim-MV engine.  Every sharded run is checked against the
// single-threaded engine (identical hard/potential coverage) -- the
// determinism guarantee is the oracle, not an afterthought.
//
// Speedup depends on the host: on a single-core machine the extra shards
// only add fork-join overhead and the expected ratio is <= 1.
#include <cstdio>
#include <thread>

#include "common.h"
#include "faults/fault.h"
#include "gen/iscas_profiles.h"
#include "harness/runner.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace cfs;
  bench::JsonReport json(argc, argv, "scaling_threads");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("Thread scaling: csim-MV sharded over random patterns "
              "(host reports %u hardware threads)\n\n", hw);

  // The two largest profiles of the active scale.
  std::vector<std::string> names = bench::suite();
  if (names.size() > 2) names.erase(names.begin(), names.end() - 2);

  Table t({"circuit", "#flts", "thr", "cpu", "vec/s", "speedup", "cvg%"});
  bool ok = true;
  for (const std::string& name : names) {
    const Circuit c = make_benchmark(name);
    const FaultUniverse u = FaultUniverse::all_stuck_at(c);
    const PatternSet p = PatternSet::random(c.inputs().size(), 256, 5);
    const RunResult ref =
        run_csim(c, u, p, CsimVariant::MV, bench::kFfInit);
    const double base = ref.cpu_s;
    for (unsigned k : {1u, 2u, 4u, 8u}) {
      const RunResult r = run_csim(c, u, TestSuite(p), CsimVariant::MV,
                                   bench::kFfInit, /*drop_detected=*/true, k);
      if (r.cov.hard != ref.cov.hard || r.cov.potential != ref.cov.potential) {
        std::printf("!! %s x%u disagrees with the single-threaded engine\n",
                    name.c_str(), k);
        ok = false;
      }
      t.row({k == 1 ? name : "", k == 1 ? fmt_count(u.size()) : "",
             fmt_count(k), fmt_fixed(r.cpu_s, 3),
             fmt_count(static_cast<std::size_t>(p.size() / r.cpu_s)),
             fmt_fixed(base / r.cpu_s, 2), fmt_fixed(r.cov.pct(), 2)});
      json.begin_row();
      json.field("circuit", name);
      json.field("faults", static_cast<std::uint64_t>(u.size()));
      json.field("threads", std::uint64_t{k});
      json.field("shards", std::uint64_t{r.threads});
      json.field("cpu_s", r.cpu_s);
      json.field("vectors_per_s", static_cast<double>(p.size()) / r.cpu_s);
      json.field("speedup", base / r.cpu_s);
      json.field("coverage_pct", r.cov.pct());
      json.field("hard", static_cast<std::uint64_t>(r.cov.hard));
      json.field("elements_evaluated", r.stats.total.elements_evaluated);
      json.field("faults_dropped", r.stats.total.faults_dropped);
      json.end_row();
    }
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("speedup is vs. the single-threaded csim-MV engine; "
              "all rows verified bit-identical coverage\n");
  return ok ? 0 : 1;
}
