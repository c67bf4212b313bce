// Figure-style series: cumulative fault coverage and live fault-element
// population per vector, for one benchmark circuit.  The paper prints only
// tables; this bench exposes the dynamics behind its Table 5 remark that
// random-pattern memory stays low "because faults are rather slowly
// activated".
//
// Since PR 7 the series comes from the obs::Timeline sampler -- the same
// per-vector ring `cfs sim --timeline` streams -- instead of ad-hoc
// accessor polling, so the bench measures exactly what campaign telemetry
// reports.  With `--json=FILE` every sampled vector lands in FILE as one
// row (the printf table keeps the every-32nd summary).
#include <cstdio>
#include <string>

#include "common.h"
#include "faults/fault.h"
#include "gen/iscas_profiles.h"
#include "harness/runner.h"
#include "obs/timeline.h"
#include "patterns/pattern.h"

int main(int argc, char** argv) {
  using namespace cfs;
  bench::JsonReport json(argc, argv, "coverage_curve");
  std::string name = bench::largest();
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--", 0) != 0) name = argv[i];
  }
  const Circuit c = make_benchmark(name);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 512, 5);

  obs::Timeline timeline(p.size());
  const RunResult r = run_csim(c, u, TestSuite(p), CsimVariant::MV,
                               bench::kFfInit, /*drop_detected=*/true,
                               /*num_threads=*/1, /*trace=*/nullptr,
                               /*batch_width=*/1, &timeline);

  std::printf("coverage curve: %s, %zu faults, random patterns\n",
              name.c_str(), u.size());
  std::printf("%8s %10s %12s %12s %14s %16s\n", "vector", "cvg%",
              "live flts", "live elems", "gates proc.", "elem travs");
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const obs::TimelineSample& s = timeline.at(i);
    const double cvg = 100.0 * static_cast<double>(s.hard) /
                       static_cast<double>(u.size());
    if ((s.vec + 1) % 32 == 0 || s.vec + 1 == p.size()) {
      std::printf("%8llu %10.2f %12llu %12llu %14llu %16llu\n",
                  static_cast<unsigned long long>(s.vec + 1), cvg,
                  static_cast<unsigned long long>(s.live_faults),
                  static_cast<unsigned long long>(s.live_elements),
                  static_cast<unsigned long long>(s.gates),
                  static_cast<unsigned long long>(s.traversals));
    }
    json.begin_row();
    json.field("circuit", name);
    json.field("vec", s.vec);
    json.field("hard", s.hard);
    json.field("potential", s.potential);
    json.field("coverage_pct", cvg);
    json.field("dropped", s.dropped);
    json.field("live_faults", s.live_faults);
    json.field("live_elements", s.live_elements);
    json.field("gates", s.gates);
    json.field("traversals", s.traversals);
    json.end_row();
  }
  std::printf("final coverage %.2f%% (%zu/%zu hard, %zu potential)\n",
              r.cov.pct(), r.cov.hard, r.cov.total, r.cov.potential);
  return 0;
}
