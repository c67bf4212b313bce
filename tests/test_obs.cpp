// Observability subsystem: counter registry arithmetic, phase-timer
// accumulation, Chrome-trace and stats-JSON well-formedness (parsed back
// with the service's JSON reader), and shard-count invariance of the
// deterministic counter block.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "gen/known_circuits.h"
#include "harness/runner.h"
#include "harness/stats_export.h"
#include "obs/counters.h"
#include "obs/json_stats.h"
#include "obs/timers.h"
#include "obs/trace.h"
#include "patterns/pattern.h"
#include "svc/wire.h"
#include "util/stopwatch.h"

namespace cfs {
namespace {

using svc::json_parse;
using svc::JsonObject;
using svc::JsonValue;

// ---------------------------------------------------------------------------
// Counter registry
// ---------------------------------------------------------------------------

TEST(Counters, BumpMergeResetTotal) {
  obs::Counters a;
  EXPECT_EQ(a.total(), 0u);
  a.bump(obs::Counter::ElementsTraversed);
  a.bump(obs::Counter::ElementsTraversed, 9);
  a.bump(obs::Counter::DetectionsHard, 3);
  EXPECT_EQ(a.get(obs::Counter::ElementsTraversed), 10u);
  EXPECT_EQ(a.get(obs::Counter::DetectionsHard), 3u);
  EXPECT_EQ(a.total(), 13u);

  obs::Counters b;
  b.bump(obs::Counter::ElementsTraversed, 5);
  b.bump(obs::Counter::FaultsDropped, 2);
  b.merge(a);
  EXPECT_EQ(b.get(obs::Counter::ElementsTraversed), 15u);
  EXPECT_EQ(b.get(obs::Counter::DetectionsHard), 3u);
  EXPECT_EQ(b.get(obs::Counter::FaultsDropped), 2u);
  EXPECT_EQ(b.total(), 20u);

  b.reset();
  EXPECT_EQ(b.total(), 0u);
  EXPECT_EQ(b, obs::Counters{});
}

TEST(Counters, NamesAreUniqueAndNonEmpty) {
  std::map<std::string, int> seen;
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    const auto name =
        std::string(obs::counter_name(static_cast<obs::Counter>(i)));
    EXPECT_FALSE(name.empty()) << "counter " << i;
    ++seen[name];
  }
  for (const auto& [name, n] : seen) EXPECT_EQ(n, 1) << name;
}

TEST(Counters, ShardInvariantSubset) {
  // Exactly the fault-level counters are shard-invariant: one increment
  // per fault-status transition, each fault owned by exactly one shard.
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    const auto c = static_cast<obs::Counter>(i);
    const bool expect_invariant = c == obs::Counter::DetectionsHard ||
                                  c == obs::Counter::DetectionsPotential ||
                                  c == obs::Counter::FaultsDropped;
    EXPECT_EQ(obs::counter_shard_invariant(c), expect_invariant)
        << obs::counter_name(c);
  }
}

// ---------------------------------------------------------------------------
// Phase timers + Stopwatch::lap
// ---------------------------------------------------------------------------

TEST(PhaseTimers, AccumulationIsMonotonic) {
  obs::PhaseTimers t;
  std::uint64_t prev = 0;
  for (int i = 0; i < 50; ++i) {
    {
      obs::ScopedPhase sp(t, obs::Phase::GoodEval);
      volatile int sink = 0;
      for (int j = 0; j < 100; ++j) sink = sink + j;
    }
    const std::uint64_t now = t.nanos(obs::Phase::GoodEval);
    EXPECT_GE(now, prev) << "iteration " << i;
    prev = now;
    EXPECT_EQ(t.count(obs::Phase::GoodEval),
              static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(t.total_phase_nanos(), t.nanos(obs::Phase::GoodEval));
  EXPECT_DOUBLE_EQ(t.seconds(obs::Phase::GoodEval),
                   static_cast<double>(prev) * 1e-9);
}

TEST(PhaseTimers, MergeAndMinus) {
  obs::PhaseTimers a;
  a.add(obs::Phase::FaultProp, 100);
  a.add(obs::Phase::Clocking, 40);
  obs::PhaseTimers b;
  b.add(obs::Phase::FaultProp, 7);
  b.merge(a);
  EXPECT_EQ(b.nanos(obs::Phase::FaultProp), 107u);
  EXPECT_EQ(b.count(obs::Phase::FaultProp), 2u);
  EXPECT_EQ(b.nanos(obs::Phase::Clocking), 40u);

  const obs::PhaseTimers delta = b.minus(a);
  EXPECT_EQ(delta.nanos(obs::Phase::FaultProp), 7u);
  EXPECT_EQ(delta.count(obs::Phase::FaultProp), 1u);
  EXPECT_EQ(delta.nanos(obs::Phase::Clocking), 0u);

  b.reset();
  EXPECT_EQ(b, obs::PhaseTimers{});
}

TEST(PhaseTimers, PhaseNamesAreUnique) {
  std::map<std::string, int> seen;
  for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
    ++seen[std::string(obs::phase_name(static_cast<obs::Phase>(i)))];
  }
  EXPECT_EQ(seen.size(), obs::kNumPhases);
}

TEST(Stopwatch, LapResetsTheOrigin) {
  Stopwatch sw;
  volatile int sink = 0;
  for (int j = 0; j < 10000; ++j) sink = sink + j;
  const double lap1 = sw.lap();
  EXPECT_GE(lap1, 0.0);
  // After lap() the origin restarts: an immediate reading cannot include
  // the work burned before the lap.
  const double after = sw.seconds();
  EXPECT_GE(after, 0.0);
  const double lap2 = sw.lap();
  EXPECT_GE(lap2, after);
  EXPECT_GE(sw.seconds(), 0.0);
}

// ---------------------------------------------------------------------------
// Chrome trace emitter
// ---------------------------------------------------------------------------

TEST(TraceEmitter, OutputIsValidChromeTraceJson) {
  obs::TraceEmitter tr;
  tr.name_track(0, "shard 0");
  tr.name_track(1, "driver \"quoted\"\n");
  tr.complete(0, "vector", 10, 25);
  tr.instant(0, "detect x3", 35);
  tr.complete(1, "merge", 40, 2);
  EXPECT_EQ(tr.num_events(), 5u);

  std::ostringstream os;
  tr.write(os);
  const JsonValue doc = json_parse(os.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.req_string("displayTimeUnit"), "ms");
  const svc::JsonArray& ev = doc.find("traceEvents")->as_array();
  ASSERT_EQ(ev.size(), 5u);

  std::size_t meta = 0, complete = 0, instant = 0;
  for (const JsonValue& e : ev) {
    ASSERT_TRUE(e.is_object());
    EXPECT_EQ(e.find("pid")->as_number(), 1.0);
    const std::string& ph = e.req_string("ph");
    if (ph == "M") {
      ++meta;
      EXPECT_EQ(e.req_string("name"), "thread_name");
      EXPECT_TRUE(e.find("args")->is_object());
    } else if (ph == "X") {
      ++complete;
      EXPECT_TRUE(e.find("ts") != nullptr);
      EXPECT_TRUE(e.find("dur") != nullptr);
    } else if (ph == "i") {
      ++instant;
      EXPECT_EQ(e.req_string("s"), "t");
    } else {
      FAIL() << "unexpected phase " << ph;
    }
  }
  EXPECT_EQ(meta, 2u);
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(instant, 1u);

  // The escaped track name survives the round trip.
  bool found = false;
  for (const JsonValue& e : ev) {
    if (e.req_string("ph") == "M" &&
        e.find("args")->req_string("name") == "driver \"quoted\"\n") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceEmitter, NowIsMonotonic) {
  obs::TraceEmitter tr;
  std::uint64_t prev = tr.now_us();
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t now = tr.now_us();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriter, EscapingAndNesting) {
  std::ostringstream os;
  {
    obs::JsonWriter w(os);
    w.begin_object();
    w.field("s", std::string_view("a\"b\\c\nd\x01"));
    w.field("i", std::uint64_t{18446744073709551615ull});
    w.field("neg", std::int64_t{-5});
    w.field("d", 1.5);
    w.field("nan", std::nan(""));
    w.field("t", true);
    w.key("arr");
    w.begin_array();
    w.value(std::uint64_t{1});
    w.begin_object();
    w.field("k", std::uint64_t{2});
    w.end_object();
    w.end_array();
    w.end_object();
  }
  const JsonValue doc = json_parse(os.str());
  EXPECT_EQ(doc.req_string("s"), "a\"b\\c\nd\x01");
  EXPECT_EQ(doc.find("i")->as_number(), 18446744073709551615.0);
  EXPECT_EQ(doc.find("neg")->as_number(), -5.0);
  EXPECT_EQ(doc.find("d")->as_number(), 1.5);
  EXPECT_TRUE(doc.find("nan")->is_null());
  EXPECT_EQ(doc.find("t")->as_bool(), true);
  ASSERT_TRUE(doc.find("arr")->is_array());
  EXPECT_EQ(doc.find("arr")->as_array().at(0).as_number(), 1.0);
  EXPECT_EQ(doc.find("arr")->as_array().at(1).find("k")->as_number(), 2.0);
}

// ---------------------------------------------------------------------------
// Stats-JSON round trip + shard invariance
// ---------------------------------------------------------------------------

RunResult run_counter(unsigned threads) {
  const Circuit c = make_counter(6);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t(PatternSet::random(c.inputs().size(), 48, 11));
  return run_csim(c, u, t, CsimVariant::MV, Val::Zero, true, threads);
}

TEST(StatsJson, RoundTripMatchesRun) {
  const RunResult r = run_counter(2);
  RunMetadata meta;
  meta.circuit = "counter6";
  meta.engine = "csim-mv";
  meta.threads = 2;
  meta.seed = 11;
  meta.vectors = 48;
  meta.sequences = 1;
  meta.ff_init = "0";

  std::ostringstream os;
  write_run_stats_json(os, meta, r);
  const JsonValue doc = json_parse(os.str());

  EXPECT_EQ(doc.find("schema_version")->as_number(), 1.0);
  const JsonValue& m = *doc.find("meta");
  EXPECT_EQ(m.req_string("circuit"), "counter6");
  EXPECT_EQ(m.find("threads")->as_number(), 2.0);
  EXPECT_EQ(m.req_string("ff_init"), "0");
  EXPECT_EQ(doc.find("coverage")->find("hard")->as_number(),
            static_cast<double>(r.cov.hard));
  EXPECT_EQ(doc.find("coverage")->find("total")->as_number(),
            static_cast<double>(r.cov.total));
  // Doubles are emitted at %.9g: compare to relative precision.
  EXPECT_NEAR(doc.find("cpu_s")->as_number(), r.cpu_s,
              1e-8 * (1.0 + r.cpu_s));
  ASSERT_TRUE(doc.find("engines")->is_array());
  const svc::JsonArray& engines = doc.find("engines")->as_array();
  ASSERT_EQ(engines.size(), r.stats.per_engine.size());

  // Per-engine counters sum to the totals block, field by field.
  const JsonObject& tot = doc.find("totals")->find("counters")->as_object();
  for (const auto& [name, val] : tot) {
    double sum = 0;
    for (const JsonValue& e : engines) {
      sum += e.find("counters")->find(name)->as_number();
    }
    EXPECT_EQ(sum, val.as_number()) << name;
  }

  // The deterministic block repeats the shard-invariant counters.
  const JsonObject& det = doc.find("deterministic")->as_object();
  for (const auto& [name, val] : det) {
    EXPECT_EQ(val.as_number(), tot.at(name).as_number()) << name;
  }

#if CFS_OBS_ENABLED
  EXPECT_EQ(det.at("detections_hard").as_number(),
            static_cast<double>(r.cov.hard));
  EXPECT_EQ(doc.find("totals")->find("vectors_simulated")->as_number(),
            static_cast<double>(48 * r.stats.per_engine.size()));
#endif
}

TEST(StatsJson, DeterministicCountersShardInvariant) {
  const RunResult r1 = run_counter(1);
  const RunResult r2 = run_counter(2);
  const RunResult r4 = run_counter(4);
  // Coverage is bit-identical by the sharding contract...
  EXPECT_EQ(r1.cov.hard, r2.cov.hard);
  EXPECT_EQ(r1.cov.hard, r4.cov.hard);
  // ...and so is every shard-invariant counter sum.
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    const auto c = static_cast<obs::Counter>(i);
    if (!obs::counter_shard_invariant(c)) continue;
    EXPECT_EQ(r1.stats.total.counters.get(c), r2.stats.total.counters.get(c))
        << obs::counter_name(c);
    EXPECT_EQ(r1.stats.total.counters.get(c), r4.stats.total.counters.get(c))
        << obs::counter_name(c);
  }
#if CFS_OBS_ENABLED
  EXPECT_EQ(r1.stats.total.counters.get(obs::Counter::DetectionsHard),
            static_cast<std::uint64_t>(r1.cov.hard));
  // The engines really were instrumented: traversal work is nonzero.
  EXPECT_GT(r1.stats.total.counters.get(obs::Counter::ElementsTraversed), 0u);
  EXPECT_GT(r1.stats.total.counters.get(obs::Counter::ElementsAllocated), 0u);
#endif
}

TEST(StatsJson, HarnessTimersMatchReportedCpu) {
  const RunResult r = run_counter(2);
  // cpu_s is defined as the Run phase of the harness envelope, so the
  // table column and the telemetry export can never disagree.
  EXPECT_DOUBLE_EQ(r.cpu_s, r.run_timers.seconds(obs::Phase::Run));
  EXPECT_EQ(r.run_timers.count(obs::Phase::Run), 1u);
}

}  // namespace
}  // namespace cfs
