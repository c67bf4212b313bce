// LevelQueue ordering contract: drain_levels() must emit exactly the
// per-gate order of drain() -- ascending (level, gate id) -- as one batch
// per dirty level, across word boundaries of a wide level and across
// summary words of a deep circuit; plus the host ISA naming the benchmark
// reports record.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "netlist/builder.h"
#include "sim/level_queue.h"
#include "simd/simd.h"

namespace cfs {
namespace {

constexpr unsigned kWide = 200;   // level-1 gates: four bitmap words
constexpr unsigned kDepth = 80;   // chain above the wide level

// One input fanning out to kWide buffers (level 1), and a buffer chain on
// top of the first of them reaching level kDepth + 1, so the level summary
// spans two words.
Circuit wide_and_deep() {
  Builder b("wide_deep");
  b.add_input("a");
  for (unsigned i = 0; i < kWide; ++i) {
    b.add_gate(GateKind::Buf, "w" + std::to_string(i), {"a"});
  }
  std::string prev = "w0";
  for (unsigned i = 1; i <= kDepth; ++i) {
    const std::string name = "c" + std::to_string(i);
    b.add_gate(GateKind::Buf, name, {prev});
    prev = name;
  }
  b.mark_output(prev);
  return b.build();
}

// Combinational gates in the queue's position order: (level, id).
std::vector<GateId> by_level_and_id(const Circuit& c) {
  std::vector<GateId> out;
  for (GateId g = 0; g < c.num_gates(); ++g) {
    if (c.level(g) > 0) out.push_back(g);
  }
  std::sort(out.begin(), out.end(), [&](GateId x, GateId y) {
    return std::pair(c.level(x), x) < std::pair(c.level(y), y);
  });
  return out;
}

std::vector<GateId> level_gates(const Circuit& c, unsigned lvl) {
  std::vector<GateId> out;
  for (const GateId g : by_level_and_id(c)) {
    if (c.level(g) == lvl) out.push_back(g);
  }
  return out;
}

struct Family {
  std::string name;
  std::vector<GateId> gates;
};

// Gate-word families: which bits of the wide level's four words are set.
std::vector<Family> gate_word_families(const Circuit& c) {
  const std::vector<GateId> all = by_level_and_id(c);
  const std::vector<GateId> wide = level_gates(c, 1);
  std::vector<Family> f;
  f.push_back({"nothing", {}});
  for (const std::size_t p : {0u, 63u, 64u, 127u}) {
    f.push_back({"wide position " + std::to_string(p), {wide.at(p)}});
  }
  f.push_back({"wide positions 0/63/64/127",
               {wide[0], wide[63], wide[64], wide[127]}});
  f.push_back({"every gate", all});
  Family alt{"alternating", {}};
  for (std::size_t i = 0; i < all.size(); i += 2) alt.gates.push_back(all[i]);
  f.push_back(alt);
  return f;
}

// Level-summary families: which bits of the two dirty-level words are set,
// one gate per dirty level.
std::vector<Family> level_word_families(const Circuit& c) {
  const unsigned deepest = c.num_levels() - 1;
  const auto first = [&](unsigned lvl) { return level_gates(c, lvl).at(0); };
  std::vector<Family> f;
  f.push_back({"nothing", {}});
  for (const unsigned lvl : {1u, 63u, 64u, deepest}) {
    f.push_back({"level " + std::to_string(lvl), {first(lvl)}});
  }
  f.push_back({"levels 1/63/64/deepest",
               {first(deepest), first(64), first(63), first(1)}});
  Family every{"every level", {}};
  Family alt{"alternating levels", {}};
  for (unsigned lvl = 1; lvl <= deepest; ++lvl) {
    every.gates.push_back(first(lvl));
    if (lvl % 2 == 1) alt.gates.push_back(first(lvl));
  }
  f.push_back(every);
  f.push_back(alt);
  f.push_back({"levels 2 and 70", {first(70), first(2)}});
  return f;
}

// drain() yields `gates` ascending by (level, id); drain_levels() yields the
// same sequence as one batch per dirty level.
void expect_batches_match_drain(const Circuit& c,
                                const std::vector<GateId>& gates) {
  std::vector<GateId> want(gates);
  std::sort(want.begin(), want.end(), [&](GateId x, GateId y) {
    return std::pair(c.level(x), x) < std::pair(c.level(y), y);
  });

  LevelQueue per_gate(c);
  for (const GateId g : gates) per_gate.schedule(g);
  std::vector<GateId> drained;
  per_gate.drain([&](GateId g) { drained.push_back(g); });
  EXPECT_EQ(drained, want);
  EXPECT_TRUE(per_gate.empty());

  LevelQueue batched(c);
  for (const GateId g : gates) batched.schedule(g);
  std::vector<GateId> concat;
  std::set<unsigned> levels_seen;
  batched.drain_levels([&](const GateId* batch, std::size_t n) {
    ASSERT_GT(n, 0u);
    const unsigned lvl = c.level(batch[0]);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(c.level(batch[i]), lvl);
    }
    EXPECT_TRUE(levels_seen.insert(lvl).second) << "level " << lvl;
    concat.insert(concat.end(), batch, batch + n);
  });
  EXPECT_EQ(concat, drained);
  EXPECT_TRUE(batched.empty());
  EXPECT_EQ(batched.processed(), per_gate.processed());
}

TEST(LevelQueueDrain, LevelBatchesMatchDrainOrderOnAllMaskFamilies) {
  const Circuit c = wide_and_deep();
  ASSERT_EQ(level_gates(c, 1).size(), kWide);
  for (const Family& fam : gate_word_families(c)) {
    SCOPED_TRACE(fam.name);
    expect_batches_match_drain(c, fam.gates);
  }
}

TEST(LevelQueueDrain, DirtyLevelScanMatchesDrainOrderOnAllLevelFamilies) {
  const Circuit c = wide_and_deep();
  ASSERT_EQ(c.num_levels(), kDepth + 2);
  ASSERT_GT(c.num_levels(), 65u);
  for (const Family& fam : level_word_families(c)) {
    SCOPED_TRACE(fam.name);
    expect_batches_match_drain(c, fam.gates);
  }
}

TEST(LevelQueueDrain, SameLevelRescheduleArrivesInALaterBatch) {
  const Circuit c = wide_and_deep();
  const std::vector<GateId> wide = level_gates(c, 1);
  const GateId above = level_gates(c, 2).at(0);
  LevelQueue q(c);
  q.schedule(wide[100]);
  q.schedule(wide[5]);
  std::vector<std::vector<GateId>> batches;
  q.drain_levels([&](const GateId* gates, std::size_t n) {
    batches.emplace_back(gates, gates + n);
    if (batches.size() == 1) {
      // The level's words are already cleared: both the lower-id gate and
      // a gate of the batch itself re-arm the level for a fresh batch.
      q.schedule(above);
      q.schedule(wide[3]);
      q.schedule(wide[100]);
    }
  });
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0], (std::vector<GateId>{wide[5], wide[100]}));
  EXPECT_EQ(batches[1], (std::vector<GateId>{wide[3], wide[100]}));
  EXPECT_EQ(batches[2], (std::vector<GateId>{above}));
  EXPECT_EQ(q.processed(), 5u);
}

TEST(HostIsa, NamesAreCanonicalAndDetectionPicksOne) {
  using simd::Isa;
  EXPECT_EQ(simd::isa_name(Isa::Scalar), "scalar");
  EXPECT_EQ(simd::isa_name(Isa::Sse42), "sse4.2");
  EXPECT_EQ(simd::isa_name(Isa::Avx2), "avx2");
  EXPECT_EQ(simd::isa_name(Isa::Neon), "neon");
  const Isa host = simd::detect_isa();
  EXPECT_TRUE(host == Isa::Scalar || host == Isa::Sse42 ||
              host == Isa::Avx2 || host == Isa::Neon);
  EXPECT_EQ(simd::detect_isa(), host);
}

}  // namespace
}  // namespace cfs
