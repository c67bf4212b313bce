// Argument parser of the cfs command-line tool.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "args.h"
#include "util/error.h"

namespace cfs::cli {
namespace {

Args make(std::vector<std::string> argv) {
  static std::vector<std::string> storage;
  storage = std::move(argv);
  static std::vector<char*> ptrs;
  ptrs.clear();
  for (auto& s : storage) ptrs.push_back(s.data());
  return Args(static_cast<int>(ptrs.size()), ptrs.data(), 0);
}

TEST(CliArgs, PositionalAndOptions) {
  const Args a = make({"s298", "--engine=proofs", "--verbose", "extra"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "s298");
  EXPECT_EQ(a.positional()[1], "extra");
  EXPECT_EQ(a.get("engine"), "proofs");
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_FALSE(a.has("quiet"));
}

TEST(CliArgs, DefaultsApply) {
  const Args a = make({"s27"});
  EXPECT_EQ(a.get("engine", "csim-mv"), "csim-mv");
  EXPECT_EQ(a.get_uint("random", 256), 256u);
}

TEST(CliArgs, NumericParsing) {
  const Args a = make({"x", "--random=512", "--seed=42"});
  EXPECT_EQ(a.get_uint("random", 1), 512u);
  EXPECT_EQ(a.get_uint("seed", 1), 42u);
}

TEST(CliArgs, BadNumberThrows) {
  const Args a = make({"x", "--random=lots"});
  EXPECT_THROW(a.get_uint("random", 1), Error);
  // Digits only: no sign, no space, no suffix.
  for (const char* bad : {"-1", "+5", " 5", "12abc"}) {
    const Args b = make({"x", std::string("--n=") + bad});
    EXPECT_THROW(b.get_uint("n", 1), Error) << bad;
  }
  // The value must fit the field it lands in, and the error names the
  // option.
  const Args wide = make({"x", "--n=18446744073709551616", "--m=4294967296"});
  EXPECT_THROW(wide.get_uint("n", 1), Error);
  EXPECT_EQ(wide.get_uint("m", 1), 4294967296u);
  try {
    (void)wide.get_uint<std::uint32_t>("m", 1);
    ADD_FAILURE() << "4294967296 fit a uint32_t";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--m"), std::string::npos);
  }
  const Args edge = make({"x", "--m=4294967295"});
  EXPECT_EQ(edge.get_uint<std::uint32_t>("m", 1), 4294967295u);
}

TEST(CliArgs, AllowOnlyCatchesTypos) {
  const Args a = make({"x", "--engin=proofs"});
  EXPECT_THROW(a.allow_only({"engine", "seed"}), Error);
  const Args b = make({"x", "--engine=proofs"});
  EXPECT_NO_THROW(b.allow_only({"engine", "seed"}));
}

TEST(CliArgs, RepeatedOptionThrowsNamingIt) {
  // `cfs sim s27 --random=8 --random=100` used to simulate 8 vectors.
  for (const std::vector<std::string>& argv :
       {std::vector<std::string>{"s27", "--random=8", "--random=100"},
        std::vector<std::string>{"s27", "--quiet", "--seed=1", "--quiet"},
        std::vector<std::string>{"s27", "--out=", "--out=x"}}) {
    try {
      (void)make(argv);
      ADD_FAILURE() << "accepted " << argv[1] << " twice";
    } catch (const Error& e) {
      const std::string key = argv.back().substr(0, argv.back().find('='));
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
  // Distinct options that share a prefix are not repeats.
  const Args a = make({"x", "--sample=4", "--sample-every=2"});
  EXPECT_EQ(a.get_uint("sample", 1), 4u);
  EXPECT_EQ(a.get_uint("sample-every", 1), 2u);
}

TEST(CliArgs, EmptyValueOption) {
  const Args a = make({"x", "--out="});
  EXPECT_TRUE(a.has("out"));
  EXPECT_EQ(a.get("out", "def"), "");
}

}  // namespace
}  // namespace cfs::cli
