// Flag parsing of the command-line tools (tools/flags.h): every argument is
// a flag given once, and each getter refuses a malformed value, which
// Error() then reports.
#include "tools/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace fdpcache {
namespace {

// Parses `args` as the arguments after the program name. Flags copies what
// it keeps, so the argv storage may end with this call.
Flags Parse(std::vector<std::string> args) {
  args.insert(args.begin(), "fdpbench");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, WellFormedFlagsParse) {
  const Flags flags = Parse({"--ops=2000", "--csv", "--utilization=0.7", "--fdp=no"});
  EXPECT_EQ(flags.GetUint("ops", 0), 2000u);
  EXPECT_TRUE(flags.GetBool("csv", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("utilization", 1.0), 0.7);
  EXPECT_FALSE(flags.GetBool("fdp", true));
  EXPECT_EQ(flags.GetString("workload", "kvcache"), "kvcache");
  EXPECT_EQ(flags.Error(), "");
}

TEST(FlagsTest, RepeatedFlagIsAnError) {
  // Both values are well formed: the repetition alone is the error.
  const Flags flags = Parse({"--ops=1000", "--ops=2000"});
  flags.GetUint("ops", 0);
  EXPECT_NE(flags.Error().find("--ops"), std::string::npos) << flags.Error();
}

TEST(FlagsTest, RepeatedFlagDoesNotHideAMalformedValue) {
  const Flags flags = Parse({"--ops=12abc", "--ops=3000"});
  flags.GetUint("ops", 0);
  EXPECT_NE(flags.Error(), "");
}

TEST(FlagsTest, PositionalArgumentIsAnError) {
  const Flags flags = Parse({"--ops=2000", "kvcache"});
  EXPECT_EQ(flags.GetUint("ops", 0), 2000u);
  EXPECT_NE(flags.Error().find("kvcache"), std::string::npos) << flags.Error();
}

TEST(FlagsTest, UnknownFlagIsAnError) {
  const Flags flags = Parse({"--opps=5"});
  EXPECT_EQ(flags.GetUint("ops", 400), 400u);
  EXPECT_EQ(flags.Error(), "unknown flag --opps");
}

TEST(FlagsTest, GetUintAcceptsItsMaximumAndRefusesOneMore) {
  const Flags at_max = Parse({"--qps=1024"});
  EXPECT_EQ(at_max.GetUint("qps", 1, 1024), 1024u);
  EXPECT_EQ(at_max.Error(), "");

  const Flags above = Parse({"--qps=1025"});
  EXPECT_EQ(above.GetUint("qps", 1, 1024), 1u);  // The default, on refusal.
  EXPECT_NE(above.Error(), "");

  const Flags u64_max = Parse({"--seed=18446744073709551615"});
  EXPECT_EQ(u64_max.GetUint("seed", 42), UINT64_MAX);
  EXPECT_EQ(u64_max.Error(), "");

  const Flags u64_over = Parse({"--seed=18446744073709551616"});
  EXPECT_EQ(u64_over.GetUint("seed", 42), 42u);
  EXPECT_NE(u64_over.Error(), "");
}

TEST(FlagsTest, GetUintRefusesSignsSuffixesAndEmpty) {
  for (const char* bad : {"-1", "+1", "12abc", " 1", ""}) {
    const Flags flags = Parse({std::string("--ops=") + bad});
    EXPECT_EQ(flags.GetUint("ops", 7), 7u) << bad;
    EXPECT_NE(flags.Error(), "") << bad;
  }
}

TEST(FlagsTest, GetDoubleRefusesNegativeNonFiniteAndEmpty) {
  for (const char* bad : {"-1", "nan", "inf", "1e999", ""}) {
    const Flags flags = Parse({std::string("--utilization=") + bad});
    EXPECT_EQ(flags.GetDouble("utilization", 0.5), 0.5) << bad;
    EXPECT_NE(flags.Error(), "") << bad;
  }
}

TEST(FlagsTest, GetBoolRefusesOtherWords) {
  const Flags flags = Parse({"--fdp=maybe"});
  EXPECT_TRUE(flags.GetBool("fdp", true));
  EXPECT_NE(flags.Error(), "");

  const Flags words = Parse({"--a=yes", "--b=1", "--c=false", "--d=0"});
  EXPECT_TRUE(words.GetBool("a", false));
  EXPECT_TRUE(words.GetBool("b", false));
  EXPECT_FALSE(words.GetBool("c", true));
  EXPECT_FALSE(words.GetBool("d", true));
  EXPECT_EQ(words.Error(), "");
}

TEST(FlagsTest, FirstErrorIsReported) {
  const Flags flags = Parse({"--ops=12abc", "--qd=x"});
  flags.GetUint("ops", 0);
  flags.GetUint("qd", 1);
  EXPECT_NE(flags.Error().find("--ops=12abc"), std::string::npos) << flags.Error();
}

}  // namespace
}  // namespace fdpcache
