// Tests for the CLI flag parser.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tools/args.hpp"

namespace sensrep::tools {
namespace {

Args make(std::initializer_list<const char*> argv_tail) {
  static std::vector<std::string> storage;
  storage.clear();
  storage.emplace_back("prog");
  for (const char* a : argv_tail) storage.emplace_back(a);
  static std::vector<char*> ptrs;
  ptrs.clear();
  for (auto& s : storage) ptrs.push_back(s.data());
  return Args(static_cast<int>(ptrs.size()), ptrs.data());
}

TEST(ArgsTest, EqualsForm) {
  auto args = make({"--robots=9", "--algorithm=dynamic"});
  EXPECT_EQ(args.get_u64("robots", 0), 9u);
  EXPECT_EQ(args.get_string("algorithm", ""), "dynamic");
}

TEST(ArgsTest, SpaceForm) {
  auto args = make({"--robots", "16", "--duration", "32000"});
  EXPECT_EQ(args.get_u64("robots", 0), 16u);
  EXPECT_DOUBLE_EQ(args.get_double("duration", 0.0), 32000.0);
}

TEST(ArgsTest, BooleanFlags) {
  auto args = make({"--quiet", "--queue-aware", "--robots=4"});
  EXPECT_TRUE(args.has("quiet"));
  EXPECT_TRUE(args.has("queue-aware"));
  EXPECT_FALSE(args.has("verbose"));
}

TEST(ArgsTest, BooleanFollowedByFlagDoesNotSwallow) {
  auto args = make({"--quiet", "--robots=4"});
  EXPECT_TRUE(args.has("quiet"));
  EXPECT_EQ(args.get_string("quiet", "x"), "");
  EXPECT_EQ(args.get_u64("robots", 0), 4u);
}

TEST(ArgsTest, DefaultsWhenAbsent) {
  auto args = make({});
  EXPECT_EQ(args.get_u64("robots", 4), 4u);
  EXPECT_DOUBLE_EQ(args.get_double("loss", 0.25), 0.25);
  EXPECT_EQ(args.get_string("algorithm", "dynamic"), "dynamic");
}

TEST(ArgsTest, PositionalArguments) {
  auto args = make({"first", "--robots=4", "second"});
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"first", "second"}));
}

TEST(ArgsTest, BadNumbersThrow) {
  auto args = make({"--robots=many", "--loss=often"});
  EXPECT_THROW((void)args.get_u64("robots", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("loss", 0.0), std::invalid_argument);

  // Trailing garbage, signs and empty values are errors, not a parsed prefix.
  auto partial = make({"--robots=4x", "--duration=100s", "--seed=-1", "--jobs=-4",
                       "--sensors= 5", "--count=+3", "--empty=", "--loss=0.1.2"});
  for (const char* flag : {"robots", "seed", "jobs", "sensors", "count", "empty"}) {
    EXPECT_THROW((void)partial.get_u64(flag, 0), std::invalid_argument) << flag;
  }
  EXPECT_THROW((void)partial.get_double("duration", 0.0), std::invalid_argument);
  EXPECT_THROW((void)partial.get_double("loss", 0.0), std::invalid_argument);
  EXPECT_THROW((void)partial.get_double("empty", 0.0), std::invalid_argument);

  // Whole tokens still parse.
  auto good = make({"--robots=4", "--duration=1e3", "--seed=18446744073709551615"});
  EXPECT_EQ(good.get_u64("robots", 0), 4u);
  EXPECT_DOUBLE_EQ(good.get_double("duration", 0.0), 1000.0);
  EXPECT_EQ(good.get_u64("seed", 0), 18446744073709551615ull);
}

TEST(ArgsTest, RangeCheckedDoublesAcceptInBoundsValues) {
  auto args = make({"--loss=0.25", "--heartbeat=60"});
  EXPECT_DOUBLE_EQ(args.get_double_in("loss", 0.0, 0.0, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(args.get_double_in("heartbeat", 60.0, 1.0, 1e9), 60.0);
  // Fallback used when absent — and the fallback itself is range-checked.
  EXPECT_DOUBLE_EQ(args.get_double_in("lease-multiplier", 3.0, 1.0, 100.0), 3.0);
}

TEST(ArgsTest, RangeCheckedDoublesRejectOutOfBounds) {
  auto args = make({"--loss=1.5", "--heartbeat=0"});
  EXPECT_THROW((void)args.get_double_in("loss", 0.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double_in("heartbeat", 60.0, 1.0, 1e9),
               std::invalid_argument);
}

TEST(ArgsTest, RangeCheckedDoublesHandleInfinityAndNan) {
  const double inf = std::numeric_limits<double>::infinity();
  auto args = make({"--robot-mtbf=inf", "--bad=nan"});
  // "inf" parses and is in range when the upper bound is infinite — the
  // --robot-mtbf "disabled" spelling.
  EXPECT_TRUE(std::isinf(args.get_double_in("robot-mtbf", inf, 1.0, inf)));
  // NaN is never in any range.
  EXPECT_THROW((void)args.get_double_in("bad", 0.0, 0.0, inf), std::invalid_argument);
}

TEST(ArgsTest, RejectUnknownCatchesTypos) {
  auto args = make({"--robbots=4"});
  (void)args.get_u64("robots", 4);
  EXPECT_THROW(args.reject_unknown(), std::invalid_argument);
}

TEST(ArgsTest, RejectUnknownPassesWhenAllDeclared) {
  auto args = make({"--robots=4", "--quiet"});
  (void)args.get_u64("robots", 0);
  (void)args.has("quiet");
  EXPECT_NO_THROW(args.reject_unknown());
}

TEST(ValidateCrashTimes, RejectsEventsAtOrPastDuration) {
  // A crash or repair scheduled at t >= duration silently never fires; the
  // shared validator turns that misconfiguration into a hard error.
  EXPECT_THROW(validate_crash_times("robot-crash", {100.0, 8000.0}, 8000.0),
               std::invalid_argument);
  EXPECT_THROW(validate_crash_times("manager-crash", {9000.0}, 8000.0),
               std::invalid_argument);
  try {
    validate_crash_times("robot-repair", {8500.0}, 8000.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message names the offending flag so the user can find it.
    EXPECT_NE(std::string(e.what()).find("robot-repair"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("duration"), std::string::npos);
  }
}

TEST(ValidateCrashTimes, AcceptsInRangeAndEmpty) {
  EXPECT_NO_THROW(validate_crash_times("robot-crash", {}, 8000.0));
  EXPECT_NO_THROW(validate_crash_times("robot-crash", {0.0, 100.0, 7999.9}, 8000.0));
}

}  // namespace
}  // namespace sensrep::tools
