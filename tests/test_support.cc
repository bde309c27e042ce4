// Tests for the small support utilities: checks, stats, strings, tables,
// units, RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "support/argparse.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/string_util.h"
#include "support/table.h"
#include "support/units.h"

namespace mlsc {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    MLSC_CHECK(1 == 2, "math is broken: " << 42);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("math is broken: 42"),
              std::string::npos);
  }
}

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(MLSC_CHECK(true, "never"));
}

TEST(RunningStats, ComputesMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, MeanAndGeomean) {
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_NEAR(geomean_of({1.0, 8.0}), 2.8284, 1e-3);
  EXPECT_THROW(geomean_of({1.0, 0.0}), Error);
}

TEST(Stats, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile_of(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_of(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile_of(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile_of(v, 25), 2.0);
  EXPECT_THROW(percentile_of({}, 50), Error);
}

TEST(Stats, PercentImprovement) {
  EXPECT_DOUBLE_EQ(percent_improvement(100.0, 74.0), 26.0);
  EXPECT_DOUBLE_EQ(percent_improvement(0.0, 5.0), 0.0);
}

TEST(StringUtil, JoinSplitPad) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(split("x,y,z", ','), (std::vector<std::string>{"x", "y", "z"}));
  EXPECT_EQ(pad_left("7", 3), "  7");
  EXPECT_EQ(pad_right("7", 3), "7  ");
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
}

TEST(Table, PrintsAlignedAndCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row_numeric("beta", {2.5}, 1);
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream text;
  t.print(text);
  EXPECT_NE(text.str().find("| alpha |"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "name,value\nalpha,1\nbeta,2.5\n");
}

TEST(Table, QuotesCsvFields) {
  Table t({"a"});
  t.add_row({"x,y\"z"});
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "a\n\"x,y\"\"z\"\n");
}

TEST(Table, RejectsBadRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Json, QuoteEscapesSpecials) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(json_quote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(json_quote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(json_quote(std::string("nul\0byte", 8)), "\"nul\\u0000byte\"");
  EXPECT_EQ(json_quote("\x01\x1f"), "\"\\u0001\\u001f\"");
}

TEST(Json, QuoteUnquoteRoundTrips) {
  const std::string cases[] = {
      "",
      "plain",
      "quote \" backslash \\ slash /",
      "controls \b\f\n\r\t",
      std::string("embedded\0nul", 12),
      "\x01\x02\x1e\x1f",
      "mixed \"x\\\ty\n\" end",
  };
  for (const std::string& s : cases) {
    EXPECT_EQ(json_unquote(json_quote(s)), s) << json_quote(s);
  }
}

TEST(Json, NumberRendersNonFiniteAsNull) {
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, TablePrintJsonEscapesCells) {
  Table t({"name", "value"});
  t.add_row({"weird \"cell\"\n", "1"});
  std::ostringstream out;
  t.print_json(out, "title\twith tab");
  const std::string json = out.str();
  EXPECT_NE(json.find("\"weird \\\"cell\\\"\\n\""), std::string::npos);
  EXPECT_NE(json.find("\"title\\twith tab\""), std::string::npos);
}

TEST(Units, FormatsBytesAndTime) {
  EXPECT_EQ(format_bytes(64 * kKiB), "64 KiB");
  EXPECT_EQ(format_bytes(2 * kGiB), "2 GiB");
  EXPECT_EQ(format_bytes(500), "500 B");
  EXPECT_EQ(format_time(1500), "1.50 us");
  EXPECT_EQ(format_time(2 * kSecond), "2 s");
}

TEST(Rng, DeterministicAndBounded) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c(8);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(c.next_below(17), 17u);
    const double d = c.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

// ArgParser drives every mlsc_* tool's CLI; misuse must throw UsageError
// (mapped to kUsageExitCode by the tools), never crash or mis-parse.
ArgParser make_parser(std::vector<std::string>& storage,
                      std::vector<char*>& argv) {
  argv.clear();
  for (auto& s : storage) argv.push_back(s.data());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, AcceptsBothValueForms) {
  std::vector<std::string> args{"tool", "--size=16", "--reps", "3", "--csv"};
  std::vector<char*> argv;
  auto parser = make_parser(args, argv);
  ASSERT_TRUE(parser.next());
  ASSERT_TRUE(parser.value_flag("--size"));
  EXPECT_EQ(parser.value_u64(), 16u);
  ASSERT_TRUE(parser.next());
  ASSERT_TRUE(parser.value_flag("--reps"));
  EXPECT_EQ(parser.value_u64(), 3u);
  ASSERT_TRUE(parser.next());
  EXPECT_TRUE(parser.flag("--csv"));
  EXPECT_FALSE(parser.next());
}

TEST(ArgParser, ThrowsUsageErrorOnMisuse) {
  {
    std::vector<std::string> args{"tool", "--size"};
    std::vector<char*> argv;
    auto parser = make_parser(args, argv);
    ASSERT_TRUE(parser.next());
    EXPECT_THROW(parser.value_flag("--size"), UsageError);  // missing value
  }
  {
    std::vector<std::string> args{"tool", "--size=16x", "--rate=fast"};
    std::vector<char*> argv;
    auto parser = make_parser(args, argv);
    ASSERT_TRUE(parser.next());
    ASSERT_TRUE(parser.value_flag("--size"));
    EXPECT_THROW(parser.value_u64(), UsageError);  // trailing garbage
    ASSERT_TRUE(parser.next());
    ASSERT_TRUE(parser.value_flag("--rate"));
    EXPECT_THROW(parser.value_double(), UsageError);
  }
  {
    std::vector<std::string> args{"tool", "--bogus"};
    std::vector<char*> argv;
    auto parser = make_parser(args, argv);
    ASSERT_TRUE(parser.next());
    EXPECT_THROW(parser.unknown(), UsageError);
  }
}

TEST(ArgParser, RangeHelpersRejectOutOfRangeValues) {
  std::vector<std::string> args{"tool", "--threads=1024", "--threads=1025",
                                "--threads=18446744073709551615",
                                "--readahead=4294967296"};
  std::vector<char*> argv;
  auto parser = make_parser(args, argv);
  ASSERT_TRUE(parser.next());
  ASSERT_TRUE(parser.value_flag("--threads"));
  EXPECT_EQ(parser.value_threads(), kMaxThreads);
  ASSERT_TRUE(parser.next());
  ASSERT_TRUE(parser.value_flag("--threads"));
  EXPECT_THROW(parser.value_threads(), UsageError);  // one past the cap
  ASSERT_TRUE(parser.next());
  ASSERT_TRUE(parser.value_flag("--threads"));
  EXPECT_THROW(parser.value_threads(), UsageError);
  ASSERT_TRUE(parser.next());
  ASSERT_TRUE(parser.value_flag("--readahead"));
  EXPECT_THROW(parser.value_u64_in(0, UINT32_MAX), UsageError);
  EXPECT_EQ(parser.value_u64_in(0, std::uint64_t{1} << 32),
            std::uint64_t{1} << 32);
}

TEST(ArgParser, ValueFlagDistinguishesPrefixes) {
  // "--size" must not swallow "--size-factor=2".
  std::vector<std::string> args{"tool", "--size-factor=2"};
  std::vector<char*> argv;
  auto parser = make_parser(args, argv);
  ASSERT_TRUE(parser.next());
  EXPECT_FALSE(parser.value_flag("--size"));
  ASSERT_TRUE(parser.value_flag("--size-factor"));
  EXPECT_DOUBLE_EQ(parser.value_double(), 2.0);
}

}  // namespace
}  // namespace mlsc
