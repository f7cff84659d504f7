// Tests for CSV emission, text tables, ASCII charts, CLI parsing and
// the error primitives.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/ascii_chart.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/table.hpp"

namespace cobalt {
namespace {

// ---------------------------------------------------------------- CSV

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Process-unique: suites of two builds may share the temp directory.
  std::string path_ = ::testing::TempDir() + "cobalt_csv_test_" +
                      std::to_string(::getpid()) + ".csv";

  std::string slurp() {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_);
    csv.write_header({"x", "y"});
    csv.write_numeric_row({1.0, 2.5});
    csv.write_numeric_row({2.0, 0.125});
  }
  EXPECT_EQ(slurp(), "x,y\n1,2.5\n2,0.125\n");
}

TEST_F(CsvTest, QuotesSpecialFields) {
  {
    CsvWriter csv(path_);
    csv.write_row({"plain", "with,comma", "with\"quote", "with\nnewline"});
  }
  EXPECT_EQ(slurp(),
            "plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\"\n");
}

TEST_F(CsvTest, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"), Error);
}

// -------------------------------------------------------------- Table

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "v"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  // Header, rule, two rows.
  EXPECT_NE(out.find("name    v \n"), std::string::npos);
  EXPECT_NE(out.find("longer  22\n"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, NumericRowsRespectPrecision) {
  TextTable t({"v"});
  t.add_numeric_row({3.14159}, 2);
  EXPECT_NE(t.render().find("3.14"), std::string::npos);
}

TEST(TextTable, ShortRowsArePadded) {
  TextTable t({"a", "b"});
  t.add_row({"only"});
  EXPECT_NO_THROW((void)t.render());
}

TEST(FormatFixed, FormatsPlainDecimal) {
  EXPECT_EQ(format_fixed(1.5, 3), "1.500");
  EXPECT_EQ(format_fixed(-0.25, 2), "-0.25");
  EXPECT_EQ(format_fixed(10.0, 0), "10");
}

// -------------------------------------------------------------- Chart

TEST(AsciiChart, RendersSeriesAndLegend) {
  ChartOptions options;
  options.width = 32;
  options.height = 8;
  AsciiChart chart(options);
  chart.add_series(ChartSeries{"up", {0, 1, 2, 3}, {0, 1, 2, 3}});
  chart.add_series(ChartSeries{"down", {0, 1, 2, 3}, {3, 2, 1, 0}});
  const std::string out = chart.render();
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_NE(out.find("[*] up"), std::string::npos);
  EXPECT_NE(out.find("[+] down"), std::string::npos);
  EXPECT_NE(out.find('|'), std::string::npos);
}

TEST(AsciiChart, RejectsBadInput) {
  AsciiChart chart;
  EXPECT_THROW(chart.add_series(ChartSeries{"bad", {1.0}, {}}),
               InvalidArgument);
  EXPECT_THROW((void)chart.render(), InvalidArgument);  // no series
  EXPECT_THROW(AsciiChart(ChartOptions{4, 1, "", "", 0.0, true}),
               InvalidArgument);
}

TEST(AsciiChart, FlatSeriesDoesNotDivideByZero) {
  AsciiChart chart;
  chart.add_series(ChartSeries{"flat", {1, 2, 3}, {5, 5, 5}});
  EXPECT_NO_THROW((void)chart.render());
}

// ---------------------------------------------------------------- CLI

TEST(CliParser, ParsesAllForms) {
  const char* argv[] = {"prog",   "--alpha=0.5", "--runs=100",
                        "--flag", "positional",  "--list=1,2,3"};
  const CliParser cli(6, argv);
  EXPECT_EQ(cli.program_name(), "prog");
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.0), 0.5);
  EXPECT_EQ(cli.get_uint("runs", 0), 100u);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_FALSE(cli.has("absent"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
  EXPECT_EQ(cli.get_uint_list("list", {}),
            (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(CliParser, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  const CliParser cli(1, argv);
  EXPECT_EQ(cli.get_string("name", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("n", -3), -3);
  EXPECT_FALSE(cli.get_bool("b", false));
  EXPECT_EQ(cli.get_uint_list("l", {7}), (std::vector<std::uint64_t>{7}));
}

TEST(CliParser, BadValuesThrow) {
  const char* argv[] = {"prog", "--n=abc", "--b=maybe", "--d=1.2.3"};
  const CliParser cli(4, argv);
  EXPECT_THROW((void)cli.get_int("n", 0), InvalidArgument);
  EXPECT_THROW((void)cli.get_bool("b", false), InvalidArgument);
  EXPECT_THROW((void)cli.get_double("d", 0.0), InvalidArgument);
}

TEST(CliParser, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b=off", "--c=1", "--d=false"};
  const CliParser cli(5, argv);
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
}

// -------------------------------------------------------------- Error

TEST(Error, MacrosCaptureExpressionAndLocation) {
  try {
    COBALT_REQUIRE(1 == 2, "numbers disagree");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("numbers disagree"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("test_misc.cpp"), std::string::npos);
  }
  try {
    COBALT_INVARIANT(false, "broken");
    FAIL() << "should have thrown";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("invariant violation"),
              std::string::npos);
  }
}

TEST(Error, HierarchyCatchesAsBase) {
  EXPECT_THROW(throw InvalidArgument("x"), Error);
  EXPECT_THROW(throw InvariantViolation("y"), Error);
}

}  // namespace
}  // namespace cobalt
