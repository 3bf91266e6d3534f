#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "src/common/cdf.h"
#include "src/common/options.h"

namespace bullet {
namespace {

TEST(Cdf, PrintCdfMonotone) {
  CdfSeries s;
  s.name = "test";
  for (int i = 100; i >= 1; --i) {
    s.samples.push_back(static_cast<double>(i));
  }
  std::ostringstream os;
  PrintCdf(os, {s}, 10);
  std::istringstream is(os.str());
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "# test");
  double prev_frac = -1.0;
  double prev_val = -1.0;
  while (std::getline(is, line)) {
    double frac = 0.0;
    double val = 0.0;
    ASSERT_EQ(std::sscanf(line.c_str(), "%lf %lf", &frac, &val), 2) << line;
    EXPECT_GE(frac, prev_frac);
    EXPECT_GE(val, prev_val);
    prev_frac = frac;
    prev_val = val;
  }
  EXPECT_DOUBLE_EQ(prev_frac, 1.0);
  EXPECT_DOUBLE_EQ(prev_val, 100.0);
}

TEST(Cdf, EmptySeries) {
  std::ostringstream os;
  PrintCdf(os, {CdfSeries{"empty", {}}}, 10);
  EXPECT_NE(os.str().find("(no samples)"), std::string::npos);
}

TEST(Cdf, SummaryTableColumns) {
  CdfSeries s;
  s.name = "sys";
  s.samples = {10.0, 20.0, 30.0};
  std::ostringstream os;
  PrintSummaryTable(os, {s});
  EXPECT_NE(os.str().find("sys"), std::string::npos);
  EXPECT_NE(os.str().find("20.00"), std::string::npos);  // p50
  EXPECT_NE(os.str().find("30.00"), std::string::npos);  // max
}

TEST(Options, DefaultIsCi) {
  unsetenv("REPRO_SCALE");
  const ReproScale scale = GetReproScale();
  EXPECT_FALSE(scale.full);
  EXPECT_LT(scale.file_scale, 1.0);
  EXPECT_GT(scale.file_scale, 0.0);
}

TEST(Options, FullScale) {
  setenv("REPRO_SCALE", "full", 1);
  const ReproScale scale = GetReproScale();
  EXPECT_TRUE(scale.full);
  EXPECT_DOUBLE_EQ(scale.file_scale, 1.0);
  unsetenv("REPRO_SCALE");
}

TEST(Options, UnknownValueFallsBackToCi) {
  setenv("REPRO_SCALE", "banana", 1);
  EXPECT_FALSE(GetReproScale().full);
  unsetenv("REPRO_SCALE");
}

}  // namespace
}  // namespace bullet
