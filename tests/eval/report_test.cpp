// The CSV artifacts written by the reporters must be parseable and carry the
// same numbers as the in-memory results.
#include "eval/report.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/csv.h"
#include "testing/temp_dir.h"

namespace dptd::eval {
namespace {

class ReportFiles : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const { return dir_.file(name); }

  static std::vector<std::vector<std::string>> read_csv(
      const std::string& file) {
    std::ifstream in(file);
    EXPECT_TRUE(in.good()) << file;
    return CsvReader::parse(in);
  }

  dptd::testing::TempDir dir_{"dptd_report_test"};
};

TradeoffResult small_tradeoff() {
  TradeoffResult result;
  TradeoffSeries series;
  series.delta = 0.3;
  TradeoffPoint p;
  p.epsilon = 1.0;
  p.noise_level_c = 2.0;
  p.lambda2 = 1.0;
  p.mae = Summary{0.05, 0.01, 3};
  p.avg_noise = Summary{0.7, 0.02, 3};
  series.points.push_back(p);
  result.series.push_back(series);
  return result;
}

TEST_F(ReportFiles, TradeoffCsvRoundTrips) {
  const TradeoffResult result = small_tradeoff();
  write_tradeoff_csv(path("t.csv"), result);
  const auto rows = read_csv(path("t.csv"));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "delta");
  EXPECT_DOUBLE_EQ(std::stod(rows[1][0]), 0.3);
  EXPECT_DOUBLE_EQ(std::stod(rows[1][1]), 1.0);
  EXPECT_DOUBLE_EQ(std::stod(rows[1][4]), 0.05);
  EXPECT_DOUBLE_EQ(std::stod(rows[1][6]), 0.7);
}

TEST_F(ReportFiles, Lambda1CsvHasHeaderAndRows) {
  Lambda1Result result;
  Lambda1Point p;
  p.lambda1 = 2.0;
  p.lambda2 = 0.5;
  p.mae = Summary{0.1, 0.0, 2};
  p.avg_noise = Summary{0.9, 0.0, 2};
  result.points.push_back(p);
  write_lambda1_csv(path("l.csv"), result);
  const auto rows = read_csv(path("l.csv"));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "lambda1");
  EXPECT_DOUBLE_EQ(std::stod(rows[1][0]), 2.0);
}

TEST_F(ReportFiles, UsersCsvCarriesLambda2) {
  UsersResult result;
  result.lambda2 = 0.75;
  UsersPoint p;
  p.num_users = 300;
  p.mae = Summary{0.02, 0.0, 1};
  p.avg_noise = Summary{0.8, 0.0, 1};
  result.points.push_back(p);
  write_users_csv(path("u.csv"), result);
  const auto rows = read_csv(path("u.csv"));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(std::stod(rows[1][0]), 300.0);
  EXPECT_DOUBLE_EQ(std::stod(rows[1][1]), 0.75);
}

TEST_F(ReportFiles, WeightComparisonCsvMarksLargestNoise) {
  WeightComparisonResult result;
  result.user_ids = {4, 9};
  result.true_weight_original = {0.8, 1.2};
  result.estimated_weight_original = {0.9, 1.1};
  result.true_weight_perturbed = {0.7, 1.3};
  result.estimated_weight_perturbed = {0.6, 1.4};
  result.largest_noise_selected_index = 1;
  write_weight_comparison_csv(path("w.csv"), result);
  const auto rows = read_csv(path("w.csv"));
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1][5], "0");
  EXPECT_EQ(rows[2][5], "1");
}

TEST_F(ReportFiles, EfficiencyCsvIncludesOriginalTime) {
  EfficiencyResult result;
  result.original_seconds = Summary{0.010, 0.001, 3};
  EfficiencyPoint p;
  p.avg_noise = 0.5;
  p.seconds = Summary{0.012, 0.001, 3};
  p.iterations = Summary{6.0, 0.5, 3};
  result.points.push_back(p);
  write_efficiency_csv(path("e.csv"), result);
  const auto rows = read_csv(path("e.csv"));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(std::stod(rows[1][4]), 0.010);
}

TEST_F(ReportFiles, AblationCsvKeepsMethodAndMechanismNames) {
  AblationResult result;
  AblationCell cell;
  cell.method = "crh";
  cell.mechanism = "laplace";
  cell.target_noise = 0.5;
  cell.mae_vs_original = Summary{0.03, 0.0, 2};
  cell.mae_vs_ground_truth = Summary{0.06, 0.0, 2};
  result.cells.push_back(cell);
  write_ablation_csv(path("a.csv"), result);
  const auto rows = read_csv(path("a.csv"));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][0], "crh");
  EXPECT_EQ(rows[1][1], "laplace");
}

TEST_F(ReportFiles, UnwritablePathThrows) {
  TradeoffResult result = small_tradeoff();
  EXPECT_THROW(write_tradeoff_csv("/nonexistent-dir/x.csv", result),
               std::runtime_error);
}

TEST(ReportPrinters, EveryPrinterProducesNonEmptyText) {
  std::ostringstream os;
  print_tradeoff(os, small_tradeoff(), "t");
  print_lambda1(os, Lambda1Result{});
  print_users(os, UsersResult{});
  print_weight_comparison(os, WeightComparisonResult{});
  print_efficiency(os, EfficiencyResult{});
  print_ablation(os, AblationResult{});
  EXPECT_GT(os.str().size(), 200u);
}

}  // namespace
}  // namespace dptd::eval
