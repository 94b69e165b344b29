/**
 * @file
 * Unit tests for the experiment helpers used by the benches: means,
 * Lazy-normalization, sweep mechanics, and table formatting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/experiment.hh"

namespace flexsnoop
{
namespace
{

TEST(Means, ArithMean)
{
    EXPECT_DOUBLE_EQ(arithMean({2.0, 4.0, 6.0}), 4.0);
    EXPECT_DOUBLE_EQ(arithMean({5.0}), 5.0);
    EXPECT_DOUBLE_EQ(arithMean({}), 0.0);
}

TEST(Means, GeoMean)
{
    EXPECT_DOUBLE_EQ(geoMean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geoMean({1.0, 10.0, 100.0}), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(geoMean({7.5}), 7.5);
    EXPECT_DOUBLE_EQ(geoMean({}), 0.0);
}

TEST(Means, GeoMeanBelowArithMeanForSpreadValues)
{
    const std::vector<double> v{1.0, 2.0, 9.0};
    EXPECT_LT(geoMean(v), arithMean(v));
}

SweepResult
fakeSweep(const std::string &workload, double lazy_exec, double agg_exec)
{
    SweepResult sweep;
    sweep.workload = workload;
    RunResult lazy;
    lazy.algorithm = std::string(toString(Algorithm::Lazy));
    lazy.execCycles = static_cast<Cycle>(lazy_exec);
    lazy.energyNj = 100.0;
    RunResult agg;
    agg.algorithm = std::string(toString(Algorithm::SupersetAgg));
    agg.execCycles = static_cast<Cycle>(agg_exec);
    agg.energyNj = 150.0;
    sweep.runs = {lazy, agg};
    return sweep;
}

TEST(Sweeps, ByAlgorithmFindsRuns)
{
    const SweepResult sweep = fakeSweep("w", 1000, 900);
    EXPECT_EQ(sweep.byAlgorithm(Algorithm::Lazy).execCycles, 1000u);
    EXPECT_EQ(sweep.byAlgorithm(Algorithm::SupersetAgg).execCycles,
              900u);
    EXPECT_THROW(sweep.byAlgorithm(Algorithm::Exact), std::out_of_range);
}

TEST(Sweeps, LazyNormalizedGeoMean)
{
    std::vector<SweepResult> apps;
    apps.push_back(fakeSweep("a", 1000, 800)); // ratio 0.8
    apps.push_back(fakeSweep("b", 2000, 1000)); // ratio 0.5
    const Metric exec = [](const RunResult &r) {
        return static_cast<double>(r.execCycles);
    };
    const double norm =
        lazyNormalizedGeoMean(apps, Algorithm::SupersetAgg, exec);
    EXPECT_NEAR(norm, std::sqrt(0.8 * 0.5), 1e-9);
    // Lazy normalized to itself is exactly 1.
    EXPECT_DOUBLE_EQ(lazyNormalizedGeoMean(apps, Algorithm::Lazy, exec),
                     1.0);
}

TEST(Sweeps, SuiteArithMean)
{
    std::vector<SweepResult> apps;
    apps.push_back(fakeSweep("a", 1000, 800));
    apps.push_back(fakeSweep("b", 3000, 1000));
    const Metric exec = [](const RunResult &r) {
        return static_cast<double>(r.execCycles);
    };
    EXPECT_DOUBLE_EQ(suiteArithMean(apps, Algorithm::Lazy, exec), 2000.0);
}

TEST(Sweeps, RunSweepSharesTracesAcrossAlgorithms)
{
    WorkloadProfile profile = miniProfile();
    profile.refsPerCore = 400;
    profile.warmupRefs = 100;
    const SweepPlan plan =
        planSweep({Algorithm::Lazy, Algorithm::Eager}, {profile}, 2);
    ASSERT_EQ(plan.traces.size(), 1u);
    ASSERT_EQ(plan.cells.size(), 2u);
    for (const PlannedCell &cell : plan.cells)
        EXPECT_EQ(cell.traces, 0u);

    const auto sweeps =
        runSweeps({Algorithm::Lazy, Algorithm::Eager}, {profile}, 2);
    ASSERT_EQ(sweeps.size(), 1u);
    const SweepResult &sweep = sweeps.front();
    ASSERT_EQ(sweep.runs.size(), 2u);
    // Same traces => identical L2-access counts, so the number of ring
    // read requests differs only through retries.
    const auto &lazy = sweep.runs[0];
    const auto &eager = sweep.runs[1];
    EXPECT_EQ(lazy.workload, eager.workload);
    EXPECT_NEAR(static_cast<double>(lazy.readRingRequests),
                static_cast<double>(eager.readRingRequests),
                0.02 * lazy.readRingRequests + 20);
}

TEST(Sweeps, PredictorOverrideOnlyAppliesToMatchingKind)
{
    WorkloadProfile profile = miniProfile();
    profile.refsPerCore = 300;
    profile.warmupRefs = 80;
    // Override with a Subset predictor name while running SupersetCon:
    // kinds mismatch, so the default y2k must be kept.
    const auto sweeps = runSweeps(
        {Algorithm::SupersetCon, Algorithm::Subset}, {profile}, 2,
        "sub512");
    EXPECT_EQ(sweeps[0].runs[0].predictor, "n2k");
    EXPECT_EQ(sweeps[0].runs[1].predictor, "Sub512");
}

TEST(Tables, PrintTableFormatsRowsAndColumns)
{
    std::ostringstream oss;
    std::vector<std::pair<std::string, std::map<Algorithm, double>>> rows;
    rows.emplace_back("w1", std::map<Algorithm, double>{
                                {Algorithm::Lazy, 1.0},
                                {Algorithm::Eager, 1.85},
                            });
    printTable(oss, "my title", {Algorithm::Lazy, Algorithm::Eager}, rows,
               2);
    const std::string out = oss.str();
    EXPECT_NE(out.find("my title"), std::string::npos);
    EXPECT_NE(out.find("w1"), std::string::npos);
    EXPECT_NE(out.find("Lazy"), std::string::npos);
    EXPECT_NE(out.find("1.85"), std::string::npos);
}

TEST(Tables, MissingCellPrintsDash)
{
    std::ostringstream oss;
    std::vector<std::pair<std::string, std::map<Algorithm, double>>> rows;
    rows.emplace_back("w1", std::map<Algorithm, double>{
                                {Algorithm::Lazy, 1.0},
                            });
    printTable(oss, "t", {Algorithm::Lazy, Algorithm::Eager}, rows, 2);
    EXPECT_NE(oss.str().find('-'), std::string::npos);
}

} // namespace
} // namespace flexsnoop
