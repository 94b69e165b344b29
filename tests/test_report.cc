/**
 * @file
 * Unit tests for the CSV/JSON result exporters and the shared RunResult
 * comparison (run_result_equality.hh).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "core/report.hh"
#include "run_result_equality.hh"

namespace flexsnoop
{
namespace
{

RunResult
sampleResult()
{
    RunResult r;
    r.workload = "barnes";
    r.algorithm = "SupersetAgg";
    r.predictor = "y2k";
    r.execCycles = 123456;
    r.readRingRequests = 1000;
    r.readSnoops = 3200;
    r.snoopsPerReadRequest = 3.2;
    r.readLinkMessages = 14000;
    r.readLinkMessagesPerRequest = 14.0;
    r.energyNj = 98765.5;
    r.truePositives = 10;
    r.trueNegatives = 20;
    r.falsePositives = 5;
    r.falseNegatives = 0;
    r.cacheSupplies = 700;
    r.memoryFetches = 300;
    r.avgReadLatency = 456.7;
    return r;
}

TEST(Report, CsvHasHeaderAndOneRowPerResult)
{
    std::ostringstream oss;
    writeCsv(oss, {sampleResult(), sampleResult()});
    const std::string out = oss.str();
    std::size_t lines = 0;
    for (char c : out)
        lines += c == '\n';
    EXPECT_EQ(lines, 3u); // header + 2 rows
    EXPECT_EQ(out.find("workload,algorithm,predictor"), 0u);
    EXPECT_NE(out.find("barnes,SupersetAgg,y2k,123456"),
              std::string::npos);
}

TEST(Report, CsvColumnCountMatchesHeader)
{
    std::ostringstream oss;
    writeCsv(oss, {sampleResult()});
    std::istringstream iss(oss.str());
    std::string header, row;
    std::getline(iss, header);
    std::getline(iss, row);
    const auto count = [](const std::string &s) {
        std::size_t n = 1;
        for (char c : s)
            n += c == ',';
        return n;
    };
    EXPECT_EQ(count(header), count(row));
}

TEST(Report, JsonIsWellFormedArray)
{
    std::ostringstream oss;
    writeJson(oss, {sampleResult()});
    const std::string out = oss.str();
    EXPECT_EQ(out.front(), '[');
    EXPECT_NE(out.find("\"workload\": \"barnes\""), std::string::npos);
    EXPECT_NE(out.find("\"exec_cycles\": 123456"), std::string::npos);
    EXPECT_NE(out.find(']'), std::string::npos);
    // Balanced braces.
    int depth = 0;
    for (char c : out) {
        if (c == '{')
            ++depth;
        if (c == '}')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(Report, EmptyResultSetStillValid)
{
    std::ostringstream csv;
    writeCsv(csv, {});
    EXPECT_NE(csv.str().find("workload"), std::string::npos);
    std::ostringstream json;
    writeJson(json, {});
    EXPECT_NE(json.str().find('['), std::string::npos);
    EXPECT_NE(json.str().find(']'), std::string::npos);
}

TEST(Report, CsvRoundTripPreservesEveryField)
{
    // Every field distinct and non-default (doubles exact at the
    // writer's 10 significant digits), so a column the writer omits or
    // the reader misroutes fails the comparison.
    RunResult r;
    r.workload = "barnes";
    r.algorithm = "SupersetAgg";
    r.predictor = "y2k";
    std::uint64_t count = 1;
    for (std::uint64_t *f :
         {&r.execCycles, &r.readRingRequests, &r.readSnoops,
          &r.readLinkMessages, &r.truePositives, &r.trueNegatives,
          &r.falsePositives, &r.falseNegatives, &r.writeRingRequests,
          &r.writeSnoops, &r.writeFiltered, &r.bridgeSkips,
          &r.bridgeDescends, &r.globalLinkMessages, &r.cacheSupplies,
          &r.memoryFetches, &r.downgrades, &r.collisions, &r.retries,
          &r.writebacks, &r.faultLinkDecisions, &r.faultDrops,
          &r.faultDups, &r.faultDelays, &r.faultPredictorFlips,
          &r.watchdogTimeouts, &r.staleMessagesAbsorbed,
          &r.predictorFlipDegrades, &r.incompleteConclusionsRejected,
          &r.retryStormAborts})
        *f = 1000 + count++;
    double value = 0.5;
    for (double *f :
         {&r.snoopsPerReadRequest, &r.readLinkMessagesPerRequest,
          &r.energyNj, &r.ringEnergyNj, &r.snoopEnergyNj,
          &r.predictorEnergyNj, &r.downgradeEnergyNj, &r.avgReadLatency,
          &r.p50ReadLatency, &r.p95ReadLatency}) {
        *f = value;
        value += 1.25;
    }
    r.failed = true;
    r.error = "stuck at cycle 42";

    std::ostringstream oss;
    writeCsv(oss, {r});
    std::istringstream iss(oss.str());
    const auto loaded = loadCsv(iss);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(identicalRuns(loaded.front(), r));
}

TEST(RunResultEquality, NamesTheFirstDifferingField)
{
    const RunResult a = sampleResult();
    RunResult b = a;
    EXPECT_TRUE(identicalRuns(a, b));

    b.globalLinkMessages = 7;
    b.retryStormAborts = 1;
    const ::testing::AssertionResult diff = identicalRuns(a, b);
    EXPECT_FALSE(diff);
    const std::string msg = diff.message();
    EXPECT_NE(msg.find("RunResult.globalLinkMessages differs: 0 vs 7"),
              std::string::npos)
        << msg;
    EXPECT_EQ(msg.find("retryStormAborts"), std::string::npos) << msg;
}

TEST(Report, FailedCellRoundTripsWithSanitizedError)
{
    RunResult r = sampleResult();
    r.failed = true;
    r.error = "stuck: line 0x42,\ncore 3 wedged\r";

    std::ostringstream oss;
    writeCsv(oss, {r});
    // The error cell must not break the CSV structure: still one
    // header line and one row.
    std::size_t lines = 0;
    for (char c : oss.str())
        lines += c == '\n';
    EXPECT_EQ(lines, 2u);

    std::istringstream iss(oss.str());
    const auto loaded = loadCsv(iss);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(loaded.front().failed);
    // Commas/newlines were sanitized to ';' on write.
    EXPECT_EQ(loaded.front().error, "stuck: line 0x42;;core 3 wedged;");
}

TEST(Report, LoadCsvRejectsUnknownColumn)
{
    std::istringstream iss("workload,bogus_column\nmini,1\n");
    EXPECT_THROW(loadCsv(iss), std::runtime_error);
}

TEST(Report, LoadCsvNamesBadCell)
{
    std::istringstream iss("workload,exec_cycles\nmini,not_a_number\n");
    try {
        loadCsv(iss);
        FAIL() << "expected malformed cell rejection";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("exec_cycles"), std::string::npos) << msg;
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    }
}

TEST(Report, LoadCsvFileReturnsEmptyWhenMissing)
{
    EXPECT_TRUE(loadCsvFile("/nonexistent/dir/results.csv").empty());
}

} // namespace
} // namespace flexsnoop
