/**
 * @file
 * Tests for the worker-pool executor and the sweep runner on it:
 * submission-ordered results, exception propagation, a thread-stress
 * test (meaningful under ThreadSanitizer), and the headline guarantee
 * — parallel sweeps are bit-identical to serial.
 */

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/parallel_executor.hh"
#include "run_result_equality.hh"

namespace flexsnoop
{
namespace
{

TEST(ParallelExecutor, DefaultWorkersIsPositive)
{
    EXPECT_GE(ParallelExecutor::defaultWorkers(), 1u);
}

TEST(ParallelExecutor, RunsEveryJobExactlyOnce)
{
    ParallelExecutor pool(4);
    constexpr std::size_t kJobs = 200;
    std::vector<std::atomic<int>> hits(kJobs);
    std::vector<ParallelExecutor::Job> jobs;
    for (std::size_t i = 0; i < kJobs; ++i)
        jobs.push_back([&hits, i]() { hits[i].fetch_add(1); });
    pool.run(jobs);
    for (std::size_t i = 0; i < kJobs; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "job " << i;
}

TEST(ParallelExecutor, MapReturnsResultsInSubmissionOrder)
{
    ParallelExecutor pool(8);
    const std::vector<int> out =
        pool.map(500, [](std::size_t i) { return static_cast<int>(i * 3); });
    ASSERT_EQ(out.size(), 500u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * 3));
}

TEST(ParallelExecutor, SerialModeSpawnsNoThreads)
{
    ParallelExecutor serial0(0);
    ParallelExecutor serial1(1);
    EXPECT_EQ(serial0.workers(), 0u);
    EXPECT_EQ(serial1.workers(), 0u);
    const auto out = serial1.map(10, [](std::size_t i) { return i; });
    ASSERT_EQ(out.size(), 10u);
    EXPECT_EQ(out[9], 9u);
}

TEST(ParallelExecutor, EmptyBatchIsANoOp)
{
    ParallelExecutor pool(2);
    pool.run({});
    EXPECT_EQ(pool.map(0, [](std::size_t) { return 0; }).size(), 0u);
}

TEST(ParallelExecutor, RethrowsFirstExceptionBySubmissionIndex)
{
    ParallelExecutor pool(4);
    std::vector<ParallelExecutor::Job> jobs;
    for (std::size_t i = 0; i < 64; ++i) {
        jobs.push_back([i]() {
            if (i == 7 || i == 40)
                throw std::runtime_error("job " + std::to_string(i));
        });
    }
    try {
        pool.run(jobs);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 7");
    }
}

TEST(ParallelExecutor, FailedBatchLeavesPoolUsable)
{
    ParallelExecutor pool(2);
    EXPECT_THROW(pool.run({[]() { throw std::runtime_error("boom"); }}),
                 std::runtime_error);
    const auto out = pool.map(8, [](std::size_t i) { return i + 1; });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), std::size_t{0}),
              36u);
}

/**
 * Many small batches through one pool with more jobs than workers;
 * run under TSan this exercises the wake/dispatch/drain handshake for
 * races.
 */
TEST(ParallelExecutor, StressManyBatches)
{
    ParallelExecutor pool(8);
    std::atomic<std::uint64_t> total{0};
    for (int batch = 0; batch < 50; ++batch) {
        std::vector<ParallelExecutor::Job> jobs;
        for (int i = 0; i < 37; ++i)
            jobs.push_back([&total]() { total.fetch_add(1); });
        pool.run(jobs);
    }
    EXPECT_EQ(total.load(), 50u * 37u);
}

// --- Sweeps on the worker pool ---------------------------------------

WorkloadProfile
testProfile()
{
    WorkloadProfile p = miniProfile();
    p.refsPerCore = 700;
    p.warmupRefs = 200;
    return p;
}

TEST(RunSweeps, BitIdenticalToSerialSweep)
{
    const std::vector<Algorithm> algos = {
        Algorithm::Lazy, Algorithm::Eager, Algorithm::SupersetAgg,
        Algorithm::Subset};
    const WorkloadProfile profile = testProfile();

    const auto serial = runSweeps(algos, {profile}, 1);
    const auto parallel = runSweeps(algos, {profile}, 8);

    ASSERT_EQ(serial.size(), 1u);
    ASSERT_EQ(parallel.size(), 1u);
    EXPECT_EQ(serial[0].workload, parallel[0].workload);
    ASSERT_EQ(serial[0].runs.size(), algos.size());
    ASSERT_EQ(parallel[0].runs.size(), algos.size());
    for (std::size_t i = 0; i < algos.size(); ++i) {
        EXPECT_EQ(serial[0].runs[i].algorithm, toString(algos[i]));
        EXPECT_TRUE(
            identicalRuns(serial[0].runs[i], parallel[0].runs[i]));
    }
}

TEST(RunSweeps, MatchesPerProfileSerialSweeps)
{
    const std::vector<Algorithm> algos = {Algorithm::Lazy,
                                          Algorithm::Oracle};
    WorkloadProfile a = testProfile();
    WorkloadProfile b = testProfile();
    b.name = "mini-b";
    b.seed = 99;

    const auto matrix = runSweeps(algos, {a, b}, 8);
    ASSERT_EQ(matrix.size(), 2u);
    EXPECT_EQ(matrix[0].workload, a.name);
    EXPECT_EQ(matrix[1].workload, b.name);

    const auto serial_a = runSweeps(algos, {a}, 1);
    const auto serial_b = runSweeps(algos, {b}, 1);
    ASSERT_EQ(matrix[0].runs.size(), algos.size());
    ASSERT_EQ(matrix[1].runs.size(), algos.size());
    for (std::size_t i = 0; i < algos.size(); ++i) {
        EXPECT_TRUE(
            identicalRuns(serial_a[0].runs[i], matrix[0].runs[i]));
        EXPECT_TRUE(
            identicalRuns(serial_b[0].runs[i], matrix[1].runs[i]));
    }
}

TEST(RunSweeps, OverridePredictorAppliesInParallel)
{
    const std::vector<Algorithm> algos = {Algorithm::SupersetAgg};
    const WorkloadProfile profile = testProfile();
    const auto serial = runSweeps(algos, {profile}, 1, "y512");
    const auto parallel = runSweeps(algos, {profile}, 4, "y512");
    ASSERT_EQ(parallel[0].runs.size(), 1u);
    EXPECT_EQ(parallel[0].runs[0].predictor, serial[0].runs[0].predictor);
    EXPECT_TRUE(identicalRuns(serial[0].runs[0], parallel[0].runs[0]));
}

} // namespace
} // namespace flexsnoop
