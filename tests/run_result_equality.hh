/**
 * @file
 * The one RunResult comparison the equivalence tests share: exact
 * equality over every field (RunResult::operator==, doubles included:
 * identical arithmetic on identical counters is bit-equal), reported by
 * the first field that differs.
 */

#ifndef FLEXSNOOP_TESTS_RUN_RESULT_EQUALITY_HH
#define FLEXSNOOP_TESTS_RUN_RESULT_EQUALITY_HH

#include <gtest/gtest.h>

#include "core/simulation.hh"

namespace flexsnoop
{

/**
 * Success when @p a == @p b; otherwise a failure naming the first
 * differing field and both of its values. Use it as
 * `EXPECT_TRUE(identicalRuns(a, b))`.
 */
inline ::testing::AssertionResult
identicalRuns(const RunResult &a, const RunResult &b)
{
    if (a == b)
        return ::testing::AssertionSuccess();
#define FS_FIRST_DIFF(field)                                              \
    if (!(a.field == b.field))                                            \
        return ::testing::AssertionFailure()                              \
               << "RunResult." #field " differs: " << a.field << " vs "   \
               << b.field;
    FS_FIRST_DIFF(workload)
    FS_FIRST_DIFF(algorithm)
    FS_FIRST_DIFF(predictor)
    FS_FIRST_DIFF(execCycles)
    FS_FIRST_DIFF(readRingRequests)
    FS_FIRST_DIFF(readSnoops)
    FS_FIRST_DIFF(snoopsPerReadRequest)
    FS_FIRST_DIFF(readLinkMessages)
    FS_FIRST_DIFF(readLinkMessagesPerRequest)
    FS_FIRST_DIFF(energyNj)
    FS_FIRST_DIFF(ringEnergyNj)
    FS_FIRST_DIFF(snoopEnergyNj)
    FS_FIRST_DIFF(predictorEnergyNj)
    FS_FIRST_DIFF(downgradeEnergyNj)
    FS_FIRST_DIFF(truePositives)
    FS_FIRST_DIFF(trueNegatives)
    FS_FIRST_DIFF(falsePositives)
    FS_FIRST_DIFF(falseNegatives)
    FS_FIRST_DIFF(writeRingRequests)
    FS_FIRST_DIFF(writeSnoops)
    FS_FIRST_DIFF(writeFiltered)
    FS_FIRST_DIFF(bridgeSkips)
    FS_FIRST_DIFF(bridgeDescends)
    FS_FIRST_DIFF(globalLinkMessages)
    FS_FIRST_DIFF(cacheSupplies)
    FS_FIRST_DIFF(memoryFetches)
    FS_FIRST_DIFF(downgrades)
    FS_FIRST_DIFF(collisions)
    FS_FIRST_DIFF(retries)
    FS_FIRST_DIFF(writebacks)
    FS_FIRST_DIFF(avgReadLatency)
    FS_FIRST_DIFF(p50ReadLatency)
    FS_FIRST_DIFF(p95ReadLatency)
    FS_FIRST_DIFF(faultLinkDecisions)
    FS_FIRST_DIFF(faultDrops)
    FS_FIRST_DIFF(faultDups)
    FS_FIRST_DIFF(faultDelays)
    FS_FIRST_DIFF(faultPredictorFlips)
    FS_FIRST_DIFF(watchdogTimeouts)
    FS_FIRST_DIFF(staleMessagesAbsorbed)
    FS_FIRST_DIFF(predictorFlipDegrades)
    FS_FIRST_DIFF(incompleteConclusionsRejected)
    FS_FIRST_DIFF(retryStormAborts)
    FS_FIRST_DIFF(failed)
    FS_FIRST_DIFF(error)
#undef FS_FIRST_DIFF
    return ::testing::AssertionFailure()
           << "RunResult differs in a field identicalRuns() does not "
              "list yet; add it there";
}

} // namespace flexsnoop

#endif // FLEXSNOOP_TESTS_RUN_RESULT_EQUALITY_HH
