/**
 * @file
 * The two observation channels of one run agree (docs/TELEMETRY.md,
 * `flexsnoop_metrics --align`): a `.fstrace` CounterSnapshot and a
 * `.fsmetrics` sample read the same cumulative ctrl.* counters, so per
 * counter their merged (cycle, value) points past the warmup barrier
 * never decrease.
 *
 * The capture test runs `mini` at full length with the CLI's default
 * snapshot cadence and a 5000-cycle metrics interval. It holds only if
 * a snapshot carries the cycle its counters were read: the record that
 * triggers it may be a Hop, stamped with its link start cycle, which is
 * later than the read while the link is busy. Stamped that way, Oracle,
 * Subset and Exact put a snapshot after a metric sample that had
 * already read a higher value.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/simulation.hh"
#include "telemetry/metrics_align.hh"
#include "trace/trace_format.hh"
#include "workload/synthetic_generator.hh"

namespace flexsnoop
{
namespace
{

TraceRecord
snapshotRecord(Cycle cycle, TraceCounterId id, std::uint64_t value)
{
    TraceRecord r;
    r.cycle = cycle;
    r.type = static_cast<std::uint16_t>(TraceEvent::CounterSnapshot);
    r.a = static_cast<std::uint16_t>(id);
    r.arg0 = value;
    return r;
}

/** A metrics file with one ctrl.read_snoops column. */
MetricsFile
readSnoopSamples(std::vector<std::uint64_t> cycles,
                 std::vector<std::uint64_t> values)
{
    MetricsFile file;
    file.names = {"ctrl.read_snoops"};
    file.kinds = {SeriesKind::Counter};
    file.cycles = std::move(cycles);
    file.columns = {std::move(values)};
    return file;
}

TEST(MetricsAlign, ReportsTheFirstDropInMergedOrder)
{
    // The snapshot stamped 150005 read 775, but the sample at 150000
    // had already read 776: the snapshot's stamp is later than its read.
    const MetricsFile metrics =
        readSnoopSamples({145000, 150000, 155000}, {770, 776, 790});
    const TraceFile trace({
        snapshotRecord(140000, TraceCounterId::ReadSnoops, 760),
        snapshotRecord(150005, TraceCounterId::ReadSnoops, 775),
    });
    const AlignmentReport report = alignMetricsWithTrace(metrics, trace);
    ASSERT_EQ(report.counters.size(), 1u);
    const CounterAlignment &c = report.counters[0];
    EXPECT_EQ(c.series, "ctrl.read_snoops");
    EXPECT_EQ(c.tracePoints, 2u);
    EXPECT_EQ(c.metricPoints, 3u);
    EXPECT_FALSE(c.consistent);
    EXPECT_EQ(c.drop.cycle, 150005u);
    EXPECT_EQ(c.drop.value, 775u);
    EXPECT_EQ(c.before.cycle, 150000u);
    EXPECT_EQ(c.before.value, 776u);
    EXPECT_FALSE(report.consistent());
}

TEST(MetricsAlign, SameCycleReadingsOrderByValueAndBarrierExcludesWarmup)
{
    // A snapshot taken mid-cycle may read more than the sample taken at
    // the start of that cycle; pre-barrier points are never compared.
    MetricsFile metrics =
        readSnoopSamples({5000, 10000, 20000}, {900, 3, 9});
    metrics.header.measureStartCycle = 8000;
    TraceRecord barrier;
    barrier.cycle = 8000;
    barrier.type = static_cast<std::uint16_t>(TraceEvent::MeasureStart);
    const TraceFile trace({
        snapshotRecord(6000, TraceCounterId::ReadSnoops, 950),
        barrier,
        snapshotRecord(10000, TraceCounterId::ReadSnoops, 5),
    });
    const AlignmentReport report = alignMetricsWithTrace(metrics, trace);
    EXPECT_EQ(report.barrier, 8000u);
    ASSERT_EQ(report.counters.size(), 1u);
    EXPECT_EQ(report.counters[0].tracePoints, 1u);
    EXPECT_EQ(report.counters[0].metricPoints, 2u);
    EXPECT_TRUE(report.consistent());
}

TEST(MetricsAlign, NoSharedCounterMeansAnEmptyReport)
{
    MetricsFile metrics = readSnoopSamples({5000}, {1});
    metrics.names = {"mem.reads"};
    const TraceFile trace(std::vector<TraceRecord>{});
    const AlignmentReport report = alignMetricsWithTrace(metrics, trace);
    EXPECT_TRUE(report.counters.empty());
    EXPECT_TRUE(report.consistent());
}

class MetricsTraceAlignment : public ::testing::TestWithParam<Algorithm>
{
};

TEST_P(MetricsTraceAlignment, SnapshotsAlignWithSamplesOnMini)
{
    const WorkloadProfile profile = miniProfile();
    const CoreTraces traces = SyntheticGenerator(profile).generate();
    MachineConfig cfg =
        MachineConfig::paperDefault(GetParam(), profile.coresPerCmp);
    cfg.setNumCmps(profile.numCmps());

    // One pair of files per algorithm: ctest runs the instances in
    // parallel.
    const std::string stem = "/tmp/flexsnoop_test_align_" +
                             std::string(toString(GetParam()));
    cfg.trace.path = stem + ".fstrace";
    cfg.metrics.path = stem + ".fsmetrics";
    cfg.metrics.intervalCycles = 5000;
    ASSERT_EQ(cfg.trace.snapshotCycles, 10000u) << "the CLI default";
    runSimulation(cfg, traces, profile.name);

    const AlignmentReport report = alignMetricsWithTrace(
        loadMetrics(cfg.metrics.path), loadTrace(cfg.trace.path));
    std::remove(cfg.trace.path.c_str());
    std::remove(cfg.metrics.path.c_str());

    ASSERT_EQ(report.counters.size(),
              static_cast<std::size_t>(TraceCounterId::NumCounters));
    for (const CounterAlignment &c : report.counters) {
        SCOPED_TRACE(c.series);
        EXPECT_GT(c.tracePoints, 0u);
        EXPECT_GT(c.metricPoints, 0u);
        EXPECT_TRUE(c.consistent)
            << c.drop.value << " at cycle " << c.drop.cycle << " after "
            << c.before.value << " at cycle " << c.before.cycle;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, MetricsTraceAlignment,
    ::testing::ValuesIn(paperAlgorithms()),
    [](const ::testing::TestParamInfo<Algorithm> &info) {
        return std::string(toString(info.param));
    });

} // namespace
} // namespace flexsnoop
