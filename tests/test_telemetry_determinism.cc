/**
 * @file
 * The telemetry subsystem's observer-effect guarantees
 * (docs/TELEMETRY.md):
 *
 *  - sampling perturbs nothing: a run with metrics capture enabled has
 *    a bit-identical RunResult — every field — and a byte-identical
 *    .fstrace to the same run without it, across every paper algorithm
 *    and every builtin workload family;
 *  - determinism: the same configuration produces a byte-identical
 *    .fsmetrics every time, serially and on a parallel sweep;
 *  - the structured sweep log records every cell with the right status
 *    in both the healthy and the crashing case;
 *  - a stuck-machine post-mortem carries the telemetry lead-up.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/simulation.hh"
#include "run_result_equality.hh"
#include "telemetry/metrics_reader.hh"
#include "trace/trace_reader.hh"
#include "workload/synthetic_generator.hh"

namespace flexsnoop
{
namespace
{

std::string
readBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.is_open()) << path;
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

/** One builtin profile per workload family, shrunk test-suite fast. */
std::vector<WorkloadProfile>
familyProfiles()
{
    std::vector<WorkloadProfile> profiles;
    profiles.push_back(miniProfile());
    profiles.push_back(profileByName("barnes")); // SPLASH-2 family
    profiles.push_back(specJbbProfile());
    profiles.push_back(specWebProfile());
    for (WorkloadProfile &p : profiles) {
        p.refsPerCore = 300;
        p.warmupRefs = 100;
    }
    return profiles;
}

class MetricsObserverEffect : public ::testing::TestWithParam<Algorithm>
{
};

TEST_P(MetricsObserverEffect, SamplingPerturbsNothingOnAnyProfile)
{
    for (const WorkloadProfile &profile : familyProfiles()) {
        SCOPED_TRACE(profile.name);
        const CoreTraces traces = SyntheticGenerator(profile).generate();
        MachineConfig cfg =
            MachineConfig::paperDefault(GetParam(), profile.coresPerCmp);
        cfg.setNumCmps(profile.numCmps());

        const RunResult off = runSimulation(cfg, traces, profile.name);

        // One file per algorithm: ctest runs the instances in parallel.
        const std::string path = "/tmp/flexsnoop_test_observer_" +
                                 std::string(toString(GetParam())) +
                                 ".fsmetrics";
        cfg.metrics.path = path;
        cfg.metrics.intervalCycles = 2000;
        const RunResult on = runSimulation(cfg, traces, profile.name);

        EXPECT_TRUE(identicalRuns(off, on));
        const MetricsFile file = loadMetrics(path);
        EXPECT_GT(file.header.sampleCount, 0u)
            << "sampling must actually have happened";
        std::remove(path.c_str());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, MetricsObserverEffect,
    ::testing::ValuesIn(paperAlgorithms()),
    [](const ::testing::TestParamInfo<Algorithm> &info) {
        return std::string(toString(info.param));
    });

TEST(MetricsObserverEffectTrace, TraceBytesIdenticalWithSamplingOn)
{
    // The sharpest observer-effect probe: the event trace records the
    // machine cycle by cycle, so a byte-identical .fstrace proves the
    // sampler changed no event order, no timestamps, nothing.
    for (Algorithm a : {Algorithm::Lazy, Algorithm::SupersetAgg,
                        Algorithm::Exact}) {
        SCOPED_TRACE(std::string(toString(a)));
        WorkloadProfile profile = miniProfile();
        profile.refsPerCore = 400;
        profile.warmupRefs = 100;
        const CoreTraces traces = SyntheticGenerator(profile).generate();
        MachineConfig cfg =
            MachineConfig::paperDefault(a, profile.coresPerCmp);
        cfg.setNumCmps(profile.numCmps());

        const std::string trace_off = "/tmp/flexsnoop_test_toff.fstrace";
        const std::string trace_on = "/tmp/flexsnoop_test_ton.fstrace";
        const std::string metrics = "/tmp/flexsnoop_test_ton.fsmetrics";

        cfg.trace.path = trace_off;
        runSimulation(cfg, traces, profile.name);

        cfg.trace.path = trace_on;
        cfg.metrics.path = metrics;
        cfg.metrics.intervalCycles = 1000;
        runSimulation(cfg, traces, profile.name);

        const std::string off_bytes = readBytes(trace_off);
        ASSERT_GT(off_bytes.size(), sizeof(TraceFileHeader));
        EXPECT_TRUE(off_bytes == readBytes(trace_on))
            << "metrics capture changed the event trace";
        std::remove(trace_off.c_str());
        std::remove(trace_on.c_str());
        std::remove(metrics.c_str());
    }
}

TEST(MetricsDeterminism, SameConfigSameBytes)
{
    WorkloadProfile profile = miniProfile();
    profile.refsPerCore = 400;
    profile.warmupRefs = 100;
    const CoreTraces traces = SyntheticGenerator(profile).generate();
    MachineConfig cfg = MachineConfig::paperDefault(
        Algorithm::SupersetAgg, profile.coresPerCmp);
    cfg.setNumCmps(profile.numCmps());
    cfg.metrics.intervalCycles = 2000;

    const std::string p1 = "/tmp/flexsnoop_test_mdet1.fsmetrics";
    const std::string p2 = "/tmp/flexsnoop_test_mdet2.fsmetrics";
    cfg.metrics.path = p1;
    runSimulation(cfg, traces, profile.name);
    cfg.metrics.path = p2;
    runSimulation(cfg, traces, profile.name);

    const std::string b1 = readBytes(p1);
    ASSERT_GT(b1.size(), sizeof(MetricsFileHeader));
    // The header embeds no path/time, so the whole file must match.
    EXPECT_TRUE(b1 == readBytes(p2))
        << "same run produced different metrics bytes";
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

/** Plan for the sweep tests; metrics paths are per-cell. */
SweepPlan
sweepPlan(const CoreTraces &traces, const WorkloadProfile &profile,
          const std::string &tag, bool with_poisoned)
{
    SweepPlan plan;
    plan.traces.push_back(traces);
    std::size_t i = 0;
    for (Algorithm a : {Algorithm::Lazy, Algorithm::Subset,
                        Algorithm::SupersetAgg, Algorithm::Exact}) {
        PlannedCell cell{sweepConfig(a, profile), 0, profile.name};
        cell.cfg.metrics.path = "/tmp/flexsnoop_test_" + tag +
                                std::to_string(i++) + ".fsmetrics";
        cell.cfg.metrics.intervalCycles = 2000;
        plan.cells.push_back(std::move(cell));
    }
    if (with_poisoned) {
        // Half the messages vanish and nothing recovers them: the cell
        // deadlocks and must be logged as failed, not ok.
        PlannedCell poisoned{sweepConfig(Algorithm::Eager, profile), 0,
                             profile.name};
        poisoned.cfg.faults.dropRate = 0.5;
        poisoned.cfg.faults.seed = 3;
        poisoned.cfg.coherence.watchdogCycles = 0;
        plan.cells.push_back(std::move(poisoned));
    }
    return plan;
}

TEST(MetricsDeterminism, ParallelSweepMatchesSerialByteForByte)
{
    WorkloadProfile profile = miniProfile();
    profile.refsPerCore = 400;
    profile.warmupRefs = 100;
    const CoreTraces traces = SyntheticGenerator(profile).generate();

    const SweepPlan serial_plan = sweepPlan(traces, profile, "ser", false);
    const SweepPlan parallel_plan =
        sweepPlan(traces, profile, "par", false);
    const auto serial = runCells(serial_plan, 1);
    const auto parallel = runCells(parallel_plan, 2);
    const auto &serial_cells = serial_plan.cells;
    const auto &parallel_cells = parallel_plan.cells;

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].failed);
        EXPECT_FALSE(parallel[i].failed);
        EXPECT_TRUE(identicalRuns(serial[i], parallel[i]));
        EXPECT_TRUE(readBytes(serial_cells[i].cfg.metrics.path) ==
                    readBytes(parallel_cells[i].cfg.metrics.path))
            << "cell " << i << " metrics diverged across jobs=1/jobs=2";
        std::remove(serial_cells[i].cfg.metrics.path.c_str());
        std::remove(parallel_cells[i].cfg.metrics.path.c_str());
    }
}

TEST(SweepLogTest, RecordsEveryCellWithStatus)
{
    WorkloadProfile profile = miniProfile();
    profile.refsPerCore = 400;
    profile.warmupRefs = 100;
    const CoreTraces traces = SyntheticGenerator(profile).generate();
    const SweepPlan plan = sweepPlan(traces, profile, "log", true);
    const auto &cells = plan.cells;

    const std::string log_path = "/tmp/flexsnoop_test_sweep.jsonl";
    SweepHardening hardening;
    hardening.sweepLogPath = log_path;
    const auto results = runCells(plan, 2, hardening);
    ASSERT_EQ(results.size(), cells.size());
    EXPECT_TRUE(results.back().failed);

    std::ifstream is(log_path);
    ASSERT_TRUE(is.is_open());
    std::vector<std::string> lines;
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    // sweep_start + per-cell start/finish pairs + sweep_finish.
    ASSERT_EQ(lines.size(), 2 * cells.size() + 2);
    EXPECT_NE(lines.front().find("\"event\":\"sweep_start\""),
              std::string::npos);
    EXPECT_NE(lines.front().find("\"total\":5"), std::string::npos);
    EXPECT_NE(lines.back().find("\"event\":\"sweep_finish\""),
              std::string::npos);
    EXPECT_NE(lines.back().find("\"completed\":5"), std::string::npos);
    EXPECT_NE(lines.back().find("\"failed\":1"), std::string::npos);

    std::size_t starts = 0, oks = 0, failures = 0;
    for (const std::string &line : lines) {
        // Every line is a single JSON object with the envelope fields.
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"ts\":"), std::string::npos);
        if (line.find("\"event\":\"cell_start\"") != std::string::npos)
            ++starts;
        if (line.find("\"status\":\"ok\"") != std::string::npos)
            ++oks;
        if (line.find("\"status\":\"failed\"") != std::string::npos)
            ++failures;
        if (line.find("\"event\":\"cell_finish\"") != std::string::npos) {
            EXPECT_NE(line.find("\"wall_sec\":"), std::string::npos);
            EXPECT_NE(line.find("\"eta_sec\":"), std::string::npos);
            EXPECT_NE(line.find("\"peak_rss_kb\":"), std::string::npos);
        }
    }
    EXPECT_EQ(starts, cells.size());
    EXPECT_EQ(oks, cells.size() - 1);
    EXPECT_EQ(failures, 1u);

    for (const PlannedCell &cell : cells)
        if (!cell.cfg.metrics.path.empty())
            std::remove(cell.cfg.metrics.path.c_str());
    std::remove(log_path.c_str());
}

TEST(StuckDump, CarriesTelemetryLeadUp)
{
    WorkloadProfile profile = miniProfile();
    profile.refsPerCore = 1500;
    profile.warmupRefs = 200;
    const CoreTraces traces = SyntheticGenerator(profile).generate();

    MachineConfig cfg = sweepConfig(Algorithm::Eager, profile);
    cfg.faults.dropRate = 0.5; // drops with no watchdog: deadlock
    cfg.faults.seed = 3;
    cfg.coherence.watchdogCycles = 0;
    cfg.metrics.path = "/tmp/flexsnoop_test_stuck.fsmetrics";
    cfg.metrics.intervalCycles = 500;

    try {
        runSimulation(cfg, traces, profile.name);
        FAIL() << "a half-deaf ring without a watchdog must get stuck";
    } catch (const SimulationStuckError &e) {
        EXPECT_EQ(e.kind(), SimulationStuckError::Kind::Stuck);
        const std::string &dump = e.stuckDump();
        EXPECT_NE(dump.find("telemetry: last"), std::string::npos)
            << "stuck dump must include the metric-sample tail:\n"
            << dump;
        EXPECT_NE(dump.find("ctrl.retries:"), std::string::npos) << dump;
        EXPECT_NE(dump.find("queue.horizon:"), std::string::npos) << dump;
    }
    std::remove(cfg.metrics.path.c_str());
}

} // namespace
} // namespace flexsnoop
