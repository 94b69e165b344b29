/**
 * @file
 * Health detectors over metric time series (docs/TELEMETRY.md), both
 * on synthetic series with hand-placed onsets and end-to-end against
 * fault-schedule ground truth: a fault injector armed at
 * FaultConfig::startCycle = S must make the matching detector fire
 * with an onset within one sampling interval of S.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/simulation.hh"
#include "sim/fault_injector.hh"
#include "telemetry/health.hh"
#include "telemetry/metrics_reader.hh"
#include "workload/synthetic_generator.hh"

namespace flexsnoop
{
namespace
{

/** Build an in-memory MetricsFile with @p interval between samples. */
MetricsFile
makeFile(std::uint64_t interval, std::size_t samples)
{
    MetricsFile file;
    file.header.intervalCycles = interval;
    file.header.sampleCount = samples;
    file.header.numNodes = 8;
    file.header.measureStartCycle = 0;
    for (std::size_t i = 0; i < samples; ++i)
        file.cycles.push_back(interval * (i + 1));
    return file;
}

void
addSeries(MetricsFile &file, const std::string &name, SeriesKind kind,
          std::vector<std::uint64_t> values)
{
    file.names.push_back(name);
    file.kinds.push_back(kind);
    file.columns.push_back(std::move(values));
    file.header.seriesCount = static_cast<std::uint32_t>(file.names.size());
}

const HealthFinding *
findDetector(const std::vector<HealthFinding> &findings,
             const std::string &detector)
{
    for (const HealthFinding &f : findings)
        if (f.detector == detector)
            return &f;
    return nullptr;
}

TEST(HealthSynthetic, RetryStormOnsetIsExact)
{
    MetricsFile file = makeFile(1000, 12);
    // Cumulative retries: flat for 6 intervals (baseline 0), then 100
    // per interval (100/kcycle) from sample 7 onward.
    std::vector<std::uint64_t> retries;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 12; ++i) {
        if (i >= 6)
            v += 100;
        retries.push_back(v);
    }
    addSeries(file, "ctrl.retries", SeriesKind::Counter, retries);

    const auto findings = runHealthDetectors(file);
    const HealthFinding *storm = findDetector(findings, "retry_storm");
    ASSERT_NE(storm, nullptr);
    EXPECT_TRUE(storm->fired) << storm->detail;
    // The first elevated interval is (6000, 7000]: its onset is the
    // interval's start.
    EXPECT_EQ(storm->onsetCycle, 6000u);
    EXPECT_DOUBLE_EQ(storm->peak, 100.0);
    EXPECT_DOUBLE_EQ(storm->baseline, 0.0);
}

TEST(HealthSynthetic, ShortSpikeDoesNotFire)
{
    MetricsFile file = makeFile(1000, 12);
    // Two elevated intervals, then flat again: under the default
    // sustain of 3 the detector must hold fire.
    std::vector<std::uint64_t> retries;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 12; ++i) {
        if (i == 6 || i == 7)
            v += 100;
        retries.push_back(v);
    }
    addSeries(file, "ctrl.retries", SeriesKind::Counter, retries);

    const auto findings = runHealthDetectors(file);
    const HealthFinding *storm = findDetector(findings, "retry_storm");
    ASSERT_NE(storm, nullptr);
    EXPECT_FALSE(storm->fired) << storm->detail;
    EXPECT_DOUBLE_EQ(storm->peak, 100.0) << "peak is reported anyway";

    HealthThresholds relaxed;
    relaxed.sustainSamples = 2;
    const auto refired = runHealthDetectors(file, relaxed);
    EXPECT_TRUE(findDetector(refired, "retry_storm")->fired)
        << "the same spike must fire once sustain allows it";
}

TEST(HealthSynthetic, PredictorDriftOnsetIsExact)
{
    MetricsFile file = makeFile(1000, 14);
    // 100 predictions per interval; perfect until sample 8, then 80%
    // correct — a 20 ppt drop against the 5 ppt default trip.
    std::vector<std::uint64_t> total, correct;
    std::uint64_t t = 0, c = 0;
    for (std::size_t i = 0; i < 14; ++i) {
        t += 100;
        c += (i >= 8) ? 80 : 100;
        total.push_back(t);
        correct.push_back(c);
    }
    addSeries(file, "pred.predictions", SeriesKind::Counter, total);
    addSeries(file, "pred.correct", SeriesKind::Counter, correct);

    const auto findings = runHealthDetectors(file);
    const HealthFinding *drift = findDetector(findings, "predictor_drift");
    ASSERT_NE(drift, nullptr);
    EXPECT_TRUE(drift->fired) << drift->detail;
    EXPECT_EQ(drift->onsetCycle, 8000u);
    EXPECT_DOUBLE_EQ(drift->baseline, 1.0);
    EXPECT_DOUBLE_EQ(drift->peak, 0.8) << "worst accuracy";
}

TEST(HealthSynthetic, DriftSkipsLowVolumeIntervals)
{
    MetricsFile file = makeFile(1000, 14);
    // Intervals with fewer than minPredictions deltas carry no signal:
    // an idle predictor whose tiny samples are all wrong must not trip.
    std::vector<std::uint64_t> total, correct;
    std::uint64_t t = 0, c = 0;
    for (std::size_t i = 0; i < 14; ++i) {
        if (i % 2 == 0) {
            t += 100;
            c += 100; // high-volume intervals: perfect
        } else {
            t += 4; // low-volume intervals: all wrong, below the floor
        }
        total.push_back(t);
        correct.push_back(c);
    }
    addSeries(file, "pred.predictions", SeriesKind::Counter, total);
    addSeries(file, "pred.correct", SeriesKind::Counter, correct);

    const auto findings = runHealthDetectors(file);
    const HealthFinding *drift = findDetector(findings, "predictor_drift");
    ASSERT_NE(drift, nullptr);
    EXPECT_FALSE(drift->fired) << drift->detail;
}

TEST(HealthSynthetic, RingSaturationPerRingOnset)
{
    MetricsFile file = makeFile(1000, 10);
    // ring0 saturates (7 of 8 links busy) from sample 4; ring1 idles.
    std::vector<std::uint64_t> busy0, busy1;
    for (std::size_t i = 0; i < 10; ++i) {
        busy0.push_back(i >= 4 ? 7 : 1);
        busy1.push_back(1);
    }
    addSeries(file, "ring0.busy_links", SeriesKind::Gauge, busy0);
    addSeries(file, "ring1.busy_links", SeriesKind::Gauge, busy1);

    const auto findings = runHealthDetectors(file);
    ASSERT_EQ(findings.size(), 2u) << "one finding per busy_links series";
    const HealthFinding *fired = nullptr;
    const HealthFinding *quiet = nullptr;
    for (const HealthFinding &f : findings) {
        EXPECT_EQ(f.detector, "ring_saturation");
        (f.series == "ring0.busy_links" ? fired : quiet) = &f;
    }
    ASSERT_NE(fired, nullptr);
    ASSERT_NE(quiet, nullptr);
    EXPECT_TRUE(fired->fired) << fired->detail;
    EXPECT_EQ(fired->onsetCycle, 5000u) << "gauge onsets at its sample";
    EXPECT_DOUBLE_EQ(fired->peak, 7.0 / 8.0);
    EXPECT_FALSE(quiet->fired) << quiet->detail;
}

TEST(HealthSynthetic, QueueHorizonBlowout)
{
    MetricsFile file = makeFile(1000, 12);
    // Baseline horizon ~2000 cycles, then 200k (over both the absolute
    // floor and 16x baseline) from sample 6.
    std::vector<std::uint64_t> horizon;
    for (std::size_t i = 0; i < 12; ++i)
        horizon.push_back(i >= 6 ? 200000 : 2000);
    addSeries(file, "queue.horizon", SeriesKind::Gauge, horizon);

    const auto findings = runHealthDetectors(file);
    const HealthFinding *blow = findDetector(findings, "queue_horizon");
    ASSERT_NE(blow, nullptr);
    EXPECT_TRUE(blow->fired) << blow->detail;
    EXPECT_EQ(blow->onsetCycle, 7000u);
    EXPECT_DOUBLE_EQ(blow->baseline, 2000.0);
}

TEST(HealthSynthetic, WarmupSamplesAreExcluded)
{
    MetricsFile file = makeFile(1000, 12);
    file.header.measureStartCycle = 6500;
    // A violent warmup storm that ends before the barrier: everything
    // before measure start is excluded, so nothing fires.
    std::vector<std::uint64_t> retries;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 12; ++i) {
        if (i < 6)
            v += 500;
        retries.push_back(v);
    }
    addSeries(file, "ctrl.retries", SeriesKind::Counter, retries);

    const auto findings = runHealthDetectors(file);
    const HealthFinding *storm = findDetector(findings, "retry_storm");
    ASSERT_NE(storm, nullptr);
    EXPECT_FALSE(storm->fired) << storm->detail;
}

TEST(HealthSynthetic, DetectorsWithMissingSeriesAreSkipped)
{
    MetricsFile file = makeFile(1000, 12);
    std::vector<std::uint64_t> retries(12, 0);
    addSeries(file, "ctrl.retries", SeriesKind::Counter, retries);

    const auto findings = runHealthDetectors(file);
    EXPECT_NE(findDetector(findings, "retry_storm"), nullptr);
    EXPECT_EQ(findDetector(findings, "predictor_drift"), nullptr);
    EXPECT_EQ(findDetector(findings, "ring_saturation"), nullptr);
    EXPECT_EQ(findDetector(findings, "queue_horizon"), nullptr);
}

// End-to-end ground truth ---------------------------------------------
//
// The fault injector's startCycle gate gives the exact cycle a
// pathology begins; the detector's reported onset must land within one
// sampling interval of it (the first elevated interval can start up to
// one interval before the schedule and the signal may need a fraction
// of an interval to build).

constexpr Cycle kFaultStart = 250000;
constexpr Cycle kInterval = 5000;

void
expectOnsetNear(const HealthFinding &f, Cycle scheduled)
{
    EXPECT_TRUE(f.fired) << f.detail;
    EXPECT_GE(f.onsetCycle, scheduled - kInterval) << f.detail;
    EXPECT_LE(f.onsetCycle, scheduled + 4 * kInterval) << f.detail;
}

TEST(HealthGroundTruth, RetryStormOnsetMatchesFaultSchedule)
{
    const WorkloadProfile profile = miniProfile();
    const CoreTraces traces = SyntheticGenerator(profile).generate();
    MachineConfig cfg = sweepConfig(Algorithm::SupersetAgg, profile);
    cfg.faults.dropRate = 0.02;
    cfg.faults.seed = 5;
    cfg.faults.startCycle = kFaultStart;
    cfg.coherence.watchdogCycles = 4000;
    cfg.coherence.maxRetries = 64;
    cfg.metrics.path = "/tmp/flexsnoop_test_storm.fsmetrics";
    cfg.metrics.intervalCycles = kInterval;

    const RunResult r = runSimulation(cfg, traces, profile.name);
    EXPECT_GT(r.faultDrops, 0u);

    const MetricsFile file = loadMetrics(cfg.metrics.path);
    const auto findings = runHealthDetectors(file);
    const HealthFinding *storm = findDetector(findings, "retry_storm");
    ASSERT_NE(storm, nullptr);
    expectOnsetNear(*storm, kFaultStart);
    std::remove(cfg.metrics.path.c_str());
}

TEST(HealthGroundTruth, PredictorDriftOnsetMatchesFaultSchedule)
{
    const WorkloadProfile profile = miniProfile();
    const CoreTraces traces = SyntheticGenerator(profile).generate();
    MachineConfig cfg = sweepConfig(Algorithm::Subset, profile);
    cfg.faults.predictorRate = 0.2;
    cfg.faults.seed = 5;
    cfg.faults.startCycle = kFaultStart;
    cfg.metrics.path = "/tmp/flexsnoop_test_drift.fsmetrics";
    cfg.metrics.intervalCycles = kInterval;

    const RunResult r = runSimulation(cfg, traces, profile.name);
    EXPECT_GT(r.faultPredictorFlips, 0u);

    const MetricsFile file = loadMetrics(cfg.metrics.path);
    const auto findings = runHealthDetectors(file);
    const HealthFinding *drift = findDetector(findings, "predictor_drift");
    ASSERT_NE(drift, nullptr);
    expectOnsetNear(*drift, kFaultStart);
    std::remove(cfg.metrics.path.c_str());
}

TEST(HealthGroundTruth, CleanRunFiresNoDetector)
{
    const WorkloadProfile profile = miniProfile();
    const CoreTraces traces = SyntheticGenerator(profile).generate();
    MachineConfig cfg = sweepConfig(Algorithm::Subset, profile);
    cfg.metrics.path = "/tmp/flexsnoop_test_clean.fsmetrics";
    cfg.metrics.intervalCycles = kInterval;

    runSimulation(cfg, traces, profile.name);
    const MetricsFile file = loadMetrics(cfg.metrics.path);
    const auto findings = runHealthDetectors(file);
    EXPECT_FALSE(findings.empty());
    for (const HealthFinding &f : findings)
        EXPECT_FALSE(f.fired)
            << f.detector << " fired on a healthy run: " << f.detail;
    std::remove(cfg.metrics.path.c_str());
}

TEST(FaultSchedule, SpecParsesStartCycle)
{
    const FaultConfig faults =
        FaultConfig::fromSpec("drop=0.01,seed=9,start=5000");
    EXPECT_EQ(faults.startCycle, 5000u);
    EXPECT_NE(faults.describe().find("start=5000"), std::string::npos);
    EXPECT_EQ(FaultConfig::fromSpec("drop=0.01").startCycle, 0u);
}

TEST(FaultSchedule, DormantInjectorActsAfterStartOnly)
{
    // Faults scheduled past the end of the run never act: the injector
    // is installed but dormant, makes no per-message decisions, and
    // the run matches a fault-free one exactly. Arming faults also arms
    // the liveness guard, which schedules no event, so the baseline
    // runs without one.
    WorkloadProfile profile = miniProfile();
    profile.refsPerCore = 500;
    profile.warmupRefs = 100;
    const CoreTraces traces = SyntheticGenerator(profile).generate();

    MachineConfig plain = sweepConfig(Algorithm::Lazy, profile);
    const RunResult base = runSimulation(plain, traces, profile.name);

    MachineConfig gated = plain;
    gated.faults.dropRate = 0.5;
    gated.faults.seed = 3;
    gated.faults.startCycle = base.execCycles * 100; // far past the end
    const RunResult r = runSimulation(gated, traces, profile.name);
    EXPECT_EQ(r.faultLinkDecisions, 0u) << "dormant injector decided";
    EXPECT_EQ(r.faultDrops, 0u);
    EXPECT_EQ(base.execCycles, r.execCycles);
    EXPECT_EQ(base.readRingRequests, r.readRingRequests);
    EXPECT_EQ(base.readLinkMessages, r.readLinkMessages);
    EXPECT_EQ(base.energyNj, r.energyNj);
    EXPECT_EQ(base.retries, r.retries);
}

} // namespace
} // namespace flexsnoop
