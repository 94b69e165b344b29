/**
 * @file
 * Fault-injection soak tests (docs/FAULTS.md): every paper algorithm
 * runs to completion with a clean checker under injected link faults
 * and predictor soft errors, recovery counters line up with the
 * injected distribution, fault-free guarded runs are bit-identical to
 * plain runs, and the sweep runner isolates crashing cells and resumes
 * from its checkpoint.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/report.hh"
#include "core/simulation.hh"
#include "run_result_equality.hh"
#include "snoop/snoop_policy.hh"
#include "workload/synthetic_generator.hh"

namespace flexsnoop
{
namespace
{

/** mini profile shrunk so the whole soak stays test-suite fast. */
WorkloadProfile
soakProfile()
{
    WorkloadProfile profile = miniProfile();
    profile.refsPerCore = 2500;
    profile.warmupRefs = 400;
    return profile;
}

const CoreTraces &
soakTraces()
{
    static const CoreTraces traces =
        SyntheticGenerator(soakProfile()).generate();
    return traces;
}

FaultConfig
allClassFaults(double rate, std::uint64_t seed)
{
    FaultConfig faults;
    faults.dropRate = rate;
    faults.dupRate = rate;
    faults.delayRate = rate;
    faults.predictorRate = rate;
    faults.seed = seed;
    return faults;
}

struct SoakCase
{
    Algorithm algorithm;
    double rate;
};

std::vector<SoakCase>
soakCases()
{
    std::vector<SoakCase> cases;
    for (Algorithm a : paperAlgorithms())
        for (double rate : {1e-4, 1e-3})
            cases.push_back({a, rate});
    return cases;
}

class FaultSoak : public ::testing::TestWithParam<SoakCase>
{
};

TEST_P(FaultSoak, CompletesCleanlyUnderInjectedFaults)
{
    const SoakCase c = GetParam();
    MachineConfig cfg = sweepConfig(c.algorithm, soakProfile());
    cfg.faults = allClassFaults(c.rate, 42);
    cfg.coherence.watchdogCycles = 20000;

    // Completion with a clean checker: runSimulation throws on a
    // coherence violation, a stuck machine, or an unfinished core.
    const RunResult r = runSimulation(cfg, soakTraces(), "mini");

    EXPECT_GT(r.execCycles, 0u);
    EXPECT_GT(r.faultLinkDecisions, 0u)
        << "armed injector must see link traffic";

    // The injected counts must match the configured distribution. The
    // streams are seeded (deterministic), so the generous 5-sigma
    // binomial envelope documents the expectation rather than gambling.
    const double n = static_cast<double>(r.faultLinkDecisions);
    const double expected = n * c.rate;
    const double sigma = std::sqrt(expected * (1.0 - c.rate));
    const double slack = 5.0 * sigma + 3.0;
    EXPECT_NEAR(static_cast<double>(r.faultDrops), expected, slack);
    EXPECT_NEAR(static_cast<double>(r.faultDups), expected, slack);
    EXPECT_NEAR(static_cast<double>(r.faultDelays), expected, slack);

    if (c.rate >= 1e-3) {
        EXPECT_GT(r.faultDrops + r.faultDups + r.faultDelays, 0u)
            << "at 1e-3 over this much traffic, faults must land";
        // Lost conclusions are either rejected as incomplete or timed
        // out; either way recovery machinery must have engaged when
        // messages were dropped.
        if (r.faultDrops > 0) {
            EXPECT_GT(r.watchdogTimeouts +
                          r.incompleteConclusionsRejected +
                          r.staleMessagesAbsorbed,
                      0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsTwoRates, FaultSoak, ::testing::ValuesIn(soakCases()),
    [](const ::testing::TestParamInfo<SoakCase> &info) {
        return std::string(toString(info.param.algorithm)) +
               (info.param.rate < 5e-4 ? "_r1e4" : "_r1e3");
    });

TEST(FaultRecovery, WatchdogRecoversDroppedRounds)
{
    MachineConfig cfg = sweepConfig(Algorithm::Subset, soakProfile());
    cfg.faults.dropRate = 5e-3; // drops only: every loss needs recovery
    cfg.faults.seed = 7;
    cfg.coherence.watchdogCycles = 20000;
    const RunResult r = runSimulation(cfg, soakTraces(), "mini");
    EXPECT_GT(r.faultDrops, 0u);
    EXPECT_GT(r.watchdogTimeouts, 0u)
        << "dropped ring rounds must time out and reissue";
    EXPECT_EQ(r.retryStormAborts, 0u);
}

TEST(FaultRecovery, SameSeedIsBitReproducible)
{
    MachineConfig cfg =
        sweepConfig(Algorithm::SupersetAgg, soakProfile());
    cfg.faults = allClassFaults(1e-3, 1234);
    cfg.coherence.watchdogCycles = 20000;
    const RunResult a = runSimulation(cfg, soakTraces(), "mini");
    const RunResult b = runSimulation(cfg, soakTraces(), "mini");
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.faultDrops, b.faultDrops);
    EXPECT_EQ(a.faultDups, b.faultDups);
    EXPECT_EQ(a.faultDelays, b.faultDelays);
    EXPECT_EQ(a.faultPredictorFlips, b.faultPredictorFlips);
    EXPECT_EQ(a.watchdogTimeouts, b.watchdogTimeouts);
    EXPECT_EQ(a.readRingRequests, b.readRingRequests);
    EXPECT_EQ(a.energyNj, b.energyNj);
}

TEST(FaultRecovery, DisarmedConfigIsBitIdenticalToPlainRuns)
{
    // The acceptance bar of unreliable-ring mode: with --faults absent
    // (all rates zero) no injector is installed and a run is exactly
    // the run of a build that never heard of fault injection. (A
    // watchdog-armed run is a different, opt-in protocol mode: its
    // stale-traffic absorption and state sweeping legitimately change
    // message accounting, so it makes no bit-identity promise.)
    MachineConfig plain = sweepConfig(Algorithm::Exact, soakProfile());
    const RunResult base = runSimulation(plain, soakTraces(), "mini");

    MachineConfig disarmed = plain;
    disarmed.faults = FaultConfig{}; // explicit, but all rates zero
    disarmed.faults.seed = 999;      // seed alone must not arm anything
    const RunResult r = runSimulation(disarmed, soakTraces(), "mini");

    EXPECT_EQ(base.execCycles, r.execCycles);
    EXPECT_EQ(base.readRingRequests, r.readRingRequests);
    EXPECT_EQ(base.readSnoops, r.readSnoops);
    EXPECT_EQ(base.readLinkMessages, r.readLinkMessages);
    EXPECT_EQ(base.energyNj, r.energyNj);
    EXPECT_EQ(base.retries, r.retries);
    EXPECT_EQ(r.faultLinkDecisions, 0u) << "no injector installed";
    EXPECT_EQ(r.watchdogTimeouts, 0u);
    EXPECT_EQ(r.staleMessagesAbsorbed, 0u);
    EXPECT_EQ(r.incompleteConclusionsRejected, 0u);
}

TEST(FaultRecovery, WatchdogArmedFaultFreeRunStaysQuiet)
{
    // Watchdog armed on a loss-free ring: the simulation completes with
    // a clean checker and none of the recovery paths fire.
    MachineConfig cfg = sweepConfig(Algorithm::Exact, soakProfile());
    cfg.coherence.watchdogCycles = 200000; // far beyond any latency
    const RunResult r = runSimulation(cfg, soakTraces(), "mini");
    EXPECT_GT(r.execCycles, 0u);
    EXPECT_EQ(r.watchdogTimeouts, 0u);
    EXPECT_EQ(r.incompleteConclusionsRejected, 0u);
    EXPECT_EQ(r.retryStormAborts, 0u);
    EXPECT_EQ(r.faultLinkDecisions, 0u);
}

TEST(FaultRecovery, StaleNegativeConclusionAfterDataCompletesOnce)
{
    // At 5e-3 a trailing reply can overtake its delayed request, pass
    // the supplier unsnooped and conclude negative after the supplier's
    // data already completed the load; fetching from memory then
    // completed it a second time (an abort, not an exception). Seed 1
    // hits it on the flat ring and on two local rings.
    const WorkloadProfile profile = miniProfile();
    const CoreTraces traces = SyntheticGenerator(profile).generate();
    for (std::size_t local_rings : {1u, 2u}) {
        MachineConfig cfg = sweepConfig(Algorithm::Eager, profile);
        cfg.faults = allClassFaults(5e-3, 1);
        cfg.coherence.watchdogCycles = 20000;
        if (local_rings > 1) {
            cfg.topology.kind = TopologyKind::Hier;
            cfg.topology.localRings = local_rings;
        }
        const RunResult r = runSimulation(cfg, traces, profile.name);
        EXPECT_GT(r.faultDelays, 0u) << "local_rings=" << local_rings;
    }
}

TEST(FaultRecovery, GuardsChangeNoResult)
{
    // The progress and wall-clock checks run between bounded chunks of
    // the event queue, so a guarded run ends at the same cycle, with
    // every field equal, as a plain one.
    MachineConfig plain = sweepConfig(Algorithm::SupersetAgg, soakProfile());
    const RunResult base = runSimulation(plain, soakTraces(), "mini");

    MachineConfig guarded = plain;
    guarded.guards.progressCheckCycles = 10'000;
    guarded.guards.wallClockLimitSec = 600;
    EXPECT_TRUE(identicalRuns(
        runSimulation(guarded, soakTraces(), "mini"), base));
}

/** Plan for the sweep-runner tests: two good cells, optionally one
 *  bad, all on the soak traces. */
SweepPlan
hardenedPlan(bool with_poisoned)
{
    SweepPlan plan;
    plan.traces.push_back(soakTraces());
    for (Algorithm a : {Algorithm::Lazy, Algorithm::SupersetAgg})
        plan.cells.push_back(
            PlannedCell{sweepConfig(a, soakProfile()), 0, "mini"});
    if (with_poisoned) {
        // Half the messages vanish and nothing recovers them (no
        // watchdog): the machine deadlocks and the run must surface a
        // SimulationStuckError instead of wedging the whole sweep.
        PlannedCell poisoned{sweepConfig(Algorithm::Eager, soakProfile()),
                             0, "mini"};
        poisoned.cfg.faults.dropRate = 0.5;
        poisoned.cfg.faults.seed = 3;
        poisoned.cfg.coherence.watchdogCycles = 0;
        plan.cells.push_back(std::move(poisoned));
    }
    return plan;
}

TEST(HardenedSweep, SerialAndParallelAreBitIdentical)
{
    const SweepPlan plan = hardenedPlan(false);
    const auto serial = runCells(plan, 1);
    // A cell's wall-clock budget changes no result either.
    SweepHardening budget;
    budget.cellWallClockLimitSec = 600;
    const auto parallel = runCells(plan, 4, budget);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].failed);
        EXPECT_TRUE(identicalRuns(serial[i], parallel[i])) << i;
    }
}

TEST(HardenedSweep, CrashIsolationCheckpointAndResume)
{
    const std::string checkpoint =
        "/tmp/flexsnoop_fault_soak_checkpoint.csv";
    const std::string dumpdir = "/tmp/flexsnoop_fault_soak_dumps";
    std::remove(checkpoint.c_str());
    std::filesystem::remove_all(dumpdir);

    SweepHardening hardening;
    hardening.checkpointPath = checkpoint;
    hardening.dumpDir = dumpdir;

    const SweepPlan plan = hardenedPlan(true);
    const auto first = runCells(plan, 2, hardening);
    ASSERT_EQ(first.size(), 3u);
    EXPECT_FALSE(first[0].failed);
    EXPECT_FALSE(first[1].failed);
    EXPECT_TRUE(first[2].failed)
        << "the poisoned cell must fail in isolation";
    EXPECT_FALSE(first[2].error.empty());

    // The stuck-transaction dump of the deadlocked cell was written.
    bool dump_found = false;
    for (const auto &entry :
         std::filesystem::directory_iterator(dumpdir))
        dump_found = dump_found || entry.path().string().find("stuck") !=
                                       std::string::npos;
    EXPECT_TRUE(dump_found);

    // Resume: the good cells are served from the checkpoint (identical
    // results), the failed cell is retried and fails again.
    const auto second = runCells(plan, 2, hardening);
    ASSERT_EQ(second.size(), 3u);
    EXPECT_EQ(second[0].execCycles, first[0].execCycles);
    EXPECT_EQ(second[1].execCycles, first[1].execCycles);
    EXPECT_TRUE(second[2].failed);
    // Resumed rows print exactly as the fresh ones did, every column.
    std::ostringstream fresh, resumed;
    writeCsv(fresh, {first[0], first[1]});
    writeCsv(resumed, {second[0], second[1]});
    EXPECT_EQ(resumed.str(), fresh.str());

    std::remove(checkpoint.c_str());
    std::filesystem::remove_all(dumpdir);
}

} // namespace
} // namespace flexsnoop
