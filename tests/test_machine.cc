/**
 * @file
 * Unit tests for the Machine facade: construction per configuration,
 * event-wheel sizing, stat reset at the warmup boundary, energy
 * finalization, and the predictor-accuracy aggregation the benches
 * rely on.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "core/simulation.hh"
#include "predictor/exact_predictor.hh"
#include "workload/synthetic_generator.hh"

namespace flexsnoop
{
namespace
{

Addr
lineAt(std::uint64_t idx)
{
    return idx * kLineSizeBytes;
}

TEST(Machine, BuildsPaperDefault)
{
    Machine machine(MachineConfig::paperDefault(Algorithm::SupersetAgg));
    EXPECT_EQ(machine.numNodes(), 8u);
    EXPECT_EQ(machine.ring().numRings(), 2u);
    EXPECT_EQ(machine.controller().coresPerCmp(), 4u);
    EXPECT_EQ(machine.policy().algorithm(), Algorithm::SupersetAgg);
    for (NodeId n = 0; n < machine.numNodes(); ++n)
        EXPECT_NE(machine.node(n).predictor(), nullptr);
}

TEST(Machine, SizesTheEventWheelFromItsHotLatencies)
{
    // The near wheel covers the largest single hot-path latency (710
    // cycles in testDefault), rounded up to a power of two.
    const MachineConfig cfg = MachineConfig::testDefault(Algorithm::Lazy);
    EXPECT_EQ(cfg.eventQueueNearBuckets(), 710u);
    Machine machine(cfg);
    EXPECT_EQ(machine.queue().nearBuckets(), 1024u);
}

TEST(Machine, LazyNeedsNoPredictor)
{
    Machine machine(MachineConfig::paperDefault(Algorithm::Lazy));
    for (NodeId n = 0; n < machine.numNodes(); ++n)
        EXPECT_EQ(machine.node(n).predictor(), nullptr);
}

TEST(Machine, ExactPredictorWiredToDowngrade)
{
    MachineConfig cfg = MachineConfig::testDefault(Algorithm::Exact);
    // A tiny predictor (4 sets) whose sets are finer than the L2's (64
    // sets): the fills below collide in the predictor only.
    cfg.predictor = PredictorConfig::exact(32);
    Machine machine(cfg);
    // Fill one more supplier line than one predictor set holds; the
    // eviction must downgrade the victim in the L2 (not just forget it).
    CmpNode &node = machine.node(0);
    const std::size_t ways = cfg.predictor.ways;
    const std::size_t sets = cfg.predictor.entries / ways;
    for (std::size_t i = 0; i <= ways; ++i)
        node.fillForWrite(0, lineAt(1 + i * sets)); // same predictor set
    EXPECT_EQ(machine.downgrades(), 1u);
    EXPECT_EQ(machine.energy().count(EnergyEvent::DowngradeWriteback),
              1u);
}

TEST(Machine, OraclePredictorSeesActualState)
{
    Machine machine(MachineConfig::testDefault(Algorithm::Oracle));
    CmpNode &node = machine.node(1);
    EXPECT_FALSE(node.predictor()->predict(lineAt(9)));
    node.fillForWrite(0, lineAt(9));
    EXPECT_TRUE(node.predictor()->predict(lineAt(9)));
}

TEST(Machine, ResetStatsClearsEverything)
{
    Machine machine(MachineConfig::testDefault(Algorithm::SupersetAgg));
    machine.controller().setCompletionHandler([](CoreId, Addr, bool) {});
    machine.controller().coreRead(0, lineAt(1));
    machine.queue().run();
    EXPECT_GT(machine.energy().totalNj(), 0.0);
    EXPECT_GT(machine.controller().stats().counterValue("reads"), 0u);
    machine.resetStats();
    EXPECT_DOUBLE_EQ(machine.energy().totalNj(), 0.0);
    EXPECT_EQ(machine.controller().stats().counterValue("reads"), 0u);
    EXPECT_EQ(machine.memory().reads(), 0u);
    EXPECT_EQ(machine.predictorTruePositives() +
                  machine.predictorTrueNegatives() +
                  machine.predictorFalsePositives() +
                  machine.predictorFalseNegatives(),
              0u);
}

TEST(Machine, FinalizeEnergyAddsPredictorActivity)
{
    Machine machine(MachineConfig::testDefault(Algorithm::SupersetCon));
    machine.controller().setCompletionHandler([](CoreId, Addr, bool) {});
    machine.controller().coreRead(0, lineAt(1));
    machine.queue().run();
    EXPECT_EQ(machine.energy().count(EnergyEvent::PredictorAccess), 0u);
    machine.finalizeEnergy();
    EXPECT_GT(machine.energy().count(EnergyEvent::PredictorAccess), 0u);
}

TEST(Machine, PredictorAccuracyAggregatesOverNodes)
{
    Machine machine(MachineConfig::testDefault(Algorithm::SupersetCon));
    machine.controller().setCompletionHandler([](CoreId, Addr, bool) {});
    machine.node(2).fillForWrite(0, lineAt(1));
    machine.controller().coreRead(0, lineAt(1));
    machine.queue().run();
    // Node 2 predicted positive (true), nodes 1 predicted negative; the
    // found message passes node 3 without a check.
    EXPECT_EQ(machine.predictorTruePositives(), 1u);
    EXPECT_GE(machine.predictorTrueNegatives(), 1u);
}

TEST(Machine, ConfigMismatchedPredictorAsserts)
{
    MachineConfig cfg = MachineConfig::testDefault(Algorithm::Lazy);
    cfg.predictor = PredictorConfig::subset(512); // Lazy wants none
    EXPECT_DEATH({ Machine machine(cfg); }, "predictor");
}

TEST(Machine, RunSimulationChecksTraceShape)
{
    MachineConfig cfg = MachineConfig::testDefault(Algorithm::Lazy);
    CoreTraces traces;
    traces.traces.resize(cfg.numCores() + 1); // wrong core count
    EXPECT_DEATH({ runSimulation(cfg, traces, "bad"); }, "core count");
}

} // namespace
} // namespace flexsnoop
