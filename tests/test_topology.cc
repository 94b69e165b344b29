/**
 * @file
 * Hierarchical-topology subsystem: geometry arithmetic (block mapping,
 * wrap-around, boundary links), configuration validation diagnostics,
 * bridge gateway behaviour (skip on a negative aggregate, descend when
 * a member may hold the line), per-level energy accounting, the
 * planHierSweep experiment planner, and a fault soak with per-level
 * fault rates. docs/TOPOLOGY.md documents the model under test.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/config_parser.hh"
#include "core/experiment.hh"
#include "core/machine.hh"
#include "core/simulation.hh"
#include "topology/topology.hh"
#include "workload/core_model.hh"
#include "workload/profile.hh"
#include "workload/synthetic_generator.hh"

namespace flexsnoop
{
namespace
{

TopologyConfig
hierConfig(std::size_t local_rings)
{
    TopologyConfig cfg;
    cfg.kind = TopologyKind::Hier;
    cfg.localRings = local_rings;
    return cfg;
}

TEST(TopologyGeometry, BlockMapping)
{
    const Topology t(32, hierConfig(4));
    EXPECT_TRUE(t.hierarchical());
    EXPECT_EQ(t.numBlocks(), 4u);
    EXPECT_EQ(t.blockSize(), 8u);

    EXPECT_EQ(t.blockOf(0), 0u);
    EXPECT_EQ(t.blockOf(7), 0u);
    EXPECT_EQ(t.blockOf(8), 1u);
    EXPECT_EQ(t.blockOf(31), 3u);

    EXPECT_EQ(t.headOf(0), 0u);
    EXPECT_EQ(t.headOf(3), 24u);
    EXPECT_TRUE(t.isHead(0));
    EXPECT_TRUE(t.isHead(16));
    EXPECT_FALSE(t.isHead(1));
    EXPECT_FALSE(t.isHead(31));

    EXPECT_TRUE(t.sameBlock(8, 15));
    EXPECT_FALSE(t.sameBlock(7, 8));

    EXPECT_EQ(t.posInBlock(8), 0u);
    EXPECT_EQ(t.posInBlock(15), 7u);
}

TEST(TopologyGeometry, WrapAndBoundaryEdges)
{
    const Topology t(32, hierConfig(4));

    // The global ring wraps: the last block's head forwards to node 0.
    EXPECT_EQ(t.nextHead(0), 8u);
    EXPECT_EQ(t.nextHead(24), 0u);

    // Only the link leaving a block's last member crosses a boundary --
    // including the wrap-around link leaving node N-1.
    EXPECT_TRUE(t.linkCrossesBlock(7));
    EXPECT_TRUE(t.linkCrossesBlock(31));
    EXPECT_FALSE(t.linkCrossesBlock(0));
    EXPECT_FALSE(t.linkCrossesBlock(8));
    EXPECT_FALSE(t.linkCrossesBlock(30));
}

TEST(TopologyGeometry, DegenerateSingleRingIsNotHierarchical)
{
    EXPECT_FALSE(hierConfig(1).hierarchical());
    const Topology t(8, hierConfig(1));
    EXPECT_FALSE(t.hierarchical());
    EXPECT_EQ(t.numBlocks(), 1u);
    EXPECT_EQ(t.blockSize(), 8u);
    EXPECT_FALSE(t.isHead(0));
    EXPECT_FALSE(t.linkCrossesBlock(7));
}

TEST(TopologyConfigValidate, NamesTheViolatedConstraint)
{
    EXPECT_THROW(Topology(32, hierConfig(0)), std::invalid_argument);
    // local_rings must divide the node count.
    EXPECT_THROW(Topology(32, hierConfig(5)), std::invalid_argument);
    // A local ring of one node is not a ring.
    EXPECT_THROW(Topology(8, hierConfig(8)), std::invalid_argument);

    TopologyConfig zero_hop = hierConfig(4);
    zero_hop.globalHopCycles = 0;
    EXPECT_THROW(Topology(32, zero_hop), std::invalid_argument);

    // 8 nodes / 2 rings of 4 is the smallest legal hierarchy.
    EXPECT_NO_THROW(Topology(8, hierConfig(2)));
}

TEST(TopologyNames, KindParsingListsValidValues)
{
    EXPECT_EQ(topologyKindFromName("flat"), TopologyKind::Flat);
    EXPECT_EQ(topologyKindFromName("HIER"), TopologyKind::Hier);
    EXPECT_EQ(topologyKindFromName("hierarchical"), TopologyKind::Hier);
    try {
        topologyKindFromName("torus");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("flat, hier"),
                  std::string::npos);
    }
}

TEST(TopologyNames, UnknownProfileAndAlgorithmListValidValues)
{
    try {
        profileByName("no-such-profile");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("valid profiles"), std::string::npos);
        EXPECT_NE(what.find("specjbb"), std::string::npos);
        EXPECT_NE(what.find("barnes"), std::string::npos);
    }
    try {
        algorithmFromName("no-such-algorithm");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("valid algorithms"), std::string::npos);
        EXPECT_NE(what.find("supersetcon"), std::string::npos);
    }
}

TEST(TopologyNames, ConfigParserKeysRoundTrip)
{
    MachineConfig cfg = MachineConfig::paperDefault(Algorithm::Lazy, 1);
    applyOverride(cfg, "topology=hier");
    applyOverride(cfg, "local_rings=2");
    applyOverride(cfg, "global_hop_cycles=50");
    applyOverride(cfg, "global_algorithm=supersetcon");
    EXPECT_EQ(cfg.topology.kind, TopologyKind::Hier);
    EXPECT_EQ(cfg.topology.localRings, 2u);
    EXPECT_EQ(cfg.topology.globalHopCycles, 50u);
    EXPECT_EQ(cfg.topology.globalAlgorithm, "supersetcon");
    EXPECT_NE(describeConfig(cfg).find("topology=hier"),
              std::string::npos);
    EXPECT_NE(describeConfig(cfg).find("local_rings=2"),
              std::string::npos);

    EXPECT_THROW(applyOverride(cfg, "topology=mesh"),
                 std::invalid_argument);
    EXPECT_THROW(applyOverride(cfg, "local_rings=0"),
                 std::invalid_argument);
    EXPECT_THROW(applyOverride(cfg, "global_algorithm=bogus"),
                 std::invalid_argument);
}

/** 32 single-core CMPs, 4 local rings of 8. Arms the fault machinery
 *  with a never-firing drop rate so the controller's negative-round
 *  completeness checks (visits == N-1 at the conclusion) are active. */
MachineConfig
hierMachineConfig(Algorithm a, bool checked_visits = true)
{
    MachineConfig cfg = MachineConfig::paperDefault(a, 1);
    cfg.setNumCmps(32);
    cfg.topology.kind = TopologyKind::Hier;
    cfg.topology.localRings = 4;
    if (checked_visits) {
        cfg.faults.dropRate = 1e-300; // armed, never fires
        cfg.faults.seed = 42;
        cfg.coherence.watchdogCycles = 200000;
    }
    return cfg;
}

struct OneRead
{
    Cycle end = 0;
    bool done = false;
    std::uint64_t bridgeSkips = 0;
    std::uint64_t bridgeDescends = 0;
    std::uint64_t snoops = 0;
    std::uint64_t supplies = 0;
};

/** Drive reads of @p line from @p requesters in sequence and report
 *  the machine's totals afterwards. */
OneRead
driveReads(Machine &m, std::initializer_list<CoreId> requesters,
           Addr line)
{
    OneRead o;
    std::size_t completions = 0;
    m.controller().setCompletionHandler(
        [&completions](CoreId, Addr, bool) { ++completions; });
    for (CoreId core : requesters) {
        m.controller().coreRead(core, line);
        m.queue().run();
    }
    o.end = m.queue().now();
    o.done = completions == requesters.size();
    o.bridgeSkips = m.controller().bridgeSkips();
    o.bridgeDescends = m.controller().bridgeDescends();
    o.snoops = m.controller().stats().counterValue("read_snoops");
    o.supplies =
        m.controller().stats().counterValue("read_cache_supplies");
    return o;
}

/** A fresh line no cache holds: every remote block's supplier aggregate
 *  is empty, so a negative-to-Forward bridge skips all three remote
 *  blocks and the round still completes with full coverage. */
TEST(BridgeGateway, NegativeRoundSkipsRemoteBlocks)
{
    Machine m(hierMachineConfig(Algorithm::SupersetCon));
    const OneRead o = driveReads(m, {0}, kLineSizeBytes);
    EXPECT_TRUE(o.done);
    EXPECT_EQ(o.bridgeSkips, 3u);
    EXPECT_EQ(o.bridgeDescends, 0u);
    EXPECT_EQ(o.supplies, 0u); // nobody had it: memory answers
}

/** Same negative round from a mid-block requester: its own block is
 *  never bridged (the request leaves flat and the conclusion returns
 *  flat), so exactly the three remote heads skip. */
TEST(BridgeGateway, RequesterBlockIsNeverSkipped)
{
    Machine m(hierMachineConfig(Algorithm::SupersetCon));
    const OneRead o = driveReads(m, {12}, kLineSizeBytes);
    EXPECT_TRUE(o.done);
    EXPECT_EQ(o.bridgeSkips, 3u);
    EXPECT_EQ(o.bridgeDescends, 0u);
}

/** And from the last node on the ring (wrap-around edge). */
TEST(BridgeGateway, LastNodeRequesterWrapsCleanly)
{
    Machine m(hierMachineConfig(Algorithm::SupersetCon));
    const OneRead o = driveReads(m, {31}, kLineSizeBytes);
    EXPECT_TRUE(o.done);
    EXPECT_EQ(o.bridgeSkips, 3u);
}

/** Once a member of a remote block supplies the line, that block's
 *  aggregate turns positive and its bridge descends; the supplier
 *  answers the snoop instead of memory. */
TEST(BridgeGateway, DescendsIntoBlockWithSupplier)
{
    Machine m(hierMachineConfig(Algorithm::SupersetCon));
    const Addr line = kLineSizeBytes;

    // Node 0 faults the line in (memory; 3 skips as above). Node 12's
    // later read crosses heads 16, 24, and 0; block 0 now holds a
    // supplier, so its bridge must descend while 16/24 still skip.
    const OneRead o = driveReads(m, {0, 12}, line);
    EXPECT_TRUE(o.done);
    EXPECT_EQ(o.bridgeDescends, 1u);
    EXPECT_EQ(o.bridgeSkips, 5u);
    EXPECT_EQ(o.supplies, 1u);
}

/** Lazy's action table has no negative-to-Forward row, so an active
 *  read is never skipped -- the hierarchy only re-times the links. */
TEST(BridgeGateway, LazyNeverSkipsActiveReads)
{
    Machine m(hierMachineConfig(Algorithm::Lazy));
    const OneRead o = driveReads(m, {0}, kLineSizeBytes);
    EXPECT_TRUE(o.done);
    EXPECT_EQ(o.bridgeSkips, 0u);
    EXPECT_EQ(o.snoops, 31u); // every remote node still snooped
}

/** Per-level energy accounting: global-ring traversals and bridge
 *  aggregate lookups land in their own categories, and only for a
 *  hierarchical machine. */
TEST(BridgeGateway, PerLevelEnergyCategories)
{
    Machine hier(hierMachineConfig(Algorithm::SupersetCon));
    driveReads(hier, {0}, kLineSizeBytes);
    hier.finalizeEnergy();
    EXPECT_GT(hier.energy().categoryNj(EnergyEvent::GlobalRingLinkMessage),
              0.0);
    EXPECT_GT(hier.energy().categoryNj(EnergyEvent::BridgePredictorAccess),
              0.0);
    EXPECT_GT(hier.globalLinkTraversals(), 0u);

    MachineConfig flat_cfg =
        MachineConfig::paperDefault(Algorithm::SupersetCon, 1);
    flat_cfg.setNumCmps(32);
    Machine flat(flat_cfg);
    driveReads(flat, {0}, kLineSizeBytes);
    flat.finalizeEnergy();
    EXPECT_EQ(flat.energy().categoryNj(EnergyEvent::GlobalRingLinkMessage),
              0.0);
    EXPECT_EQ(flat.energy().categoryNj(EnergyEvent::BridgePredictorAccess),
              0.0);
    EXPECT_EQ(flat.globalLinkTraversals(), 0u);
}

TEST(HierSweep, FlatAndHierCellsShareTracesAndOrder)
{
    WorkloadProfile base = miniProfile();
    base.refsPerCore = 150;
    base.warmupRefs = 40;
    const SweepPlan plan = planHierSweep({Algorithm::SupersetCon}, {16},
                                         /*jobs=*/2,
                                         /*global_hop_cycles=*/62, base);
    ASSERT_EQ(plan.traces.size(), 1u);
    ASSERT_EQ(plan.cells.size(), 2u);
    const MachineConfig &flat_cfg = plan.cells[0].cfg;
    const MachineConfig &hier_cfg = plan.cells[1].cfg;
    EXPECT_EQ(flat_cfg.topology.kind, TopologyKind::Flat);
    EXPECT_EQ(flat_cfg.numCmps, 16u);
    EXPECT_EQ(hier_cfg.topology.kind, TopologyKind::Hier);
    EXPECT_EQ(hier_cfg.numCmps, 16u);
    EXPECT_EQ(hier_cfg.topology.localRings, 2u);
    EXPECT_EQ(hier_cfg.topology.globalHopCycles, 62u);
    // Same traces: both cells replay the plan's one trace set.
    EXPECT_EQ(plan.cells[0].traces, 0u);
    EXPECT_EQ(plan.cells[1].traces, 0u);

    const auto cells = runCells(plan, /*jobs=*/2);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].bridgeSkips, 0u);
    EXPECT_EQ(cells[0].globalLinkMessages, 0u);
    EXPECT_GT(cells[1].globalLinkMessages, 0u);
    EXPECT_GT(cells[1].bridgeSkips + cells[1].bridgeDescends, 0u);
    // (Raw ring-request counts differ legitimately: timing shifts
    // change collision/retry counts.)
    EXPECT_EQ(cells[0].workload, cells[1].workload);
    EXPECT_FALSE(cells[0].failed);
    EXPECT_FALSE(cells[1].failed);

    EXPECT_THROW(planHierSweep({Algorithm::Lazy}, {12}, 1),
                 std::invalid_argument);
}

/** The CI smoke cell: one 64-node machine, 8 local rings of 8, must
 *  complete with the bridges actually skipping blocks. */
TEST(HierSweep, SixtyFourNodeHierCellCompletes)
{
    WorkloadProfile base = miniProfile();
    base.refsPerCore = 150;
    base.warmupRefs = 40;
    const SweepPlan plan = planHierSweep({Algorithm::SupersetCon}, {64},
                                         /*jobs=*/2,
                                         /*global_hop_cycles=*/62, base);
    ASSERT_EQ(plan.cells.size(), 2u);
    EXPECT_EQ(plan.cells[1].cfg.topology.localRings, 8u);
    const auto cells = runCells(plan, /*jobs=*/2);
    const RunResult &hier = cells[1];
    EXPECT_FALSE(hier.failed) << hier.error;
    EXPECT_GT(hier.bridgeSkips, 0u);
    EXPECT_GT(hier.globalLinkMessages, 0u);
}

/** Fault soak on the hierarchy with distinct per-level rates: drops,
 *  dups and delays on both link classes, recovery via watchdog; the
 *  run must complete coherently (runSimulation throws otherwise). */
TEST(HierFaultSoak, PerLevelRatesRecover)
{
    WorkloadProfile profile = miniProfile();
    profile.refsPerCore = 400;
    profile.warmupRefs = 100;

    MachineConfig cfg =
        MachineConfig::paperDefault(Algorithm::SupersetCon, 1);
    cfg.setNumCmps(profile.numCmps());
    cfg.topology.kind = TopologyKind::Hier;
    cfg.topology.localRings = 2;
    cfg.faults.dropRate = 2e-4;
    cfg.faults.dupRate = 2e-4;
    cfg.faults.globalDropRate = 1e-3;
    cfg.faults.globalDupRate = 5e-4;
    cfg.faults.globalDelayRate = 5e-4;
    cfg.faults.seed = 7;
    cfg.coherence.watchdogCycles = 20000;

    SyntheticGenerator gen(profile);
    const RunResult r = runSimulation(cfg, gen.generate(), "hier_soak");
    EXPECT_FALSE(r.failed);
    EXPECT_GT(r.faultLinkDecisions, 0u);
    EXPECT_GT(r.faultDrops + r.faultDups + r.faultDelays, 0u);
    EXPECT_GT(r.globalLinkMessages, 0u);
}

} // namespace
} // namespace flexsnoop
