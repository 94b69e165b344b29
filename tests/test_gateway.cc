/**
 * @file
 * Regression tests for the gateway's per-line FIFO gate and the
 * squash-while-memory-pending path — the ring-serialization corner
 * cases that randomized traffic uncovered during development — and for
 * the lifetime of the per-node gateway line records that hold the gate,
 * the pending snoops and the node's own transaction.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/machine.hh"
#include "sim/fault_injector.hh"
#include "sim/random.hh"
#include "snoop/snoop_policy.hh"
#include "workload/core_model.hh"
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

/**
 * The overtaking scenario: a non-decoupled (SnoopThenForward) write
 * crawls around the ring at ~94 cycles/hop while a read issued *after*
 * the write passed its node races behind it at forwarding speed. The
 * per-line gate must keep the read behind the write so it can never
 * reach a stale supplier.
 */
TEST(GatewayGate, ReadIssuedAfterWritePassesNeverKeepsStaleData)
{
    // Exact: non-decoupled writes, reads mostly Forward (fast).
    MachineConfig cfg = MachineConfig::testDefault(Algorithm::Exact);
    cfg.numCmps = 8;
    cfg.torus.columns = 4;
    cfg.torus.rows = 2;
    Machine machine(cfg);
    std::size_t completions = 0;
    machine.controller().setCompletionHandler(
        [&](CoreId, Addr, bool) { ++completions; });

    const Addr line = lineAt(1);
    // Supplier far downstream of the writer (node 1 supplies; writer is
    // node 2; reader is node 6).
    machine.node(1).fillForWrite(0, line);

    // Writer at node 2 launches the invalidation round.
    machine.controller().coreWrite(8 * 0 + 2, line);
    // Reader at node 6 issues after the write's snoop passed node 6
    // (the write reaches node 6 after ~4 hops * ~94 cycles).
    machine.queue().scheduleAt(460, [&]() {
        machine.controller().coreRead(6, line);
    });
    machine.queue().run();

    EXPECT_EQ(completions, 2u);
    EXPECT_TRUE(machine.checker().consistent())
        << "read overtook the write and kept stale data";
    // The writer owns the line (D) or supplied it to the retried read
    // (T); the reader's copy, if any, must be coherent with it.
    const LineState writer = machine.node(2).coreState(0, line);
    EXPECT_TRUE(writer == LineState::Dirty || writer == LineState::Tagged)
        << toString(writer);
}

TEST(GatewayGate, DeferredMessagesDrainInOrder)
{
    // Lazy holds every message for the 55-cycle snoop: bursts of
    // transactions to one line defer at gateways and must all drain.
    MachineConfig cfg = MachineConfig::testDefault(Algorithm::Lazy);
    Machine machine(cfg);
    std::size_t completions = 0;
    machine.controller().setCompletionHandler(
        [&](CoreId, Addr, bool) { ++completions; });

    const Addr line = lineAt(3);
    machine.node(3).fillForWrite(0, line);
    // A read from node 0 holds node 2's gate while it snoops there
    // (Lazy: ~55-cycle SnoopThenForward hold per hop, arriving at node
    // 2 around cycle 199). A read from node 1 timed to reach node 2
    // inside that hold must defer behind it.
    machine.controller().coreRead(0, line);
    machine.queue().scheduleAt(110, [&]() {
        machine.controller().coreRead(1, line);
    });
    machine.queue().run();

    EXPECT_EQ(completions, 2u);
    EXPECT_EQ(machine.controller().outstanding(), 0u);
    EXPECT_GT(machine.controller().stats().counterValue("gate_deferrals"),
              0u)
        << "test should actually exercise the gate";
    EXPECT_TRUE(machine.checker().consistent());
}

TEST(GatewayGate, WriteSquashedWhileMemoryPendingRetries)
{
    // Two write misses to a line nobody caches: both must eventually
    // complete even when one is squashed after its ring round ended
    // (while its memory fetch is in flight).
    MachineConfig cfg = MachineConfig::testDefault(Algorithm::Lazy);
    Machine machine(cfg);
    std::size_t completions = 0;
    machine.controller().setCompletionHandler(
        [&](CoreId, Addr, bool) { ++completions; });

    const Addr line = lineAt(5);
    machine.controller().coreWrite(0, line);
    // A second writer slightly behind, so the rounds overlap in varying
    // phases across the sweep below.
    machine.queue().scheduleAt(120, [&]() {
        machine.controller().coreWrite(2, line);
    });
    machine.queue().run();

    EXPECT_EQ(completions, 2u) << "a squashed memory-pending write was "
                                  "dropped without retry";
    EXPECT_EQ(machine.controller().outstanding(), 0u);
    EXPECT_TRUE(machine.checker().consistent());
}

TEST(GatewayGate, HeavyMigratorySingleLineStress)
{
    // Many cores read-modify-write one line: the worst case for gates,
    // collisions, and retries. Every access must complete and the final
    // state must have exactly one owner.
    for (Algorithm a : paperAlgorithms()) {
        MachineConfig cfg = MachineConfig::testDefault(a);
        cfg.numCmps = 8;
        cfg.torus.columns = 4;
        cfg.torus.rows = 2;
        Machine machine(cfg);
        std::size_t completions = 0;
        machine.controller().setCompletionHandler(
            [&](CoreId, Addr, bool) { ++completions; });

        const Addr line = lineAt(7);
        Rng rng(2024);
        Cycle when = 0;
        std::size_t issued = 0;
        for (int i = 0; i < 120; ++i) {
            const auto core = static_cast<CoreId>(rng.nextBelow(8));
            const bool write = i % 2 == 1;
            when += rng.nextBelow(150);
            ++issued;
            machine.queue().scheduleAt(when, [&machine, core, line,
                                              write]() {
                if (write)
                    machine.controller().coreWrite(core, line);
                else
                    machine.controller().coreRead(core, line);
            });
        }
        machine.queue().run();

        EXPECT_EQ(completions, issued) << toString(a);
        EXPECT_TRUE(machine.checker().consistent()) << toString(a);
        EXPECT_EQ(machine.controller().outstanding(), 0u) << toString(a);
    }
}

/** A read message for @p txn of @p line, crafted as if node 0 issued
 *  it (no Transaction exists, so node 0 absorbs it at the end). */
SnoopMessage
craftedRead(TransactionId txn, Addr line, MsgType type)
{
    SnoopMessage msg;
    msg.type = type;
    msg.kind = SnoopKind::Read;
    msg.txn = txn;
    msg.line = line;
    msg.requester = 0;
    return msg;
}

TEST(GatewayRecord, OutlivesItsReleasedGateWhileAPendingEntryRemains)
{
    // A plain request (its trailing reply still upstream) finds the
    // supplier at node 1: the snoop releases the gate at once but keeps
    // the pending entry that will discard the trailing reply.
    Machine machine(MachineConfig::testDefault(Algorithm::Lazy));
    const CoherenceController &ctrl = machine.controller();
    const Addr line = lineAt(9);
    machine.node(1).fillForWrite(0, line);

    machine.ring().send(0, craftedRead(1000, line, MsgType::SnoopRequest));
    machine.queue().run();

    const GatewayLine *rec = ctrl.gatewayLine(1, line);
    ASSERT_NE(rec, nullptr) << "record recycled under a live pending entry";
    EXPECT_FALSE(rec->gateOpen);
    EXPECT_EQ(ctrl.gatedLines(), 0u);
    ASSERT_EQ(rec->pending.size(), 1u);
    EXPECT_TRUE(rec->pending.front().sentOwn);
    EXPECT_EQ(ctrl.linePoolUsage().live, 1u);

    // The trailing reply is discarded there, and the record with it.
    machine.ring().send(0, craftedRead(1000, line, MsgType::SnoopReply));
    machine.queue().run();
    EXPECT_EQ(ctrl.gatewayLine(1, line), nullptr);
    EXPECT_EQ(ctrl.linePoolUsage().live, 0u);
}

TEST(GatewayRecord, OutlivesEachReleaseWhileDeferredMessagesRemain)
{
    // Three reads of one line reach node 1 back to back under Lazy: the
    // first holds the gate, the others defer. Each release hands the
    // gate to the next deferred message in arrival order; the record
    // lives until the last one leaves.
    Machine machine(MachineConfig::testDefault(Algorithm::Lazy));
    const CoherenceController &ctrl = machine.controller();
    const Addr line = lineAt(10);
    for (TransactionId txn : {2001, 2002, 2003})
        machine.ring().send(0, craftedRead(txn, line, MsgType::CombinedRR));

    std::vector<TransactionId> holders;
    std::size_t max_deferred = 0;
    while (machine.queue().step()) {
        const GatewayLine *rec = ctrl.gatewayLine(1, line);
        if (!rec)
            continue;
        if (!rec->deferred.empty()) {
            EXPECT_TRUE(rec->gateOpen);
            EXPECT_GE(ctrl.gatedLines(), 1u);
        }
        max_deferred = std::max(max_deferred, rec->deferred.size());
        if (rec->holder != kInvalidTransaction &&
            (holders.empty() || holders.back() != rec->holder))
            holders.push_back(rec->holder);
    }
    EXPECT_EQ(max_deferred, 2u) << "test should queue behind the gate";
    EXPECT_EQ(holders, (std::vector<TransactionId>{2001, 2002, 2003}));
    EXPECT_EQ(ctrl.gatewayLine(1, line), nullptr);
    EXPECT_EQ(ctrl.gatedLines(), 0u);
    EXPECT_EQ(ctrl.linePoolUsage().live, 0u);
    EXPECT_GT(ctrl.linePoolUsage().acquires, 0u);
}

struct DrainCase
{
    Algorithm algorithm;
    bool hier;   ///< two local rings instead of the flat ring
    bool faults; ///< drop/dup/delay/predictor faults, watchdog armed
};

std::vector<DrainCase>
drainCases()
{
    std::vector<DrainCase> cases;
    for (Algorithm a : paperAlgorithms())
        for (bool hier : {false, true})
            for (bool faults : {false, true})
                cases.push_back({a, hier, faults});
    return cases;
}

class GatewayDrain : public ::testing::TestWithParam<DrainCase>
{
};

/**
 * The drain invariant: once a run's queue is empty, no gateway record
 * is live and no gate is open, on every paper algorithm, flat and
 * hierarchical, with and without injected faults (where watchdog
 * sweeps and bridge Forward markers reclaim the state of lost rounds).
 */
TEST_P(GatewayDrain, NoRecordOutlivesTheRun)
{
    const DrainCase c = GetParam();
    static const CoreTraces traces =
        SyntheticGenerator(miniProfile()).generate();
    MachineConfig cfg = sweepConfig(c.algorithm, miniProfile());
    if (c.hier) {
        cfg.topology.kind = TopologyKind::Hier;
        cfg.topology.localRings = 2;
    }
    if (c.faults) {
        cfg.faults.dropRate = 1e-3;
        cfg.faults.dupRate = 1e-3;
        cfg.faults.delayRate = 1e-3;
        cfg.faults.predictorRate = 1e-3;
        cfg.faults.seed = 1;
        cfg.coherence.watchdogCycles = 20000;
    }
    Machine machine(cfg);
    WorkloadRunner runner(machine.queue(), machine.controller(), traces,
                          cfg.core);
    runner.run();

    const CoherenceController &ctrl = machine.controller();
    ASSERT_TRUE(runner.allDone());
    if (const FaultInjector *f = machine.faultInjector()) {
        EXPECT_GT(f->dropsInjected() + f->dupsInjected() +
                      f->delaysInjected(),
                  0u)
            << "faults must land for the sweeps to be exercised";
    }
    EXPECT_EQ(ctrl.outstanding(), 0u);
    EXPECT_EQ(ctrl.gatedLines(), 0u);
    EXPECT_EQ(ctrl.linePoolUsage().live, 0u);
    EXPECT_GT(ctrl.linePoolUsage().acquires, 0u);
    EXPECT_TRUE(machine.checker().consistent());
}

INSTANTIATE_TEST_SUITE_P(
    PaperAlgorithms, GatewayDrain, ::testing::ValuesIn(drainCases()),
    [](const ::testing::TestParamInfo<DrainCase> &info) {
        return std::string(toString(info.param.algorithm)) +
               (info.param.hier ? "_hier2" : "_flat") +
               (info.param.faults ? "_faults" : "_clean");
    });

} // namespace
} // namespace flexsnoop
