/**
 * @file
 * Regression tests for the gateway's per-line FIFO gate and the
 * squash-while-memory-pending path — the ring-serialization corner
 * cases that randomized traffic uncovered during development — and for
 * the lifetime of the per-node gateway line records that hold the gate,
 * the pending snoops and the node's own transaction, and of the
 * machine-wide line records that index them (the line table, whose
 * records ring messages carry as hints).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/machine.hh"
#include "sim/fault_injector.hh"
#include "sim/flat_map.hh"
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

/** @p msg carrying @p rec as its line hint, as if issued while @p rec
 *  was the line's record. */
SnoopMessage
hinted(SnoopMessage msg, const LineRecord *rec)
{
    msg.lineHint = const_cast<LineRecord *>(rec);
    return msg;
}

/**
 * Ring messages carry their line's record as a hint. A hint goes stale
 * when its record is released, and stays stale when the pool hands the
 * record out again for another line: the gateway must then reach the
 * current record of the message's own line (or none), and never touch
 * the other line's state.
 */
TEST(GatewayLineHint, StaleHintsReachTheirOwnLinesRecord)
{
    Machine machine(MachineConfig::testDefault(Algorithm::Lazy));
    const CoherenceController &ctrl = machine.controller();
    const Addr a = lineAt(11);
    const Addr b = lineAt(12);
    machine.node(1).fillForWrite(0, a);
    machine.node(1).fillForWrite(0, b);
    const auto send = [&machine](const SnoopMessage &msg) {
        machine.ring().send(0, msg);
        machine.queue().run();
    };

    // A plain request finds the supplier at node 1, whose record keeps
    // a pending entry until the trailing reply passes; then it goes.
    send(craftedRead(3001, a, MsgType::SnoopRequest));
    const LineRecord *first = ctrl.lineRecord(a);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->line, a);
    EXPECT_EQ(first->nodes[1], ctrl.gatewayLine(1, a));
    send(hinted(craftedRead(3001, a, MsgType::SnoopReply), first));
    ASSERT_EQ(ctrl.lineRecord(a), nullptr);
    EXPECT_EQ(first->line, kInvalidAddr) << "a released record names no line";
    EXPECT_EQ(ctrl.lineRecordPoolUsage().live, 0u);

    // Released: a request whose hint names the released record opens
    // its line's record in the table, not in the orphan.
    send(hinted(craftedRead(3002, a, MsgType::SnoopRequest), first));
    const LineRecord *second = ctrl.lineRecord(a);
    ASSERT_NE(second, nullptr) << "the record opened for the line is not "
                                  "in the line table";
    ASSERT_NE(ctrl.gatewayLine(1, a), nullptr);
    EXPECT_EQ(second->line, a);
    EXPECT_EQ(second->entries, 1u);
    EXPECT_EQ(ctrl.gatewayLine(1, a)->owner, second);
    EXPECT_EQ(ctrl.lineTableSize(), 1u);
    send(hinted(craftedRead(3002, a, MsgType::SnoopReply), second));
    ASSERT_EQ(ctrl.lineRecord(a), nullptr);

    // Re-acquired for another line: B's request takes the record A's
    // messages were hinted with, then A opens a record of its own.
    send(craftedRead(3003, b, MsgType::SnoopRequest));
    const LineRecord *b_rec = ctrl.lineRecord(b);
    ASSERT_NE(b_rec, nullptr);
    ASSERT_EQ(b_rec, second) << "the pool should hand the record out again";
    send(craftedRead(3004, a, MsgType::SnoopRequest));
    const LineRecord *a_rec = ctrl.lineRecord(a);
    ASSERT_NE(a_rec, nullptr);
    ASSERT_NE(a_rec, b_rec);
    ASSERT_NE(ctrl.gatewayLine(1, a), nullptr);

    // A's messages hinted with B's record must reach A's state, while
    // B's record stays exactly as it was, event by event.
    const GatewayLine *b_node = ctrl.gatewayLine(1, b);
    ASSERT_NE(b_node, nullptr);
    ASSERT_EQ(b_node->pending.size(), 1u);
    const auto send_keeping_b = [&](const SnoopMessage &msg) {
        machine.ring().send(0, hinted(msg, b_rec));
        while (machine.queue().step()) {
            ASSERT_EQ(b_rec->line, b);
            ASSERT_EQ(b_rec->entries, 1u);
            ASSERT_EQ(b_rec->nodes[1], b_node);
            ASSERT_EQ(b_node->pending.size(), 1u);
            EXPECT_EQ(b_node->pending.front().txn, 3003u);
            EXPECT_FALSE(b_node->gateOpen);
            EXPECT_TRUE(b_node->deferred.empty());
        }
    };
    // The trailing reply reaches A's pending entry at node 1 and
    // retires A's record with it.
    send_keeping_b(craftedRead(3004, a, MsgType::SnoopReply));
    EXPECT_EQ(ctrl.lineRecord(a), nullptr)
        << "the reply missed its own line's pending entry";
    // A new request opens a record of A's own at node 1.
    send_keeping_b(craftedRead(3005, a, MsgType::SnoopRequest));
    const GatewayLine *a_node = ctrl.gatewayLine(1, a);
    ASSERT_NE(a_node, nullptr);
    EXPECT_NE(a_node, b_node);
    ASSERT_EQ(a_node->pending.size(), 1u);
    EXPECT_EQ(a_node->pending.front().txn, 3005u);
    EXPECT_EQ(ctrl.lineRecord(b), b_rec);
    EXPECT_EQ(ctrl.lineRecordPoolUsage().live, 2u);
    EXPECT_EQ(ctrl.linePoolUsage().live, 2u);
}

/** Gateway lines of a stuck dump, in printed order. */
std::vector<std::string>
dumpLines(const CoherenceController &ctrl, const std::string &prefix)
{
    std::ostringstream os;
    ctrl.dumpOutstanding(os);
    std::istringstream in(os.str());
    std::vector<std::string> lines;
    for (std::string l; std::getline(in, l);) {
        if (l.rfind(prefix, 0) == 0)
            lines.push_back(l);
    }
    return lines;
}

TEST(GatewayDump, PendingAndGateLinesComeInNodeThenLineOrder)
{
    // Lazy holds each request at every node it reaches, so eight lines,
    // four requested from each of two nodes, leave pending entries and
    // open gates at several (node, line) pairs. The line table iterates
    // them in slot order; the dump must not.
    Machine machine(MachineConfig::testDefault(Algorithm::Lazy));
    const CoherenceController &ctrl = machine.controller();
    TransactionId txn = 4000;
    for (NodeId from : {2u, 0u}) {
        for (std::uint64_t idx : {40u, 13u, 77u, 21u}) {
            SnoopMessage msg =
                craftedRead(++txn, lineAt(idx + from), MsgType::CombinedRR);
            msg.requester = from;
            machine.ring().send(from, msg);
        }
    }
    // Run until some snoops are in flight: each hold lasts 55 cycles.
    machine.queue().run(machine.queue().now() + 100);

    // The number after @p field in a dump line (hex when 0x-prefixed).
    const auto key = [](const std::string &l, const std::string &field) {
        std::istringstream in(l.substr(l.find(field) + field.size()));
        std::string v;
        in >> v;
        return std::stoull(v, nullptr, 0);
    };
    const std::vector<std::string> pending = dumpLines(ctrl, "pending node ");
    const std::vector<std::string> gates = dumpLines(ctrl, "gate node ");
    ASSERT_GE(pending.size(), 4u) << "test should leave pending snoops";
    ASSERT_GE(gates.size(), 4u) << "test should leave open gates";
    std::vector<std::pair<std::uint64_t, std::uint64_t>> order;
    for (const std::string &l : gates)
        order.emplace_back(key(l, "node "), key(l, "line "));
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    std::vector<std::uint64_t> nodes;
    for (const std::string &l : pending)
        nodes.push_back(key(l, "node "));
    EXPECT_TRUE(std::is_sorted(nodes.begin(), nodes.end()));
    EXPECT_GT(nodes.back(), nodes.front()) << "test should span nodes";
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

/** The mini sweep config of @p c. */
MachineConfig
drainConfig(const DrainCase &c)
{
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
    return cfg;
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
    const MachineConfig cfg = drainConfig(c);
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
    EXPECT_EQ(ctrl.lineTableSize(), 0u);
    EXPECT_EQ(ctrl.lineRecordPoolUsage().live, 0u);
    EXPECT_GT(ctrl.lineRecordPoolUsage().acquires, 0u);
    EXPECT_TRUE(machine.checker().consistent());
}

std::string
drainCaseName(const ::testing::TestParamInfo<DrainCase> &info)
{
    return std::string(toString(info.param.algorithm)) +
           (info.param.hier ? "_hier2" : "_flat") +
           (info.param.faults ? "_faults" : "_clean");
}

INSTANTIATE_TEST_SUITE_P(PaperAlgorithms, GatewayDrain,
                         ::testing::ValuesIn(drainCases()), drainCaseName);

/** @p parts streamed into one string (a failure description). */
template <typename... Parts>
std::string
describe(const Parts &...parts)
{
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
}

/** What breaks the invariants of @p rec, the table's record of @p line
 *  with @p live live transactions on it, or "" when they all hold. */
std::string
recordViolation(const CoherenceController &ctrl, Addr line,
                const LineRecord &rec, std::uint32_t live)
{
    if (rec.line != line)
        return describe("line ", line, ": record names line ", rec.line);
    if (rec.liveRounds != live)
        return describe("line ", line, ": liveRounds ", rec.liveRounds,
                        ", live transactions ", live);
    if (rec.nodes.size() != ctrl.numNodes())
        return describe("line ", line, ": index of ", rec.nodes.size(),
                        " nodes");
    std::uint32_t present = 0;
    for (NodeId n = 0; n < rec.nodes.size(); ++n) {
        const GatewayLine *g = rec.nodes[n];
        if (!g)
            continue;
        ++present;
        if (g->line != line || g->owner != &rec)
            return describe("line ", line, ": node ", n,
                            " entry names line ", g->line,
                            " or another owner");
        if (g->idle())
            return describe("line ", line, ": node ", n, " entry is idle");
    }
    if (rec.entries != present || present == 0)
        return describe("line ", line, ": entries ", rec.entries,
                        ", present ", present);
    return "";
}

/**
 * The first broken line-table invariant, or "" when all hold: each
 * record is keyed by its own line; its live-round count equals the
 * live transactions on that line; each per-node entry is a non-idle
 * record of this line owned by this record; its entry count matches the
 * entries present (and is not zero); every line with a live transaction
 * has a record; and every live pooled record is in the table.
 * @p live_by_line is scratch space.
 */
std::string
lineTableViolation(const CoherenceController &ctrl,
                   FlatMap<std::uint32_t> &live_by_line)
{
    live_by_line.clear();
    ctrl.forEachTransaction(
        [&](const Transaction &t) { ++live_by_line.getOrCreate(t.line); });
    std::string why;
    std::size_t records = 0;
    ctrl.forEachLineRecord([&](Addr line, const LineRecord &rec) {
        ++records;
        const std::uint32_t *live = live_by_line.find(line);
        if (why.empty())
            why = recordViolation(ctrl, line, rec, live ? *live : 0);
    });
    live_by_line.forEach([&](Addr line, std::uint32_t) {
        if (why.empty() && !ctrl.lineRecord(line))
            why = describe("line ", line, " has live rounds and no record");
    });
    if (why.empty() && ctrl.lineRecordPoolUsage().live != records)
        why = describe(ctrl.lineRecordPoolUsage().live, " live records, ",
                       records, " in the table");
    return why;
}

class LineTableAudit : public ::testing::TestWithParam<DrainCase>
{
};

/**
 * Step a mini run event by event and audit the line table after every
 * event, on every paper algorithm, flat and hierarchical, and once under
 * injected faults with the watchdog armed (where sweeps and bridge
 * Forward markers release records mid-flight).
 */
TEST_P(LineTableAudit, HoldsAfterEveryEvent)
{
    const DrainCase c = GetParam();
    static const CoreTraces traces =
        SyntheticGenerator(miniProfile()).generate();
    const MachineConfig cfg = drainConfig(c);
    Machine machine(cfg);
    WorkloadRunner runner(machine.queue(), machine.controller(), traces,
                          cfg.core);
    for (std::size_t i = 0; i < runner.numCores(); ++i)
        runner.core(i).start();

    const CoherenceController &ctrl = machine.controller();
    FlatMap<std::uint32_t> scratch;
    std::uint64_t events = 0;
    std::size_t max_records = 0;
    std::uint32_t max_live = 0;
    while (machine.queue().step()) {
        ++events;
        ASSERT_EQ(lineTableViolation(ctrl, scratch), "")
            << "after event " << events << " at cycle "
            << machine.queue().now();
        max_records = std::max(max_records, ctrl.lineTableSize());
        ctrl.forEachLineRecord([&](Addr, const LineRecord &rec) {
            max_live = std::max(max_live, rec.liveRounds);
        });
    }
    ASSERT_TRUE(runner.allDone());
    EXPECT_EQ(ctrl.lineTableSize(), 0u);
    EXPECT_GT(max_records, 1u);
    EXPECT_GT(max_live, 1u) << "test should overlap rounds on one line";
    if (const FaultInjector *f = machine.faultInjector()) {
        EXPECT_GT(f->dropsInjected() + f->dupsInjected() +
                      f->delaysInjected(),
                  0u);
        EXPECT_GT(ctrl.stats().counterValue("watchdog_timeouts"), 0u)
            << "test should sweep lost rounds";
    }
}

std::vector<DrainCase>
auditCases()
{
    std::vector<DrainCase> cases;
    for (Algorithm a : paperAlgorithms())
        for (bool hier : {false, true})
            cases.push_back({a, hier, false});
    cases.push_back({Algorithm::SupersetAgg, true, true});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(PaperAlgorithms, LineTableAudit,
                         ::testing::ValuesIn(auditCases()), drainCaseName);

} // namespace
} // namespace flexsnoop
