/**
 * @file
 * Differential test of the `.fstrace` decoder: analyzeTrace (counting
 * sort into one index array) against a reference grouping kept here
 * (a hash map of per-transaction vectors, each std::stable_sort-ed by
 * cycle). Every TxnTimeline field and the exact event order must agree
 * on real captures (the paper algorithms on flat and hierarchical
 * rings, and a fault soak) and on synthetic files shaped to hit each
 * grouping case.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/simulation.hh"
#include "trace/trace_analysis.hh"
#include "trace/trace_reader.hh"
#include "workload/synthetic_generator.hh"

namespace flexsnoop
{
namespace
{

/** One reference timeline: the scalar fields plus owned events. */
struct ReferenceTxn
{
    TxnTimeline fields; ///< `events` left empty
    std::vector<std::size_t> events;
};

/** The reference decoder: straightforward grouping, sort every txn. */
std::vector<ReferenceTxn>
referenceAnalyze(const TraceFile &file)
{
    std::vector<ReferenceTxn> out;
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < file.records.size(); ++i) {
        const TraceRecord &r = file.records[i];
        if (r.txn == 0)
            continue;
        auto [it, fresh] = index.try_emplace(r.txn, out.size());
        if (fresh)
            out.emplace_back().fields.txn = r.txn;
        ReferenceTxn &ref = out[it->second];
        TxnTimeline &t = ref.fields;
        ref.events.push_back(i);
        switch (r.event()) {
          case TraceEvent::TxnStart:
            if (ref.events.size() == 1 || r.cycle < t.start)
                t.start = r.cycle;
            t.addr = r.arg0;
            t.core = static_cast<std::uint32_t>(r.arg1);
            t.requester = r.node;
            t.isWrite = r.a != 0;
            break;
          case TraceEvent::Hop:
            ++t.hops;
            break;
          case TraceEvent::RetryScheduled:
            ++t.retries;
            break;
          case TraceEvent::DataDelivered:
            t.complete = true;
            t.deliver = r.cycle;
            t.latency = r.arg1;
            t.fromMemory = r.a != 0;
            break;
          case TraceEvent::WriteComplete:
            t.complete = true;
            t.deliver = r.cycle;
            t.latency = r.arg1;
            break;
          default:
            break;
        }
    }
    for (ReferenceTxn &ref : out) {
        std::stable_sort(ref.events.begin(), ref.events.end(),
                         [&](std::size_t a, std::size_t b) {
                             return file.records[a].cycle <
                                    file.records[b].cycle;
                         });
        if (ref.fields.start == 0)
            ref.fields.start = file.records[ref.events.front()].cycle;
    }
    return out;
}

/** analyzeTrace agrees with the reference on every field and order. */
::testing::AssertionResult
matchesReference(const TraceFile &file)
{
    const TraceAnalysis got = analyzeTrace(file);
    const std::vector<ReferenceTxn> want = referenceAnalyze(file);
    if (got.txns.size() != want.size())
        return ::testing::AssertionFailure()
               << got.txns.size() << " transactions, reference has "
               << want.size();
    for (std::size_t i = 0; i < want.size(); ++i) {
        const TxnTimeline &g = got.txns[i];
        const TxnTimeline &w = want[i].fields;
        const auto differs = [&](const char *field) {
            return ::testing::AssertionFailure()
                   << "timeline " << i << " (txn " << w.txn
                   << ") differs in " << field;
        };
        if (g.txn != w.txn)
            return differs("txn");
        if (g.addr != w.addr)
            return differs("addr");
        if (g.requester != w.requester)
            return differs("requester");
        if (g.core != w.core)
            return differs("core");
        if (g.isWrite != w.isWrite)
            return differs("isWrite");
        if (g.complete != w.complete)
            return differs("complete");
        if (g.fromMemory != w.fromMemory)
            return differs("fromMemory");
        if (g.start != w.start)
            return differs("start");
        if (g.deliver != w.deliver)
            return differs("deliver");
        if (g.latency != w.latency)
            return differs("latency");
        if (g.hops != w.hops)
            return differs("hops");
        if (g.retries != w.retries)
            return differs("retries");
        if (!std::equal(g.events.begin(), g.events.end(),
                        want[i].events.begin(), want[i].events.end()))
            return differs("events");
    }
    return ::testing::AssertionSuccess();
}

/** Transactions whose records are not in cycle order as captured. */
std::size_t
invertedTxns(const TraceFile &file)
{
    std::size_t n = 0;
    for (const ReferenceTxn &ref : referenceAnalyze(file))
        n += !std::is_sorted(ref.events.begin(), ref.events.end());
    return n;
}

WorkloadProfile
shrunkMini()
{
    WorkloadProfile profile = miniProfile();
    profile.refsPerCore = 400;
    profile.warmupRefs = 100;
    return profile;
}

MachineConfig
miniConfig(Algorithm a)
{
    const WorkloadProfile profile = shrunkMini();
    MachineConfig cfg = MachineConfig::paperDefault(a, profile.coresPerCmp);
    cfg.setNumCmps(profile.numCmps());
    return cfg;
}

/** Capture a shrunk mini run of @p cfg and load it. */
TraceFile
capture(MachineConfig cfg, const std::string &name)
{
    const std::string path = "/tmp/flexsnoop_test_decode_" + name +
                             ".fstrace";
    cfg.trace.path = path;
    runSimulation(cfg, SyntheticGenerator(shrunkMini()).generate(), "mini");
    TraceFile file = loadTrace(path);
    std::remove(path.c_str()); // the mapping outlives the name
    return file;
}

class TraceDecode : public ::testing::TestWithParam<Algorithm>
{
};

TEST_P(TraceDecode, FlatAndHierCapturesMatchReference)
{
    MachineConfig cfg = miniConfig(GetParam());
    const std::string name(toString(GetParam()));

    const TraceFile flat = capture(cfg, name + "_flat");
    ASSERT_GT(flat.records.size(), 0u);
    EXPECT_TRUE(matchesReference(flat));

    cfg.topology.kind = TopologyKind::Hier;
    cfg.topology.localRings = 4;
    const TraceFile hier = capture(cfg, name + "_hier");
    ASSERT_GT(hier.records.size(), 0u);
    EXPECT_TRUE(matchesReference(hier));
}

INSTANTIATE_TEST_SUITE_P(
    PaperAlgorithms, TraceDecode, ::testing::ValuesIn(paperAlgorithms()),
    [](const ::testing::TestParamInfo<Algorithm> &info) {
        return std::string(toString(info.param));
    });

TEST(TraceDecodeCapture, FaultSoakMatchesReference)
{
    MachineConfig cfg = miniConfig(Algorithm::Subset);
    cfg.faults.dropRate = 2e-3;
    cfg.faults.dupRate = 2e-3;
    cfg.faults.delayRate = 2e-3;
    cfg.faults.seed = 5;
    cfg.coherence.watchdogCycles = 20000;
    const TraceFile file = capture(cfg, "soak");

    std::size_t drops = 0, dups = 0, delays = 0;
    for (const TraceRecord &r : file.records) {
        drops += r.event() == TraceEvent::FaultDrop;
        dups += r.event() == TraceEvent::FaultDup;
        delays += r.event() == TraceEvent::FaultDelay;
    }
    EXPECT_GT(drops, 0u);
    EXPECT_GT(dups, 0u);
    EXPECT_GT(delays, 0u);
    // Some transactions are captured out of cycle order, so the
    // decoder's sort path runs on this file.
    EXPECT_GT(invertedTxns(file), 0u);
    EXPECT_TRUE(matchesReference(file));
}

/** A record of @p txn at @p cycle (node 0, line 0x40). */
TraceRecord
rec(std::uint64_t txn, TraceEvent e, Cycle cycle, std::uint64_t arg1 = 0,
    std::uint16_t a = 0)
{
    TraceRecord r;
    r.cycle = cycle;
    r.txn = txn;
    r.arg0 = 0x40;
    r.arg1 = arg1;
    r.type = static_cast<std::uint16_t>(e);
    r.node = 0;
    r.a = a;
    return r;
}

/** Record indices of each timeline, in analysis order. */
std::vector<std::vector<std::size_t>>
eventLists(const TraceAnalysis &analysis)
{
    std::vector<std::vector<std::size_t>> out;
    for (const TxnTimeline &t : analysis.txns)
        out.emplace_back(t.events.begin(), t.events.end());
    return out;
}

TEST(TraceDecodeSynthetic, MachineRecordsInterleaved)
{
    const TraceFile file({
        rec(0, TraceEvent::MeasureStart, 1),
        rec(7, TraceEvent::TxnStart, 2, 3),
        rec(0, TraceEvent::CounterSnapshot, 3),
        rec(9, TraceEvent::TxnStart, 4, 1, 1),
        rec(7, TraceEvent::Hop, 5),
        rec(0, TraceEvent::CounterSnapshot, 6),
        rec(9, TraceEvent::WriteComplete, 7, 3),
        rec(7, TraceEvent::DataDelivered, 8, 6, 1),
        rec(0, TraceEvent::CounterSnapshot, 9),
    });
    EXPECT_TRUE(matchesReference(file));

    const TraceAnalysis analysis = analyzeTrace(file);
    ASSERT_EQ(analysis.txns.size(), 2u);
    EXPECT_EQ(analysis.txns[0].txn, 7u);
    EXPECT_EQ(analysis.txns[1].txn, 9u);
    const std::vector<std::vector<std::size_t>> want = {{1, 4, 7},
                                                        {3, 6}};
    EXPECT_EQ(eventLists(analysis), want);
    EXPECT_EQ(analysis.completed(), 2u);
}

TEST(TraceDecodeSynthetic, OutOfOrderTransactionSortsStably)
{
    // txn 4 arrives out of cycle order with ties; txn 5 is in order.
    const TraceFile file({
        rec(4, TraceEvent::Hop, 30),      // 0
        rec(5, TraceEvent::TxnStart, 1),  // 1
        rec(4, TraceEvent::TxnStart, 20), // 2
        rec(4, TraceEvent::Hop, 20),      // 3
        rec(5, TraceEvent::Hop, 2),       // 4
        rec(4, TraceEvent::RingIssue, 5), // 5
        rec(4, TraceEvent::Hop, 30),      // 6
        rec(4, TraceEvent::DataDelivered, 40, 35), // 7
    });
    EXPECT_TRUE(matchesReference(file));

    const TraceAnalysis analysis = analyzeTrace(file);
    const std::vector<std::vector<std::size_t>> want = {{5, 2, 3, 0, 6, 7},
                                                        {1, 4}};
    EXPECT_EQ(eventLists(analysis), want);
    // TxnStart was not txn 4's first record, so `start` falls back to
    // the transaction's earliest record.
    EXPECT_EQ(analysis.txns[0].start, Cycle{5});
    EXPECT_EQ(analysis.txns[0].hops, 3u);
}

TEST(TraceDecodeSynthetic, LongReversedTransactionMatchesReference)
{
    // Far more out-of-order records than any capture holds.
    std::vector<TraceRecord> records;
    for (Cycle c = 5000; c > 0; --c)
        records.push_back(rec(3, TraceEvent::Hop, c / 2));
    const TraceFile file(std::move(records));
    EXPECT_TRUE(matchesReference(file));
}

TEST(TraceDecodeSynthetic, SparseIdsKeepFirstAppearanceOrder)
{
    // 2^40 and 2^63 also share an entry of the decoder's lookup cache.
    const std::uint64_t big = std::uint64_t{1} << 63;
    const std::uint64_t mid = std::uint64_t{1} << 40;
    const TraceFile file({
        rec(big, TraceEvent::TxnStart, 10),
        rec(1, TraceEvent::TxnStart, 11),
        rec(mid, TraceEvent::TxnStart, 12),
        rec(1, TraceEvent::Hop, 13),
        rec(big, TraceEvent::Hop, 14),
        rec(mid, TraceEvent::Hop, 15),
    });
    EXPECT_TRUE(matchesReference(file));

    const TraceAnalysis analysis = analyzeTrace(file);
    ASSERT_EQ(analysis.txns.size(), 3u);
    EXPECT_EQ(analysis.txns[0].txn, big);
    EXPECT_EQ(analysis.txns[1].txn, 1u);
    EXPECT_EQ(analysis.txns[2].txn, mid);
    const std::vector<std::vector<std::size_t>> want = {{0, 4}, {1, 3},
                                                        {2, 5}};
    EXPECT_EQ(eventLists(analysis), want);
}

TEST(TraceDecodeSynthetic, ZeroRecords)
{
    const TraceFile file(std::vector<TraceRecord>{});
    EXPECT_TRUE(matchesReference(file));
    const TraceAnalysis analysis = analyzeTrace(file);
    EXPECT_TRUE(analysis.txns.empty());
    EXPECT_EQ(analysis.completed(), 0u);
}

} // namespace
} // namespace flexsnoop
