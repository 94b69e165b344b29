/**
 * @file
 * Unit tests for the CMP node: supplier-set tracking, protocol
 * transitions for local/remote supply, write invalidation, the
 * Exact-predictor downgrade path, the machine-wide line census the
 * node reports to, and the per-line record every query reads (audited
 * by the coherence checker, and checked against an L2 scan under seeded
 * random traffic).
 */

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "coherence/checker.hh"
#include "coherence/cmp_node.hh"
#include "predictor/exact_predictor.hh"
#include "predictor/subset_predictor.hh"
#include "sim/random.hh"

namespace flexsnoop
{
namespace
{

using LS = LineState;

Addr
lineAt(std::uint64_t idx)
{
    return idx * kLineSizeBytes;
}

class CmpNodeTest : public ::testing::Test
{
  protected:
    CmpNodeTest() : node(0, 4, 64, 4)
    {
        node.setCensus(&census);
        node.setWritebackFn([this](Addr line, bool from_downgrade) {
            writebacks.emplace_back(line, from_downgrade);
        });
    }

    LineCensus census;
    CmpNode node;
    std::vector<std::pair<Addr, bool>> writebacks;
};

TEST_F(CmpNodeTest, EmptyNodeHasNoSuppliers)
{
    EXPECT_FALSE(node.hasSupplier(lineAt(1)));
    EXPECT_FALSE(node.hasLocalSupplier(lineAt(1)));
    EXPECT_FALSE(node.hasAnyCopy(lineAt(1)));
    EXPECT_EQ(node.supplierSetSize(), 0u);
}

TEST_F(CmpNodeTest, FillFromMemoryCreatesGlobalMaster)
{
    node.fillFromMemory(0, lineAt(1));
    EXPECT_EQ(node.coreState(0, lineAt(1)), LS::SharedGlobal);
    EXPECT_TRUE(node.hasSupplier(lineAt(1)));
    EXPECT_EQ(node.supplierCore(lineAt(1)), 0u);
    EXPECT_EQ(node.supplierSetSize(), 1u);
}

TEST_F(CmpNodeTest, FillFromRemoteCreatesLocalMaster)
{
    node.fillFromRemote(1, lineAt(2));
    EXPECT_EQ(node.coreState(1, lineAt(2)), LS::SharedLocal);
    EXPECT_FALSE(node.hasSupplier(lineAt(2)));
    EXPECT_TRUE(node.hasLocalSupplier(lineAt(2)));
    EXPECT_EQ(node.localSupplierCore(lineAt(2)), 1u);
}

TEST_F(CmpNodeTest, SecondRemoteFillIsPlainShared)
{
    node.fillFromRemote(1, lineAt(2));
    node.fillFromRemote(2, lineAt(2));
    EXPECT_EQ(node.coreState(2, lineAt(2)), LS::Shared);
    EXPECT_EQ(node.localSupplierCore(lineAt(2)), 1u);
}

TEST_F(CmpNodeTest, MemoryFillNextToLocalMasterIsShared)
{
    node.fillFromRemote(1, lineAt(2));
    node.fillFromMemory(2, lineAt(2));
    EXPECT_EQ(node.coreState(2, lineAt(2)), LS::Shared);
}

TEST_F(CmpNodeTest, LocalSupplyFromExclusivePromotesToGlobalMaster)
{
    node.fillForWrite(0, lineAt(3)); // D
    node.l2(0).changeState(lineAt(3), LS::Exclusive);
    node.localSupply(2, lineAt(3));
    EXPECT_EQ(node.coreState(0, lineAt(3)), LS::SharedGlobal);
    EXPECT_EQ(node.coreState(2, lineAt(3)), LS::Shared);
    EXPECT_TRUE(node.hasSupplier(lineAt(3)));
}

TEST_F(CmpNodeTest, LocalSupplyFromDirtyCreatesTagged)
{
    node.fillForWrite(0, lineAt(3));
    node.localSupply(1, lineAt(3));
    EXPECT_EQ(node.coreState(0, lineAt(3)), LS::Tagged);
    EXPECT_EQ(node.coreState(1, lineAt(3)), LS::Shared);
    // T is dirty: still the supplier, no writeback yet.
    EXPECT_TRUE(node.hasSupplier(lineAt(3)));
    EXPECT_TRUE(writebacks.empty());
}

TEST_F(CmpNodeTest, RemoteSupplyAdjustsSupplierState)
{
    node.fillForWrite(0, lineAt(4)); // D
    node.supplyRemote(lineAt(4));
    EXPECT_EQ(node.coreState(0, lineAt(4)), LS::Tagged);
    node.l2(0).changeState(lineAt(4), LS::Exclusive);
    node.supplyRemote(lineAt(4));
    EXPECT_EQ(node.coreState(0, lineAt(4)), LS::SharedGlobal);
    // SG and T stay as they are on further supplies.
    node.supplyRemote(lineAt(4));
    EXPECT_EQ(node.coreState(0, lineAt(4)), LS::SharedGlobal);
}

TEST_F(CmpNodeTest, InvalidateAllClearsEveryCopy)
{
    node.fillFromMemory(0, lineAt(5));   // SG
    node.fillFromRemote(1, lineAt(5));   // S (SG is local supplier)
    node.fillFromRemote(2, lineAt(5));   // S
    const bool had_supplier = node.invalidateAll(lineAt(5));
    EXPECT_TRUE(had_supplier);
    EXPECT_FALSE(node.hasAnyCopy(lineAt(5)));
    EXPECT_FALSE(node.hasSupplier(lineAt(5)));
}

TEST_F(CmpNodeTest, InvalidateAllCanSkipTheWriter)
{
    node.fillFromMemory(0, lineAt(5));
    node.fillFromRemote(1, lineAt(5));
    node.invalidateAll(lineAt(5), /*skip_core=*/1);
    EXPECT_EQ(node.coreState(0, lineAt(5)), LS::Invalid);
    EXPECT_NE(node.coreState(1, lineAt(5)), LS::Invalid);
}

TEST_F(CmpNodeTest, InvalidateAllWithoutSupplierReturnsFalse)
{
    node.fillFromRemote(1, lineAt(6)); // SL only
    EXPECT_FALSE(node.invalidateAll(lineAt(6)));
}

TEST_F(CmpNodeTest, UpgradeToDirty)
{
    node.fillFromRemote(0, lineAt(7));
    node.upgradeToDirty(0, lineAt(7));
    EXPECT_EQ(node.coreState(0, lineAt(7)), LS::Dirty);
    EXPECT_TRUE(node.hasSupplier(lineAt(7)));
}

TEST_F(CmpNodeTest, DirtyEvictionWritesBack)
{
    // One-set-per-4-ways 64-entry L2: lines i, i+16, ... collide.
    for (int i = 0; i < 5; ++i)
        node.fillForWrite(0, lineAt(16 * i));
    ASSERT_EQ(writebacks.size(), 1u);
    EXPECT_EQ(writebacks[0].first, lineAt(0));
    EXPECT_FALSE(writebacks[0].second); // not a downgrade writeback
    EXPECT_EQ(node.stats().counterValue("dirty_evictions"), 1u);
}

TEST_F(CmpNodeTest, CleanEvictionIsSilent)
{
    for (int i = 0; i < 5; ++i)
        node.fillFromMemory(0, lineAt(16 * i));
    EXPECT_TRUE(writebacks.empty());
    // The evicted SG line lost its supplier role.
    EXPECT_FALSE(node.hasSupplier(lineAt(0)));
    EXPECT_EQ(node.supplierSetSize(), 4u);
}

TEST_F(CmpNodeTest, DowngradeDirtyWritesBackAndKeepsSl)
{
    node.fillForWrite(0, lineAt(8));
    const bool wrote_back = node.downgrade(lineAt(8));
    EXPECT_TRUE(wrote_back);
    EXPECT_EQ(node.coreState(0, lineAt(8)), LS::SharedLocal);
    EXPECT_FALSE(node.hasSupplier(lineAt(8)));
    EXPECT_TRUE(node.hasLocalSupplier(lineAt(8)));
    ASSERT_EQ(writebacks.size(), 1u);
    EXPECT_TRUE(writebacks[0].second); // downgrade writeback
    EXPECT_TRUE(census.consumeDowngradeMark(lineAt(8)));
    EXPECT_FALSE(census.consumeDowngradeMark(lineAt(8)));
}

TEST_F(CmpNodeTest, DowngradeCleanIsSilent)
{
    node.fillFromMemory(0, lineAt(9)); // SG
    EXPECT_FALSE(node.downgrade(lineAt(9)));
    EXPECT_EQ(node.coreState(0, lineAt(9)), LS::SharedLocal);
    EXPECT_TRUE(writebacks.empty());
}

TEST_F(CmpNodeTest, DowngradeWithoutSupplierIsNoOp)
{
    EXPECT_FALSE(node.downgrade(lineAt(10)));
    EXPECT_EQ(node.stats().counterValue("downgrades"), 0u);
    EXPECT_FALSE(census.consumeDowngradeMark(lineAt(10)));
}

TEST_F(CmpNodeTest, CensusCountsSupplierCmps)
{
    // A second CMP reporting to the same census: the count is per
    // CMP, not per cached copy.
    CmpNode other(1, 2, 64, 4);
    other.setCensus(&census);

    node.fillFromMemory(0, lineAt(14)); // SG
    node.fillFromRemote(1, lineAt(14)); // S: not a second supplier
    EXPECT_EQ(census.supplierCmps(lineAt(14)), 1u);
    other.fillForWrite(0, lineAt(14)); // D in another CMP
    EXPECT_EQ(census.supplierCmps(lineAt(14)), 2u);
    EXPECT_EQ(census.supplierLines(), 1u);

    node.downgrade(lineAt(14)); // SG -> SL
    EXPECT_EQ(census.supplierCmps(lineAt(14)), 1u);
    other.invalidateAll(lineAt(14));
    EXPECT_FALSE(census.hasSupplier(lineAt(14)));
    EXPECT_EQ(census.supplierLines(), 0u);
}

TEST_F(CmpNodeTest, LateCensusInstallSyncsExistingSuppliers)
{
    CmpNode late(2, 2, 64, 4);
    late.fillFromMemory(0, lineAt(15));
    late.fillFromRemote(1, lineAt(16)); // SL: no supplier
    LineCensus fresh;
    late.setCensus(&fresh);
    EXPECT_EQ(fresh.supplierCmps(lineAt(15)), 1u);
    EXPECT_FALSE(fresh.hasSupplier(lineAt(16)));
}

TEST_F(CmpNodeTest, PredictorIsTrainedOnSupplierChanges)
{
    auto predictor =
        std::make_unique<SubsetPredictor>("p", 64, 8, 18, 2);
    auto *raw = predictor.get();
    node.setPredictor(std::move(predictor));

    node.fillFromMemory(0, lineAt(11));
    EXPECT_TRUE(raw->predict(lineAt(11)));
    node.invalidateAll(lineAt(11));
    EXPECT_FALSE(raw->predict(lineAt(11)));
}

TEST_F(CmpNodeTest, LatePredictorInstallSyncsExistingSuppliers)
{
    node.fillFromMemory(0, lineAt(12));
    auto predictor =
        std::make_unique<SubsetPredictor>("p", 64, 8, 18, 2);
    auto *raw = predictor.get();
    node.setPredictor(std::move(predictor));
    EXPECT_TRUE(raw->predict(lineAt(12)));
}

TEST_F(CmpNodeTest, SlMoveBetweenStates)
{
    node.fillFromRemote(3, lineAt(13)); // SL at core 3
    node.upgradeToDirty(3, lineAt(13)); // SL -> D
    EXPECT_TRUE(node.hasSupplier(lineAt(13)));
    EXPECT_EQ(node.localSupplierCore(lineAt(13)), 3u);
    node.downgrade(lineAt(13)); // D -> SL (+ writeback)
    EXPECT_EQ(node.localSupplierCore(lineAt(13)), 3u);
    EXPECT_FALSE(node.hasSupplier(lineAt(13)));
}

TEST_F(CmpNodeTest, ForEachLineSeesAllCaches)
{
    node.fillFromMemory(0, lineAt(1));
    node.fillFromRemote(2, lineAt(2));
    std::size_t count = 0;
    node.forEachLine([&](std::size_t, Addr, LS) { ++count; });
    EXPECT_EQ(count, 2u);
}

TEST_F(CmpNodeTest, InvalidateAllWithoutCopyLeavesL2sUntouched)
{
    node.fillFromRemote(1, lineAt(17));
    // Only the writer holds the line: nothing to invalidate.
    EXPECT_FALSE(node.invalidateAll(lineAt(17), /*skip_core=*/1));
    EXPECT_EQ(node.coreState(1, lineAt(17)), LS::SharedLocal);
    // No CMP copy at all.
    EXPECT_FALSE(node.invalidateAll(lineAt(18)));
    for (std::size_t c = 0; c < node.numCores(); ++c)
        EXPECT_EQ(node.l2(c).stats().counterValue("invalidations"), 0u);
}

TEST_F(CmpNodeTest, RecordFollowsCopiesSupplierAndLocalMaster)
{
    node.fillFromRemote(2, lineAt(19)); // SL at 2
    node.fillFromRemote(0, lineAt(19)); // S at 0
    CmpLine rec = node.lineRecord(lineAt(19));
    EXPECT_EQ(rec.copies, 0b0101u);
    EXPECT_EQ(rec.supplier, CmpLine::kNoCore);
    EXPECT_EQ(rec.localMaster, 2u);
    EXPECT_EQ(node.copyCount(lineAt(19)), 2u);

    node.invalidateAll(lineAt(19), /*skip_core=*/2);
    node.upgradeToDirty(2, lineAt(19)); // SL -> D
    rec = node.lineRecord(lineAt(19));
    EXPECT_EQ(rec.copies, 0b0100u);
    EXPECT_EQ(rec.supplier, 2u);
    EXPECT_EQ(rec.localMaster, CmpLine::kNoCore);
    EXPECT_EQ(node.trackedLines(), 1u);

    node.invalidateAll(lineAt(19));
    EXPECT_EQ(node.trackedLines(), 0u);
    EXPECT_EQ(node.lineRecord(lineAt(19)).copies, 0u);
}

TEST(CmpNodeLimits, CopyMaskCoversEveryCore)
{
    CmpNode wide(0, CmpNode::kMaxCores, 64, 4);
    const std::size_t last = CmpNode::kMaxCores - 1;
    wide.fillFromRemote(last, lineAt(1));
    wide.fillFromRemote(0, lineAt(1));
    EXPECT_EQ(wide.localSupplierCore(lineAt(1)), last);
    EXPECT_EQ(wide.copyCount(lineAt(1)), 2u);
    wide.invalidateAll(lineAt(1), /*skip_core=*/last);
    EXPECT_EQ(wide.lineRecord(lineAt(1)).copies,
              std::uint32_t{1} << last);
}

/**
 * The checker audits each node's line record against a scan of its
 * L2s. An L2 whose transition hook is detached changes state behind
 * the record's back, which the checker must report.
 */
class RecordAuditTest : public ::testing::Test
{
  protected:
    RecordAuditTest()
    {
        nodes.push_back(std::make_unique<CmpNode>(0, 4, 64, 4));
        node().setCensus(&census);
    }

    /** The only violation reported; fails the test unless exactly one. */
    std::string
    soleViolation(Addr line)
    {
        const auto violations = checker.check();
        EXPECT_EQ(violations.size(), 1u);
        if (violations.size() != 1)
            return {};
        EXPECT_EQ(violations[0].line, line);
        return violations[0].description;
    }

    CmpNode &node() { return *nodes[0]; }

    LineCensus census;
    std::vector<std::unique_ptr<CmpNode>> nodes;
    CoherenceChecker checker{nodes, census};
};

TEST_F(RecordAuditTest, UntrackedCopyIsReported)
{
    node().fillFromRemote(0, lineAt(1)); // SL at core 0, tracked
    node().l2(2).setTransitionHook(nullptr);
    node().l2(2).fill(lineAt(1), LS::Shared); // unseen by the record
    EXPECT_EQ(node().copyCount(lineAt(1)), 1u);
    EXPECT_EQ(soleViolation(lineAt(1)),
              "cmp0 copy mask desync: tracked 0x1, scan found 0x5");
}

TEST_F(RecordAuditTest, UntrackedLocalMasterIsReported)
{
    node().fillFromRemote(0, lineAt(1)); // SL at 0
    node().fillFromRemote(1, lineAt(1)); // S at 1
    node().l2(0).setTransitionHook(nullptr);
    node().l2(0).changeState(lineAt(1), LS::Shared); // SL lost, unseen
    EXPECT_EQ(soleViolation(lineAt(1)),
              "cmp0 local-master tracking desync: tracked core 0, scan "
              "found none");
}

TEST_F(RecordAuditTest, StaleRecordIsReported)
{
    node().fillFromRemote(3, lineAt(5)); // SL at 3, tracked
    node().l2(3).setTransitionHook(nullptr);
    node().l2(3).invalidate(lineAt(5)); // the record outlives the copy
    EXPECT_TRUE(node().hasAnyCopy(lineAt(5)));
    EXPECT_EQ(soleViolation(lineAt(5)),
              "cmp0 tracks copy mask 0x8, scan found none");
}

/**
 * Seeded random protocol traffic on two small CMPs. The L2s are tiny,
 * so fills evict; the Exact predictor is tiny, so supplier gains force
 * downgrades that re-enter the node's transition hook for another line.
 * After every step each CmpNode query must agree with a scan of the
 * L2s, Exact must predict exactly the supplier set, and the checker
 * must find nothing.
 */
class CmpNodeRandomTraffic : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    static constexpr std::size_t kCores = 4;
    static constexpr std::size_t kLines = 24;

    CmpNodeRandomTraffic()
    {
        for (NodeId n = 0; n < 2; ++n) {
            // 8 entries, 2 ways: 4 sets for 24 lines.
            nodes.push_back(std::make_unique<CmpNode>(n, kCores, 8, 2));
            CmpNode *raw = nodes.back().get();
            raw->setCensus(&census);
            raw->setWritebackFn([this](Addr, bool) { ++writebacks; });
            auto exact =
                std::make_unique<ExactPredictor>("exact", 4, 2, 18, 2);
            exact->setDowngradeFn([raw](Addr line) { raw->downgrade(line); });
            predictors.push_back(exact.get());
            raw->setPredictor(std::move(exact));
        }
    }

    /** The record a scan of @p node's L2s implies for @p line. */
    static CmpLine
    scan(const CmpNode &node, Addr line)
    {
        CmpLine rec;
        for (std::size_t c = 0; c < node.numCores(); ++c) {
            const LS st = node.coreState(c, line);
            if (!isValidState(st))
                continue;
            rec.copies |= std::uint32_t{1} << c;
            if (isSupplierState(st))
                rec.supplier = static_cast<std::uint8_t>(c);
            if (st == LS::SharedLocal)
                rec.localMaster = static_cast<std::uint8_t>(c);
        }
        return rec;
    }

    /** invalidateAll's expected answer: a non-skipped supplier copy. */
    static bool
    suppliesOutside(const CmpNode &node, Addr line, std::size_t skip)
    {
        const CmpLine rec = scan(node, line);
        return rec.supplier != CmpLine::kNoCore && rec.supplier != skip;
    }

    void
    expectQueriesMatchScan(std::size_t n)
    {
        CmpNode &node = *nodes[n];
        std::size_t held = 0;
        std::size_t supplied = 0;
        for (std::size_t i = 0; i < kLines; ++i) {
            const Addr line = lineAt(i);
            SCOPED_TRACE(::testing::Message()
                         << "cmp" << n << " line " << i);
            const CmpLine want = scan(node, line);
            const CmpLine got = node.lineRecord(line);
            const std::size_t supplier =
                want.supplier == CmpLine::kNoCore ? SIZE_MAX : want.supplier;
            const std::size_t local =
                supplier != SIZE_MAX ? supplier
                : want.localMaster == CmpLine::kNoCore ? SIZE_MAX
                                                       : want.localMaster;
            EXPECT_EQ(got.copies, want.copies);
            EXPECT_EQ(got.supplier, want.supplier);
            EXPECT_EQ(got.localMaster, want.localMaster);
            EXPECT_EQ(node.hasAnyCopy(line), want.copies != 0);
            EXPECT_EQ(node.copyCount(line),
                      static_cast<unsigned>(std::popcount(want.copies)));
            EXPECT_EQ(node.hasSupplier(line), supplier != SIZE_MAX);
            EXPECT_EQ(node.supplierCore(line), supplier);
            EXPECT_EQ(node.hasLocalSupplier(line), local != SIZE_MAX);
            EXPECT_EQ(node.localSupplierCore(line), local);
            EXPECT_EQ(predictors[n]->predict(line), supplier != SIZE_MAX);
            held += want.copies != 0;
            supplied += supplier != SIZE_MAX;
        }
        EXPECT_EQ(node.trackedLines(), held);
        EXPECT_EQ(node.supplierSetSize(), supplied);
    }

    /** invalidateAll, checked against the scan's answer. */
    void
    invalidate(std::size_t n, Addr line, std::size_t skip)
    {
        CmpNode &node = *nodes[n];
        const bool want = suppliesOutside(node, line, skip);
        EXPECT_EQ(node.invalidateAll(line, skip), want)
            << "invalidateAll cmp" << n << " skip " << skip;
        ++invalidations;
    }

    void
    read(std::size_t n, std::size_t core, Addr line)
    {
        CmpNode &node = *nodes[n];
        if (isValidState(node.coreState(core, line)))
            return; // L2 hit
        if (node.hasLocalSupplier(line)) {
            node.localSupply(core, line);
            return;
        }
        CmpNode &other = *nodes[1 - n];
        if (other.hasSupplier(line)) {
            other.supplyRemote(line);
            node.fillFromRemote(core, line);
        } else if (census.hasSupplier(line)) {
            node.fillFromRemote(core, line);
        } else {
            node.fillFromMemory(core, line);
        }
    }

    void
    write(std::size_t n, std::size_t core, Addr line)
    {
        invalidate(1 - n, line, SIZE_MAX);
        invalidate(n, line, core);
        CmpNode &node = *nodes[n];
        if (isValidState(node.coreState(core, line)))
            node.upgradeToDirty(core, line);
        else
            node.fillForWrite(core, line);
    }

    /** A fill racing a copy the reader already holds in S or SL: it
     *  moves the local-master role (S -> SL without a local supplier,
     *  SL -> S) with no change of validity or supplier. */
    void
    refill(std::size_t n, std::size_t core, Addr line)
    {
        const LS st = nodes[n]->coreState(core, line);
        if (st == LS::Shared || st == LS::SharedLocal)
            nodes[n]->fillFromRemote(core, line);
    }

    /** Toggle a unique copy between E and D (clean-exclusive set-up, and
     *  the silent E -> D write hit that leaves the record unchanged). */
    void
    toggleExclusive(std::size_t n, std::size_t core, Addr line)
    {
        L2Cache &l2 = nodes[n]->l2(core);
        const LS st = l2.state(line);
        if (st == LS::Dirty)
            l2.changeState(line, LS::Exclusive);
        else if (st == LS::Exclusive)
            l2.changeState(line, LS::Dirty);
    }

    LineCensus census;
    std::vector<std::unique_ptr<CmpNode>> nodes;
    std::vector<ExactPredictor *> predictors;
    CoherenceChecker checker{nodes, census};
    Rng rng{GetParam()};
    std::size_t writebacks = 0;
    std::size_t invalidations = 0;
};

TEST_P(CmpNodeRandomTraffic, QueriesMatchL2Scan)
{
    for (int step = 0; step < 3000; ++step) {
        const std::size_t n = rng.nextBelow(2);
        const std::size_t core = rng.nextBelow(kCores);
        const Addr line = lineAt(rng.nextBelow(kLines));
        const std::uint64_t op = rng.nextBelow(100);
        if (op < 40)
            read(n, core, line);
        else if (op < 68)
            write(n, core, line);
        else if (op < 76)
            invalidate(n, line, SIZE_MAX); // a dropped copy, no writer
        else if (op < 84)
            nodes[n]->downgrade(line);
        else if (op < 92)
            refill(n, core, line);
        else
            toggleExclusive(n, core, line);

        SCOPED_TRACE(::testing::Message()
                     << "step " << step << " op " << op);
        expectQueriesMatchScan(0);
        expectQueriesMatchScan(1);
        const auto violations = checker.check();
        for (const auto &v : violations)
            ADD_FAILURE() << "line " << v.line << ": " << v.description;
        if (HasFailure())
            return;
    }
    // The traffic exercised what it is here for.
    std::uint64_t evictions = 0;
    std::uint64_t downgrades = 0;
    for (std::size_t n = 0; n < 2; ++n) {
        for (std::size_t c = 0; c < kCores; ++c)
            evictions += nodes[n]->l2(c).stats().counterValue("evictions");
        downgrades += predictors[n]->downgrades();
    }
    EXPECT_GT(evictions, 100u);
    EXPECT_GT(downgrades, 100u);
    EXPECT_GT(writebacks, 0u);
    EXPECT_GT(invalidations, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CmpNodeRandomTraffic,
                         ::testing::Values(1u, 2u, 3u));

} // namespace
} // namespace flexsnoop
