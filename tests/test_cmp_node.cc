/**
 * @file
 * Unit tests for the CMP node: supplier-set tracking, protocol
 * transitions for local/remote supply, write invalidation, the
 * Exact-predictor downgrade path, and the machine-wide line census the
 * node reports to.
 */

#include <gtest/gtest.h>

#include <vector>

#include "coherence/cmp_node.hh"
#include "predictor/subset_predictor.hh"

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

} // namespace
} // namespace flexsnoop
