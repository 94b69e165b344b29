/**
 * @file
 * Unit tests for the generic set-associative array, plus a randomized
 * differential test against a recency-list reference model: the array
 * owns victim selection, which every modeled result depends on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "mem/set_assoc_array.hh"

namespace flexsnoop
{
namespace
{

Addr
line(std::uint64_t idx)
{
    return idx * kLineSizeBytes;
}

TEST(SetAssocArray, GeometryDerivedFromParameters)
{
    SetAssocArray<int> arr(64, 4);
    EXPECT_EQ(arr.numEntries(), 64u);
    EXPECT_EQ(arr.associativity(), 4u);
    EXPECT_EQ(arr.numSets(), 16u);
    EXPECT_EQ(arr.occupancy(), 0u);
}

TEST(SetAssocArray, InsertThenLookup)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(line(3), 42);
    const int *payload = arr.lookup(line(3));
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(*payload, 42);
    EXPECT_EQ(arr.occupancy(), 1u);
}

TEST(SetAssocArray, LookupMissReturnsNull)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(line(3), 1);
    EXPECT_EQ(arr.lookup(line(4)), nullptr);
}

TEST(SetAssocArray, OffsetBitsIgnored)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(line(3) + 17, 9);
    ASSERT_NE(arr.lookup(line(3) + 42), nullptr);
    EXPECT_EQ(*arr.lookup(line(3)), 9);
}

TEST(SetAssocArray, ReinsertOverwritesPayloadWithoutEviction)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(line(3), 1);
    const auto res = arr.insert(line(3), 2);
    EXPECT_FALSE(res.evicted);
    EXPECT_EQ(*arr.lookup(line(3)), 2);
    EXPECT_EQ(arr.occupancy(), 1u);
}

TEST(SetAssocArray, EvictsLruWhenSetFull)
{
    // 1 set, 2 ways: lines all map to the same set.
    SetAssocArray<int> arr(2, 2);
    arr.insert(line(0), 10);
    arr.insert(line(1), 11);
    // Touch line 0 so line 1 becomes LRU.
    arr.lookup(line(0));
    const auto res = arr.insert(line(2), 12);
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.evictedAddr, line(1));
    EXPECT_EQ(res.evictedPayload, 11);
    EXPECT_NE(arr.lookup(line(0)), nullptr);
    EXPECT_EQ(arr.lookup(line(1)), nullptr);
    EXPECT_NE(arr.lookup(line(2)), nullptr);
}

TEST(SetAssocArray, LookupWithoutTouchDoesNotAffectLru)
{
    SetAssocArray<int> arr(2, 2);
    arr.insert(line(0), 10);
    arr.insert(line(1), 11);
    arr.lookup(line(0), /*touch=*/false); // line 0 stays LRU
    const auto res = arr.insert(line(2), 12);
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.evictedAddr, line(0));
}

TEST(SetAssocArray, EraseFreesTheWay)
{
    SetAssocArray<int> arr(4, 2);
    arr.insert(line(0), 1);
    EXPECT_TRUE(arr.erase(line(0)));
    EXPECT_EQ(arr.lookup(line(0)), nullptr);
    EXPECT_FALSE(arr.erase(line(0)));
    EXPECT_EQ(arr.occupancy(), 0u);
}

TEST(SetAssocArray, DifferentSetsDoNotInterfere)
{
    SetAssocArray<int> arr(8, 2); // 4 sets
    // Lines 0 and 4 share set 0; lines 1, 2, 3 use other sets.
    arr.insert(line(0), 0);
    arr.insert(line(1), 1);
    arr.insert(line(2), 2);
    arr.insert(line(3), 3);
    arr.insert(line(4), 4);
    EXPECT_EQ(arr.occupancy(), 5u);
    for (std::uint64_t i = 0; i <= 4; ++i)
        ASSERT_NE(arr.lookup(line(i)), nullptr) << i;
}

TEST(SetAssocArray, ClearInvalidatesEverything)
{
    SetAssocArray<int> arr(8, 2);
    for (std::uint64_t i = 0; i < 6; ++i)
        arr.insert(line(i), static_cast<int>(i));
    arr.clear();
    EXPECT_EQ(arr.occupancy(), 0u);
    for (std::uint64_t i = 0; i < 6; ++i)
        EXPECT_EQ(arr.lookup(line(i)), nullptr);
}

TEST(SetAssocArray, ForEachValidVisitsAllEntries)
{
    SetAssocArray<int> arr(8, 2);
    arr.insert(line(1), 10);
    arr.insert(line(2), 20);
    int sum = 0;
    std::size_t count = 0;
    arr.forEachValid([&](Addr, const int &v) {
        sum += v;
        ++count;
    });
    EXPECT_EQ(count, 2u);
    EXPECT_EQ(sum, 30);
}

TEST(SetAssocArray, FullAssociativeStress)
{
    SetAssocArray<int> arr(128, 8);
    // Insert 4x the capacity; occupancy must cap at capacity and every
    // resident line must be findable with the right payload.
    for (std::uint64_t i = 0; i < 512; ++i)
        arr.insert(line(i), static_cast<int>(i));
    EXPECT_EQ(arr.occupancy(), 128u);
    arr.forEachValid([&](Addr a, const int &v) {
        EXPECT_EQ(static_cast<int>(lineIndex(a)), v);
    });
}

/**
 * Reference model: each set is a list of (line, payload) in recency
 * order, most recent first. A full set evicts its last element.
 */
class RecencyListModel
{
  public:
    RecencyListModel(std::size_t sets, std::size_t ways)
        : _sets(sets), _ways(ways)
    {
    }

    std::optional<int>
    lookup(Addr a, bool touch)
    {
        auto &set = _sets[lineIndex(a) % _sets.size()];
        auto it = std::find_if(set.begin(), set.end(),
                               [a](const auto &e) { return e.first == a; });
        if (it == set.end())
            return std::nullopt;
        if (touch)
            set.splice(set.begin(), set, it);
        return it->second;
    }

    /** @return the evicted (line, payload), if any. */
    std::optional<std::pair<Addr, int>>
    insert(Addr a, int payload)
    {
        auto &set = _sets[lineIndex(a) % _sets.size()];
        if (lookup(a, true)) {
            set.front().second = payload;
            return std::nullopt;
        }
        std::optional<std::pair<Addr, int>> evicted;
        if (set.size() == _ways) {
            evicted = set.back();
            set.pop_back();
        }
        set.emplace_front(a, payload);
        return evicted;
    }

    bool
    erase(Addr a)
    {
        auto &set = _sets[lineIndex(a) % _sets.size()];
        const auto before = set.size();
        set.remove_if([a](const auto &e) { return e.first == a; });
        return set.size() != before;
    }

    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto &set : _sets)
            n += set.size();
        return n;
    }

  private:
    std::vector<std::list<std::pair<Addr, int>>> _sets;
    std::size_t _ways;
};

TEST(SetAssocArray, RandomizedDifferentialAgainstRecencyLists)
{
    // 64 entries, 8 ways (8 sets); 16 candidate lines per set and 3/8
    // inserts vs 1/8 erases, so sets overflow constantly.
    constexpr std::size_t kEntries = 64;
    constexpr std::size_t kWays = 8;
    constexpr std::uint64_t kLines = 128;
    SetAssocArray<int> arr(kEntries, kWays);
    RecencyListModel ref(kEntries / kWays, kWays);
    std::mt19937_64 rng(2006);
    std::size_t evictions = 0;
    const auto expectSame = [](const int *got, std::optional<int> want) {
        ASSERT_EQ(got != nullptr, want.has_value());
        if (want) {
            ASSERT_EQ(*got, *want);
        }
    };

    for (int op = 0; op < 50000; ++op) {
        const Addr a = line(rng() % kLines);
        SCOPED_TRACE(op);
        switch (rng() % 8) {
          case 0:
          case 1:
          case 2: { // insert
            const auto got = arr.insert(a, op);
            const auto want = ref.insert(a, op);
            ASSERT_EQ(got.evicted, want.has_value());
            if (want) {
                ASSERT_EQ(got.evictedAddr, want->first);
                ASSERT_EQ(got.evictedPayload, want->second);
                ++evictions;
            }
            break;
          }
          case 3:
          case 4: { // lookup that updates LRU
            const int *got = rng() % 2
                                 ? arr.lookup(a, true)
                                 : arr.lookupInSet(arr.setIndex(a), a, true);
            expectSame(got, ref.lookup(a, true));
            break;
          }
          case 5:
          case 6: // lookup that does not
            expectSame(std::as_const(arr).lookup(a), ref.lookup(a, false));
            break;
          default: // erase
            ASSERT_EQ(rng() % 2 ? arr.erase(a)
                                : arr.eraseInSet(arr.setIndex(a), a),
                      ref.erase(a));
            break;
        }
        ASSERT_EQ(arr.occupancy(), ref.size());
    }
    EXPECT_GT(evictions, 5000u);
}

TEST(SetAssocArray, InsertResultDefaultIsNoEviction)
{
    SetAssocArray<int> arr(8, 2);
    const auto res = arr.insert(line(0), 5);
    EXPECT_FALSE(res.evicted);
    EXPECT_EQ(res.evictedAddr, kInvalidAddr);
}

} // namespace
} // namespace flexsnoop
