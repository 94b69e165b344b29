/**
 * @file
 * Unit tests for the allocation-free hot-path containers: SlotPool
 * (recycled slots, stable addresses) and FlatMap (open addressing,
 * tombstone erase, capacity set by the live count).
 */

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <unordered_map>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/slot_pool.hh"

namespace flexsnoop
{
namespace
{

struct Payload
{
    int value = 0;
    std::vector<int> scratch;
};

TEST(SlotPool, RecyclesSlotsWithoutNewChunks)
{
    SlotPool<Payload> pool(4);
    Payload *a = pool.acquire();
    a->scratch.assign(100, 7);
    pool.release(a);

    // The freed slot comes back (LIFO) with its state intact; the
    // caller re-initializes but keeps grown capacity.
    Payload *b = pool.acquire();
    EXPECT_EQ(a, b);
    EXPECT_EQ(b->scratch.size(), 100u);
    EXPECT_GE(b->scratch.capacity(), 100u);
    pool.release(b);

    EXPECT_EQ(pool.chunkAllocs(), 1u);
    EXPECT_EQ(pool.acquires(), 2u);
    EXPECT_EQ(pool.releases(), 2u);
    EXPECT_EQ(pool.live(), 0u);
}

TEST(SlotPool, GrowsByChunksAndKeepsAddressesStable)
{
    SlotPool<Payload> pool(2);
    std::vector<Payload *> out;
    for (int i = 0; i < 7; ++i) {
        Payload *p = pool.acquire();
        p->value = i;
        out.push_back(p);
    }
    EXPECT_EQ(pool.chunkAllocs(), 4u); // ceil(7/2)
    EXPECT_EQ(pool.live(), 7u);
    EXPECT_EQ(pool.slotsAllocated(), 8u);

    // All handed-out pointers are distinct and still hold their data
    // after the growth that happened in between.
    std::set<Payload *> distinct(out.begin(), out.end());
    EXPECT_EQ(distinct.size(), out.size());
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ(out[i]->value, i);
    for (Payload *p : out)
        pool.release(p);
    EXPECT_EQ(pool.live(), 0u);
}

TEST(FlatMap, PutFindErase)
{
    FlatMap<int> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(42), nullptr);

    map.put(42, 1);
    map.put(7, 2);
    ASSERT_NE(map.find(42), nullptr);
    EXPECT_EQ(*map.find(42), 1);
    EXPECT_EQ(*map.find(7), 2);
    EXPECT_EQ(map.size(), 2u);

    map.put(42, 3); // overwrite, no duplicate
    EXPECT_EQ(*map.find(42), 3);
    EXPECT_EQ(map.size(), 2u);

    EXPECT_TRUE(map.erase(42));
    EXPECT_FALSE(map.erase(42));
    EXPECT_EQ(map.find(42), nullptr);
    EXPECT_EQ(*map.find(7), 2);
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, ProbeServesTheLookupAndTheInsert)
{
    FlatMap<int> map;
    auto p = map.probe(7);
    EXPECT_EQ(p.value, nullptr);
    map.insert(p) = 3;
    ASSERT_NE(p.value, nullptr);
    EXPECT_EQ(*p.value, 3);
    EXPECT_EQ(*map.find(7), 3);
    auto q = map.probe(7);
    ASSERT_NE(q.value, nullptr);
    EXPECT_EQ(*q.value, 3);

    // Inserts that cross the rehash threshold (the probe's slot is then
    // stale, so insert walks the grown table) still land.
    for (std::uint64_t k = 100; k < 300; ++k) {
        auto r = map.probe(k);
        ASSERT_EQ(r.value, nullptr);
        map.insert(r) = static_cast<int>(k);
    }
    // Erased keys leave tombstones that a probe offers for reuse.
    for (std::uint64_t k = 100; k < 300; k += 2)
        EXPECT_TRUE(map.erase(k));
    const std::size_t capacity = map.capacity();
    for (std::uint64_t k = 1000; k < 1100; ++k) {
        auto r = map.probe(k);
        map.insert(r) = static_cast<int>(k);
    }
    EXPECT_EQ(map.capacity(), capacity);
    EXPECT_EQ(map.size(), 1u + 100u + 100u);
    for (std::uint64_t k = 101; k < 300; k += 2)
        EXPECT_EQ(*map.find(k), static_cast<int>(k));
    for (std::uint64_t k = 1000; k < 1100; ++k)
        EXPECT_EQ(*map.find(k), static_cast<int>(k));
}

TEST(FlatMap, GetOrCreateDefaultConstructs)
{
    FlatMap<int *> map;
    int *&slot = map.getOrCreate(5);
    EXPECT_EQ(slot, nullptr); // value-initialized
    int x = 9;
    slot = &x;
    EXPECT_EQ(*map.find(5), &x);

    // Erase resets the stored value, so a recycled mapping starts null.
    map.erase(5);
    EXPECT_EQ(map.getOrCreate(5), nullptr);
}

TEST(FlatMap, SurvivesGrowthAndTombstoneChurn)
{
    FlatMap<std::uint64_t> map;
    const std::uint64_t n = 2000;
    for (std::uint64_t k = 0; k < n; ++k)
        map.put(k * 64, k); // line-address-like keys: low-entropy bits
    EXPECT_EQ(map.size(), n);
    for (std::uint64_t k = 0; k < n; k += 2)
        EXPECT_TRUE(map.erase(k * 64));
    EXPECT_EQ(map.size(), n / 2);

    // Every surviving key still resolves; every erased key is gone.
    for (std::uint64_t k = 0; k < n; ++k) {
        const std::uint64_t *v = map.find(k * 64);
        if (k % 2) {
            ASSERT_NE(v, nullptr) << k;
            EXPECT_EQ(*v, k);
        } else {
            EXPECT_EQ(v, nullptr) << k;
        }
    }

    // Tombstoned slots are reused by later inserts.
    for (std::uint64_t k = 0; k < n; k += 2)
        map.put(k * 64, k + 1000000);
    EXPECT_EQ(map.size(), n);
    EXPECT_EQ(*map.find(0), 1000000u);
}

TEST(FlatMap, ChurnDoesNotGrowCapacity)
{
    // 100,000 put/erase cycles with at most 8 live keys, once with
    // sequential keys (like transaction ids) and once with k * 64 (like
    // line addresses). Capacity must follow the 8 live keys, not the
    // churn, and the table must stay exact through every re-pack.
    constexpr std::uint64_t kCycles = 100000;
    for (const std::uint64_t stride : {std::uint64_t{1}, std::uint64_t{64}}) {
        SCOPED_TRACE(stride);
        FlatMap<std::uint64_t> map;
        std::mt19937_64 rng(stride);
        std::vector<std::uint64_t> live;
        for (std::uint64_t k = 1; k <= kCycles; ++k) {
            map.put(k * stride, k);
            live.push_back(k);
            if (live.size() == 8) {
                const std::size_t victim = rng() % live.size();
                ASSERT_TRUE(map.erase(live[victim] * stride)) << k;
                live[victim] = live.back();
                live.pop_back();
            }
        }
        EXPECT_LE(map.capacity(), 64u);
        EXPECT_EQ(map.size(), live.size());
        const std::set<std::uint64_t> alive(live.begin(), live.end());
        for (std::uint64_t k = 1; k <= kCycles; ++k) {
            const std::uint64_t *v = map.find(k * stride);
            if (alive.count(k)) {
                ASSERT_NE(v, nullptr) << k;
                EXPECT_EQ(*v, k);
            } else {
                ASSERT_EQ(v, nullptr) << k;
            }
        }
    }
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomChurn)
{
    // The live count climbs to ~650, then drifts between ~350 and ~650:
    // the table first grows to new highs, then re-packs in place at a
    // fixed capacity.
    FlatMap<std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    std::mt19937_64 rng(7);
    for (std::uint64_t step = 0; step < 200000; ++step) {
        const std::uint64_t phase = (step / 20000) % 2;
        const std::uint64_t key = (rng() % 1024) * 64;
        const bool insert = rng() % 100 < (phase ? 35u : 65u);
        if (insert) {
            map.put(key, step);
            ref[key] = step;
        } else {
            ASSERT_EQ(map.erase(key), ref.erase(key) == 1) << step;
        }
        ASSERT_EQ(map.size(), ref.size()) << step;
    }
    EXPECT_LE(map.capacity(), 2048u);
    for (std::uint64_t k = 0; k < 1024; ++k) {
        const auto it = ref.find(k * 64);
        const std::uint64_t *v = map.find(k * 64);
        if (it == ref.end()) {
            EXPECT_EQ(v, nullptr) << k;
        } else {
            ASSERT_NE(v, nullptr) << k;
            EXPECT_EQ(*v, it->second);
        }
    }
}

TEST(FlatMap, ForEachVisitsExactlyTheLiveMappings)
{
    FlatMap<int> map;
    for (int k = 1; k <= 10; ++k)
        map.put(static_cast<std::uint64_t>(k), k);
    map.erase(3);
    map.erase(8);

    std::set<std::uint64_t> seen;
    int sum = 0;
    map.forEach([&](std::uint64_t key, int value) {
        seen.insert(key);
        sum += value;
    });
    EXPECT_EQ(seen.size(), 8u);
    EXPECT_EQ(sum, 55 - 3 - 8);
    EXPECT_FALSE(seen.count(3));
    EXPECT_FALSE(seen.count(8));
}

TEST(FlatMap, ClearRetainsNothing)
{
    FlatMap<int> map;
    for (int k = 0; k < 50; ++k)
        map.put(static_cast<std::uint64_t>(k), k);
    map.clear();
    EXPECT_TRUE(map.empty());
    for (int k = 0; k < 50; ++k)
        EXPECT_EQ(map.find(static_cast<std::uint64_t>(k)), nullptr);
    map.put(1, 1);
    EXPECT_EQ(map.size(), 1u);
}

} // namespace
} // namespace flexsnoop
