/**
 * @file
 * Unit tests for the discrete-event kernel.
 *
 * Every behavioural test runs against both EventQueue (the simulator's
 * hierarchical timing wheel) and ReferenceHeapQueue (the binary-heap
 * oracle in reference_heap_queue.hh), including when callables are
 * destroyed and what a throwing event leaves behind; wheel-specific
 * structure — cascades, the far list, sizing — is covered separately,
 * and a randomized differential test drives both queues with one
 * script, whose events also schedule from inside dispatch, and demands
 * identical fire order.
 */

#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "reference_heap_queue.hh"
#include "sim/event_queue.hh"

namespace flexsnoop
{
namespace
{

/** Which queue a behavioural test runs against. */
enum class Scheduler
{
    Wheel, ///< EventQueue
    Heap,  ///< ReferenceHeapQueue
};

class EventQueueImpl : public ::testing::TestWithParam<Scheduler>
{
  protected:
    /** Run @p body, generic over the queue type, on a fresh queue of
     *  the parameter's kind. */
    template <typename Body>
    void
    withQueue(Body &&body)
    {
        if (GetParam() == Scheduler::Wheel) {
            EventQueue q;
            body(q);
        } else {
            ReferenceHeapQueue q;
            body(q);
        }
    }
};

INSTANTIATE_TEST_SUITE_P(
    BothImpls, EventQueueImpl,
    ::testing::Values(Scheduler::Wheel, Scheduler::Heap),
    [](const ::testing::TestParamInfo<Scheduler> &info) {
        return info.param == Scheduler::Wheel ? "Wheel" : "Heap";
    });

TEST_P(EventQueueImpl, StartsAtCycleZeroAndEmpty)
{
    withQueue([](auto &q) {
        EXPECT_EQ(q.now(), 0u);
        EXPECT_EQ(q.pending(), 0u);
        EXPECT_EQ(q.executed(), 0u);
        EXPECT_EQ(q.minPendingTime(), q.kNoEvent);
    });
}

TEST_P(EventQueueImpl, ExecutesEventAtScheduledCycle)
{
    withQueue([](auto &q) {
        Cycle fired_at = 0;
        q.schedule(42, [&]() { fired_at = q.now(); });
        EXPECT_EQ(q.minPendingTime(), 42u);
        q.run();
        EXPECT_EQ(fired_at, 42u);
        EXPECT_EQ(q.now(), 42u);
    });
}

TEST_P(EventQueueImpl, ZeroDelayEventRunsAtCurrentCycle)
{
    withQueue([](auto &q) {
        bool fired = false;
        q.schedule(0, [&]() { fired = true; });
        q.run();
        EXPECT_TRUE(fired);
        EXPECT_EQ(q.now(), 0u);
    });
}

TEST_P(EventQueueImpl, EventsFireInTimeOrder)
{
    withQueue([](auto &q) {
        std::vector<int> order;
        q.schedule(30, [&]() { order.push_back(3); });
        q.schedule(10, [&]() { order.push_back(1); });
        q.schedule(20, [&]() { order.push_back(2); });
        q.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    });
}

TEST_P(EventQueueImpl, SameCycleEventsFireFifo)
{
    withQueue([](auto &q) {
        std::vector<int> order;
        for (int i = 0; i < 8; ++i)
            q.schedule(5, [&order, i]() { order.push_back(i); });
        q.run();
        ASSERT_EQ(order.size(), 8u);
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(order[i], i);
    });
}

TEST_P(EventQueueImpl, EventsMayScheduleMoreEvents)
{
    withQueue([](auto &q) {
        int count = 0;
        std::function<void()> chain = [&]() {
            ++count;
            if (count < 5)
                q.schedule(10, chain);
        };
        q.schedule(10, chain);
        q.run();
        EXPECT_EQ(count, 5);
        EXPECT_EQ(q.now(), 50u);
    });
}

TEST_P(EventQueueImpl, RunHonorsCycleLimit)
{
    withQueue([](auto &q) {
        int fired = 0;
        q.schedule(10, [&]() { ++fired; });
        q.schedule(100, [&]() { ++fired; });
        q.run(50);
        EXPECT_EQ(fired, 1);
        EXPECT_EQ(q.pending(), 1u);
        // The clock stays at the last event run, not at the limit, so
        // bounded chunks end where one unbounded run would.
        EXPECT_EQ(q.now(), 10u);
        q.run(1000);
        EXPECT_EQ(fired, 2);
        EXPECT_EQ(q.now(), 100u);
    });
}

TEST_P(EventQueueImpl, StepExecutesExactlyOneEvent)
{
    withQueue([](auto &q) {
        int fired = 0;
        q.schedule(1, [&]() { ++fired; });
        q.schedule(2, [&]() { ++fired; });
        EXPECT_TRUE(q.step());
        EXPECT_EQ(fired, 1);
        EXPECT_TRUE(q.step());
        EXPECT_EQ(fired, 2);
        EXPECT_FALSE(q.step());
    });
}

TEST_P(EventQueueImpl, ExecutedCountsAllFiredEvents)
{
    withQueue([](auto &q) {
        for (int i = 0; i < 17; ++i)
            q.schedule(i, []() {});
        q.run();
        EXPECT_EQ(q.executed(), 17u);
    });
}

TEST_P(EventQueueImpl, ScheduleAtAbsoluteCycle)
{
    withQueue([](auto &q) {
        q.schedule(10, []() {});
        q.run();
        Cycle fired_at = 0;
        q.scheduleAt(25, [&]() { fired_at = q.now(); });
        q.run();
        EXPECT_EQ(fired_at, 25u);
    });
}

TEST_P(EventQueueImpl, NestedZeroDelayPreservesFifoWithinCycle)
{
    withQueue([](auto &q) {
        std::vector<int> order;
        q.schedule(5, [&]() {
            order.push_back(1);
            q.schedule(0, [&]() { order.push_back(3); });
        });
        q.schedule(5, [&]() { order.push_back(2); });
        q.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    });
}

TEST_P(EventQueueImpl, SameCycleFifoSurvivesHeavyInterleaving)
{
    withQueue([](auto &q) {
        // Stress the tie-breaking: many events on a few cycles, scheduled
        // in a scattered order, must still fire grouped by cycle and FIFO
        // within each cycle.
        std::vector<std::pair<Cycle, int>> order;
        int seq_per_cycle[7] = {};
        for (int i = 0; i < 700; ++i) {
            const Cycle when = static_cast<Cycle>((i * 13) % 7);
            const int seq = seq_per_cycle[when]++;
            q.schedule(when, [&order, when, seq]() {
                order.emplace_back(when, seq);
            });
        }
        q.run();
        ASSERT_EQ(order.size(), 700u);
        for (std::size_t i = 1; i < order.size(); ++i) {
            ASSERT_GE(order[i].first, order[i - 1].first);
            if (order[i].first == order[i - 1].first) {
                ASSERT_EQ(order[i].second, order[i - 1].second + 1);
            }
        }
    });
}

TEST_P(EventQueueImpl, LargeCaptureFallsBackToHeapAndRuns)
{
    withQueue([](auto &q) {
        // A capture bigger than EventFn's inline buffer must still execute
        // correctly (heap fallback path).
        std::array<std::uint64_t, 32> payload{};
        for (std::size_t i = 0; i < payload.size(); ++i)
            payload[i] = i + 1;
        static_assert(sizeof(payload) > EventFn::kInlineSize);

        std::uint64_t sum = 0;
        q.schedule(1, [payload, &sum]() {
            for (auto v : payload)
                sum += v;
        });
        q.run();
        EXPECT_EQ(sum, 32u * 33u / 2u);
    });
}

TEST_P(EventQueueImpl, MoveOnlyCallablesAreSupported)
{
    withQueue([](auto &q) {
        // EventFn is move-only, so callables owning resources (unique_ptr)
        // can be scheduled directly — std::function could not hold these.
        auto owned = std::make_unique<int>(41);
        int result = 0;
        q.schedule(2, [p = std::move(owned), &result]() { result = *p + 1; });
        q.run();
        EXPECT_EQ(result, 42);
    });
}

// Slot lifetime: what dispatch and destruction do to callables --------

TEST_P(EventQueueImpl, ThrowingEventReleasesItsCaptureAndTheRestStillFire)
{
    withQueue([](auto &q) {
        // An event that throws (a retry storm, a stuck-machine abort, a
        // checker violation) must not leak its callable or its slot, and
        // must leave the remaining events queued in (cycle, seq) order.
        auto token = std::make_shared<int>(0);
        std::vector<int> order;
        q.schedule(5, [&order]() { order.push_back(1); });
        q.schedule(5, [token]() { throw std::runtime_error("first"); });
        q.schedule(5, [&order]() { order.push_back(2); });
        q.schedule(9, [token]() { throw std::runtime_error("second"); });
        q.schedule(9, [&order]() { order.push_back(3); });
        q.schedule(12, [&order]() { order.push_back(4); });
        EXPECT_EQ(token.use_count(), 3);

        EXPECT_THROW(q.run(), std::runtime_error);
        EXPECT_EQ(token.use_count(), 2);
        EXPECT_EQ(q.now(), 5u);
        EXPECT_EQ(q.pending(), 4u);
        EXPECT_EQ(order, (std::vector<int>{1}));

        EXPECT_TRUE(q.step());
        EXPECT_THROW(q.step(), std::runtime_error);
        EXPECT_EQ(token.use_count(), 1);
        EXPECT_EQ(q.now(), 9u);

        q.schedule(0, [&order]() { order.push_back(5); });
        q.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5, 4}));
        EXPECT_EQ(q.executed(), 7u);
        EXPECT_EQ(q.pending(), 0u);
    });
}

TEST_P(EventQueueImpl, CapturesDieAfterDispatchOnClearAndWithTheQueue)
{
    withQueue([](auto &q) {
        auto token = std::make_shared<int>(0);
        // The heap-fallback path (a capture too big to store inline) must
        // free its callable at the same points as the inline one.
        std::array<std::uint64_t, 16> ballast{};
        static_assert(sizeof(ballast) > EventFn::kInlineSize);

        long alive_while_running = 0;
        q.schedule(1, [token, &alive_while_running]() {
            alive_while_running = token.use_count();
        });
        q.schedule(2, [token, ballast]() { (void)ballast; });
        q.schedule(2, [token]() {});
        EXPECT_EQ(token.use_count(), 4);

        EXPECT_TRUE(q.step());
        EXPECT_EQ(alive_while_running, 4);
        EXPECT_EQ(token.use_count(), 3) << "destroyed right after dispatch";
        EXPECT_TRUE(q.step());
        EXPECT_EQ(token.use_count(), 2) << "heap fallback destroyed too";

        {
            std::remove_reference_t<decltype(q)> doomed;
            doomed.schedule(3, [token]() {});
            doomed.schedule(5'000, [token, ballast]() { (void)ballast; });
            doomed.schedule(1ull << 40, [token]() {});
            EXPECT_EQ(token.use_count(), 5);
        }
        EXPECT_EQ(token.use_count(), 2) << "the queue's destructor frees them";
    });
}

TEST_P(EventQueueImpl, DelayZeroFromDispatchJoinsTheBackOfTheCycle)
{
    withQueue([](auto &q) {
        // Events scheduled at delay 0 while their cycle drains run after
        // every same-cycle event already queued, in scheduling order —
        // including when the scheduling event was the cycle's last and
        // its bucket had already been retired.
        std::vector<std::string> order;
        const auto log = [&order](std::string name) {
            return [&order, name]() { order.push_back(name); };
        };
        q.schedule(5, [&]() {
            order.push_back("a");
            q.schedule(0, log("a1"));
            q.schedule(0, [&]() {
                order.push_back("a2");
                q.schedule(0, log("a2x"));
            });
        });
        q.schedule(5, [&]() {
            order.push_back("b");
            q.schedule(0, log("b1"));
        });
        q.schedule(5, [&]() {
            order.push_back("c");
            q.schedule(0, log("c1"));
        });
        q.schedule(6, log("next"));
        q.run();
        EXPECT_EQ(order,
                  (std::vector<std::string>{"a", "b", "c", "a1", "a2", "b1",
                                            "c1", "a2x", "next"}));

        // A lone event drains the whole queue before it schedules.
        order.clear();
        q.schedule(3, [&]() {
            order.push_back("only");
            q.schedule(0, log("then"));
        });
        q.run();
        EXPECT_EQ(order, (std::vector<std::string>{"only", "then"}));
        EXPECT_EQ(q.now(), 9u);
    });
}

// Edge behaviour shared by both implementations --------------------------

TEST_P(EventQueueImpl, MinPendingTimeTracksTheFrontier)
{
    withQueue([](auto &q) {
        q.schedule(90, []() {});
        q.schedule(40, []() {});
        EXPECT_EQ(q.minPendingTime(), 40u);
        q.schedule(10, []() {});
        EXPECT_EQ(q.minPendingTime(), 10u);
        q.step();
        EXPECT_EQ(q.minPendingTime(), 40u);
        q.step();
        EXPECT_EQ(q.minPendingTime(), 90u);
        q.step();
        EXPECT_EQ(q.minPendingTime(), q.kNoEvent);
    });
}

TEST_P(EventQueueImpl, LongIdleJumpThenZeroDelay)
{
    withQueue([](auto &q) {
        // Drain far past the near window, then schedule at the new now:
        // the wheel must re-anchor, not wrap onto stale buckets.
        std::vector<Cycle> fired;
        q.schedule(1'000'000, [&]() {
            fired.push_back(q.now());
            q.schedule(0, [&]() { fired.push_back(q.now()); });
            q.schedule(3, [&]() { fired.push_back(q.now()); });
        });
        q.run();
        EXPECT_EQ(fired,
                  (std::vector<Cycle>{1'000'000, 1'000'000, 1'000'003}));
    });
}

TEST_P(EventQueueImpl, SameCycleFifoAcrossWheelWrap)
{
    withQueue([](auto &q) {
        // Pairs of same-cycle events on cycles straddling several near-
        // window wraps (the wheel defaults to 256 single-cycle buckets):
        // FIFO within a cycle must hold no matter which wrap the bucket
        // belongs to, including events scheduled across different wraps
        // before any of them fire.
        std::vector<std::pair<Cycle, int>> order;
        const std::array<Cycle, 6> cycles = {250, 255, 256, 257, 511, 513};
        for (int round = 0; round < 4; ++round)
            for (const Cycle c : cycles)
                q.schedule(c, [&order, c, round]() {
                    order.emplace_back(c, round);
                });
        q.run();
        ASSERT_EQ(order.size(), cycles.size() * 4);
        std::size_t i = 0;
        for (const Cycle c : cycles)
            for (int round = 0; round < 4; ++round, ++i) {
                EXPECT_EQ(order[i].first, c);
                EXPECT_EQ(order[i].second, round);
            }
    });
}

TEST_P(EventQueueImpl, DelaysSpanningEveryWheelLevel)
{
    withQueue([](auto &q) {
        // One event per structural region of the wheel: current bucket,
        // near window, each overflow level, and the far list — scheduled
        // out of order, fired in order.
        const std::vector<Cycle> delays = {
            1ull << 40,       // far list (beyond level 3)
            (1ull << 25) + 3, // level 3
            70'000,           // level 2
            3'000,            // level 1
            100,              // near window
            0,                // current bucket
        };
        std::vector<Cycle> fired;
        for (const Cycle d : delays)
            q.schedule(d, [&fired, &q = q]() { fired.push_back(q.now()); });
        q.run();
        std::vector<Cycle> expect(delays.rbegin(), delays.rend());
        EXPECT_EQ(fired, expect);
    });
}

TEST_P(EventQueueImpl, RunWithNoEventLimitDrainsEverything)
{
    withQueue([](auto &q) {
        int fired = 0;
        q.schedule(10, [&]() { ++fired; });
        q.schedule(1ull << 35, [&]() { ++fired; });
        EXPECT_EQ(q.run(q.kNoEvent), 2u);
        EXPECT_EQ(fired, 2);
        EXPECT_EQ(q.pending(), 0u);
    });
}

// Wheel-specific structure ----------------------------------------------

TEST(TimingWheelQueue, ConfigureRoundsToPowerOfTwoAndClamps)
{
    EventQueue q;
    q.configureWheel(1420); // rounds up to the next power of two
    EXPECT_EQ(q.nearBuckets(), 2048u);
    q.configureWheel(64);
    EXPECT_EQ(q.nearBuckets(), 64u);
    q.configureWheel(1); // below the minimum
    EXPECT_EQ(q.nearBuckets(), TimingWheel::kMinNearBuckets);
    q.configureWheel(1u << 20); // above the maximum
    EXPECT_EQ(q.nearBuckets(), TimingWheel::kMaxNearBuckets);
}

TEST(TimingWheelQueue, ConfiguredSizeStillFiresInOrder)
{
    for (const std::size_t buckets : {64u, 256u, 4096u}) {
        EventQueue q;
        q.configureWheel(buckets);
        std::vector<Cycle> fired;
        for (const Cycle d : {5000u, 63u, 700u, 0u, 65u})
            q.schedule(d, [&fired, &q]() { fired.push_back(q.now()); });
        q.run();
        EXPECT_EQ(fired, (std::vector<Cycle>{0, 63, 65, 700, 5000}))
            << buckets << " near buckets";
    }
}

TEST(TimingWheelQueue, OverflowEventsCascadeDown)
{
    EventQueue q;
    q.configureWheel(64);
    int fired = 0;
    // Past the 64-cycle near window: must first land in an overflow
    // level, then cascade into the near wheel as time advances.
    q.schedule(10'000, [&]() { ++fired; });
    q.schedule(200, [&]() { ++fired; });
    EXPECT_EQ(q.wheel().overflowScheduled(), 2u);
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_GE(q.wheel().cascades(), 2u);
    EXPECT_GE(q.wheel().cascadedEntries(), 2u);
}

TEST(TimingWheelQueue, FarListBeyondLastOverflowLevel)
{
    EventQueue q;
    q.configureWheel(64);
    // 64 near cycles + 3 levels x 8 bits = 2^30 max coverage; past
    // that the entry rides the unsorted far list.
    const Cycle far_delay = 1ull << 32;
    std::vector<Cycle> fired;
    q.schedule(far_delay, [&]() { fired.push_back(q.now()); });
    q.schedule(far_delay + 1, [&]() { fired.push_back(q.now()); });
    q.schedule(5, [&]() { fired.push_back(q.now()); });
    EXPECT_EQ(q.wheel().farScheduled(), 2u);
    q.run();
    EXPECT_EQ(fired,
              (std::vector<Cycle>{5, far_delay, far_delay + 1}));
}

// Differential: one script, wheel and heap, identical order ------------

/** Deterministic xorshift64* so the stress script is reproducible. */
struct Rng
{
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    std::uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dull;
    }
    std::uint64_t pick(std::uint64_t n) { return next() % n; }
};

/** SplitMix64 finaliser. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * One side of the differential script. Every event logs its id, and
 * some schedule follow-ups from inside dispatch, as the simulator
 * almost always does. What an event schedules is a pure function of
 * its id, so both sides make the same choices while they fire in the
 * same order.
 */
template <typename Queue>
class ScriptedQueue
{
  public:
    /** Follow-up delay classes, one per structural region of a wheel
     *  with the default 256 near buckets. */
    enum DelayClass
    {
        SameCycle,
        NearWindow,
        Level1,
        Level2,
        Level3,
        FarList,
        NumClasses
    };

    void
    add(Cycle delay, std::uint64_t id, int depth = 0)
    {
        q.schedule(delay, [this, id, depth]() { fire(id, depth); });
    }

    Queue q;
    std::vector<std::uint64_t> order;
    std::array<unsigned, NumClasses> nested{};

  private:
    static constexpr std::uint64_t kNestedIds = 1ull << 32;
    static constexpr unsigned kMaxNested = 4000;

    void
    fire(std::uint64_t id, int depth)
    {
        order.push_back(id);
        const std::uint64_t h = mix(id);
        if (depth >= 3 || h % 3 != 0 || _spawned >= kMaxNested)
            return;
        const unsigned children = 1 + static_cast<unsigned>((h >> 8) % 2);
        for (unsigned k = 0; k < children; ++k) {
            const std::uint64_t hk = mix(h + k);
            const DelayClass c = classOf(hk);
            ++nested[c];
            add(delayIn(c, hk >> 8), kNestedIds + _spawned++, depth + 1);
        }
    }

    static DelayClass
    classOf(std::uint64_t h)
    {
        const std::uint64_t r = h % 16;
        if (r < 4)
            return SameCycle;
        if (r < 8)
            return NearWindow;
        if (r < 11)
            return Level1;
        if (r < 13)
            return Level2;
        if (r < 15)
            return Level3;
        return FarList;
    }

    static Cycle
    delayIn(DelayClass c, std::uint64_t r)
    {
        switch (c) {
        case SameCycle:
            return 0;
        case NearWindow:
            return 1 + r % 200;
        case Level1:
            return 300 + r % 60'000;
        case Level2:
            return 70'000 + r % 16'000'000;
        case Level3:
            return 17'000'000 + r % 4'000'000'000ull;
        default:
            return (1ull << 33) + r % 1'000; // beyond level 3's window
        }
    }

    unsigned _spawned = 0;
};

TEST(QueueDifferential, WheelMatchesHeapOnRandomScript)
{
    ScriptedQueue<EventQueue> wheel;
    ScriptedQueue<ReferenceHeapQueue> heap;

    // Delay mix mirroring the simulator: mostly short ring-scale hops,
    // some bus/memory round trips, rare watchdog-scale timeouts.
    const auto draw_delay = [](Rng &r) -> Cycle {
        switch (r.pick(10)) {
        case 0:
        case 1:
        case 2:
        case 3:
            return r.pick(8); // same-cycle / next-hop
        case 4:
        case 5:
        case 6:
            return 39 + r.pick(300); // ring and bus latencies
        case 7:
        case 8:
            return 710 + r.pick(2000); // memory round trips
        default:
            return 20'000 + r.pick(1u << 22); // watchdog horizon
        }
    };

    Rng rng;
    std::uint64_t next_id = 0;
    for (int round = 0; round < 40; ++round) {
        // Same script against both queues: a batch of schedules, then
        // a partial drain. Both must observe identical state throughout.
        const std::size_t batch = 4 + rng.pick(24);
        for (std::size_t i = 0; i < batch; ++i) {
            const Cycle delay = draw_delay(rng);
            const std::uint64_t id = next_id++;
            wheel.add(delay, id);
            heap.add(delay, id);
        }

        const std::size_t steps = rng.pick(2 * batch);
        for (std::size_t i = 0; i < steps; ++i) {
            if (!wheel.q.step())
                break;
            ASSERT_TRUE(heap.q.step());
        }
        ASSERT_EQ(wheel.q.now(), heap.q.now()) << "round " << round;
        ASSERT_EQ(wheel.q.pending(), heap.q.pending()) << "round " << round;
        ASSERT_EQ(wheel.q.minPendingTime(), heap.q.minPendingTime())
            << "round " << round;
    }

    wheel.q.run();
    heap.q.run();
    EXPECT_EQ(wheel.q.executed(), heap.q.executed());
    EXPECT_EQ(wheel.q.now(), heap.q.now());
    ASSERT_EQ(wheel.order.size(), heap.order.size());
    EXPECT_EQ(wheel.order, heap.order);

    // The script reached every region of the wheel from inside
    // dispatch, and the wheel cascaded and relinked far-list slots.
    for (unsigned c = 0; c < ScriptedQueue<EventQueue>::NumClasses; ++c)
        EXPECT_GT(wheel.nested[c], 0u) << "delay class " << c;
    EXPECT_GT(wheel.q.wheel().overflowScheduled(), 0u);
    EXPECT_GT(wheel.q.wheel().farScheduled(), 0u);
    EXPECT_GT(wheel.q.wheel().cascades(), 0u);
}

} // namespace
} // namespace flexsnoop
