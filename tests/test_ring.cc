/**
 * @file
 * Unit tests for the embedded unidirectional ring(s).
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/ring.hh"
#include "sim/fault_injector.hh"

namespace flexsnoop
{
namespace
{

SnoopMessage
makeMsg(TransactionId txn, Addr line, NodeId requester)
{
    SnoopMessage msg;
    msg.type = MsgType::CombinedRR;
    msg.kind = SnoopKind::Read;
    msg.txn = txn;
    msg.line = line;
    msg.requester = requester;
    return msg;
}

TEST(Ring, DeliversToSuccessorAfterLinkLatency)
{
    EventQueue queue;
    RingParams params;
    params.linkLatency = 39;
    Ring ring(queue, 4, params, "r");
    Cycle arrived_at = 0;
    NodeId got = kInvalidNode;
    for (NodeId n = 0; n < 4; ++n) {
        ring.setHandler(n, [&, n](const SnoopMessage &) {
            arrived_at = queue.now();
            got = n;
        });
    }
    ring.send(0, makeMsg(1, 0, 0));
    queue.run();
    EXPECT_EQ(got, 1u);
    EXPECT_EQ(arrived_at, 39u);
}

TEST(Ring, WrapsAroundFromLastNode)
{
    EventQueue queue;
    Ring ring(queue, 4, RingParams{}, "r");
    NodeId got = kInvalidNode;
    for (NodeId n = 0; n < 4; ++n)
        ring.setHandler(n, [&, n](const SnoopMessage &) { got = n; });
    ring.send(3, makeMsg(1, 0, 3));
    queue.run();
    EXPECT_EQ(got, 0u);
}

TEST(Ring, SuccessorAndDistance)
{
    EventQueue queue;
    Ring ring(queue, 8, RingParams{}, "r");
    EXPECT_EQ(ring.successor(0), 1u);
    EXPECT_EQ(ring.successor(7), 0u);
    EXPECT_EQ(ring.distance(0, 0), 0u);
    EXPECT_EQ(ring.distance(0, 3), 3u);
    EXPECT_EQ(ring.distance(6, 2), 4u);
    EXPECT_EQ(ring.distance(2, 1), 7u);
}

TEST(Ring, FullCircleVisitsEveryNodeInOrder)
{
    EventQueue queue;
    RingParams params;
    params.linkLatency = 10;
    Ring ring(queue, 5, params, "r");
    std::vector<NodeId> visits;
    for (NodeId n = 0; n < 5; ++n) {
        ring.setHandler(n, [&, n](const SnoopMessage &msg) {
            visits.push_back(n);
            if (n != msg.requester)
                ring.send(n, msg);
        });
    }
    ring.send(2, makeMsg(1, 0, 2));
    queue.run();
    EXPECT_EQ(visits, (std::vector<NodeId>{3, 4, 0, 1, 2}));
    EXPECT_EQ(queue.now(), 50u);
    EXPECT_EQ(ring.linkTraversals(), 5u);
}

TEST(Ring, LinkOccupancySerializesBackToBackMessages)
{
    EventQueue queue;
    RingParams params;
    params.linkLatency = 39;
    params.serialization = 12;
    Ring ring(queue, 4, params, "r");
    std::vector<Cycle> arrivals;
    ring.setHandler(1, [&](const SnoopMessage &) {
        arrivals.push_back(queue.now());
    });
    ring.send(0, makeMsg(1, 0, 0));
    ring.send(0, makeMsg(2, 0, 0));
    ring.send(0, makeMsg(3, 0, 0));
    queue.run();
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_EQ(arrivals[0], 39u);
    EXPECT_EQ(arrivals[1], 51u); // 12 cycles behind
    EXPECT_EQ(arrivals[2], 63u);
}

TEST(Ring, DistinctLinksDoNotInterfere)
{
    EventQueue queue;
    RingParams params;
    params.linkLatency = 20;
    params.serialization = 10;
    Ring ring(queue, 4, params, "r");
    std::vector<std::pair<NodeId, Cycle>> arrivals;
    for (NodeId n = 0; n < 4; ++n) {
        ring.setHandler(n, [&, n](const SnoopMessage &) {
            arrivals.emplace_back(n, queue.now());
        });
    }
    ring.send(0, makeMsg(1, 0, 0));
    ring.send(2, makeMsg(2, 0, 2));
    queue.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0].second, 20u);
    EXPECT_EQ(arrivals[1].second, 20u);
}

/** A message with every field away from its default. */
SnoopMessage
fullMsg()
{
    static int record_stand_in; // only the pointer value travels
    SnoopMessage msg;
    msg.txn = 77;
    msg.line = 0x1234c0;
    msg.lineHint = reinterpret_cast<LineRecord *>(&record_stand_in);
    msg.requester = 1;
    msg.supplier = 5;
    msg.acksCollected = 3;
    msg.visits = 4;
    msg.type = MsgType::SnoopReply;
    msg.kind = SnoopKind::Write;
    msg.found = true;
    msg.squashed = true;
    return msg;
}

void
expectEveryField(const SnoopMessage &got, const SnoopMessage &want)
{
    EXPECT_EQ(got.txn, want.txn);
    EXPECT_EQ(got.line, want.line);
    EXPECT_EQ(got.lineHint, want.lineHint);
    EXPECT_EQ(got.requester, want.requester);
    EXPECT_EQ(got.supplier, want.supplier);
    EXPECT_EQ(got.acksCollected, want.acksCollected);
    EXPECT_EQ(got.visits, want.visits);
    EXPECT_EQ(got.type, want.type);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.found, want.found);
    EXPECT_EQ(got.squashed, want.squashed);
}

/** Send fullMsg() from node 0 of a 2-node ring, with every link
 *  traversal faulted per @p faults, and collect (message, cycle) of
 *  each arrival at node 1. */
std::vector<std::pair<SnoopMessage, Cycle>>
sendFull(const FaultConfig &faults)
{
    EventQueue queue;
    Ring ring(queue, 2, RingParams{}, "r");
    FaultInjector injector(faults);
    ring.setFaultInjector(&injector);
    std::vector<std::pair<SnoopMessage, Cycle>> arrivals;
    ring.setHandler(1, [&](const SnoopMessage &m) {
        arrivals.emplace_back(m, queue.now());
    });
    ring.send(0, fullMsg());
    queue.run();
    return arrivals;
}

TEST(Ring, MessageContentIsPreserved)
{
    const Cycle latency = RingParams{}.linkLatency;
    {
        SCOPED_TRACE("plain send");
        const auto arrivals = sendFull(FaultConfig{});
        ASSERT_EQ(arrivals.size(), 1u);
        EXPECT_EQ(arrivals[0].second, latency);
        expectEveryField(arrivals[0].first, fullMsg());
    }
    {
        SCOPED_TRACE("duplicated send");
        FaultConfig dup;
        dup.dupRate = 1.0;
        const auto arrivals = sendFull(dup);
        ASSERT_EQ(arrivals.size(), 2u);
        EXPECT_EQ(arrivals[0].second, latency);
        EXPECT_EQ(arrivals[1].second,
                  latency + RingParams{}.serialization);
        expectEveryField(arrivals[0].first, fullMsg());
        expectEveryField(arrivals[1].first, fullMsg());
    }
    {
        SCOPED_TRACE("delayed send");
        FaultConfig delay;
        delay.delayRate = 1.0;
        const auto arrivals = sendFull(delay);
        ASSERT_EQ(arrivals.size(), 1u);
        EXPECT_EQ(arrivals[0].second, latency + delay.delayCycles);
        expectEveryField(arrivals[0].first, fullMsg());
    }
}

TEST(RingNetwork, AddressesInterleaveAcrossRings)
{
    EventQueue queue;
    RingNetwork net(queue, 4, 2, RingParams{});
    EXPECT_EQ(net.numRings(), 2u);
    EXPECT_EQ(net.ringIndex(0 * kLineSizeBytes),
              0u);
    EXPECT_EQ(net.ringIndex(1 * kLineSizeBytes), 1u);
    EXPECT_EQ(net.ringIndex(2 * kLineSizeBytes), 0u);
}

TEST(RingNetwork, SendRoutesByLineAddress)
{
    EventQueue queue;
    RingNetwork net(queue, 4, 2, RingParams{});
    int ring0_arrivals = 0, ring1_arrivals = 0;
    net.setHandler(1, [&](const SnoopMessage &msg) {
        if (net.ringIndex(msg.line) == 0)
            ++ring0_arrivals;
        else
            ++ring1_arrivals;
    });
    for (NodeId n = 0; n < 4; ++n) {
        if (n != 1)
            net.setHandler(n, [](const SnoopMessage &) {});
    }
    net.send(0, makeMsg(1, 0 * kLineSizeBytes, 0)); // ring 0
    net.send(0, makeMsg(2, 1 * kLineSizeBytes, 0)); // ring 1
    net.send(0, makeMsg(3, 3 * kLineSizeBytes, 0)); // ring 1
    queue.run();
    EXPECT_EQ(ring0_arrivals, 1);
    EXPECT_EQ(ring1_arrivals, 2);
    EXPECT_EQ(net.linkTraversals(), 3u);
    EXPECT_EQ(net.ring(0).linkTraversals(), 1u);
    EXPECT_EQ(net.ring(1).linkTraversals(), 2u);
}

TEST(RingNetwork, ParallelRingsAvoidSerialization)
{
    EventQueue queue;
    RingParams params;
    params.linkLatency = 30;
    params.serialization = 15;
    RingNetwork net(queue, 2, 2, params);
    std::vector<Cycle> arrivals;
    net.setHandler(1, [&](const SnoopMessage &) {
        arrivals.push_back(queue.now());
    });
    net.setHandler(0, [](const SnoopMessage &) {});
    // Same source link cycle, different rings: both arrive together.
    net.send(0, makeMsg(1, 0 * kLineSizeBytes, 0));
    net.send(0, makeMsg(2, 1 * kLineSizeBytes, 0));
    queue.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], 30u);
    EXPECT_EQ(arrivals[1], 30u);
}

TEST(Ring, BackToBackSendsSpacedByExactlySerialization)
{
    EventQueue queue;
    RingParams params;
    params.linkLatency = 39;
    params.serialization = 8; // the paper-default link occupancy
    Ring ring(queue, 4, params, "r");
    std::vector<Cycle> arrivals;
    ring.setHandler(1, [&](const SnoopMessage &) {
        arrivals.push_back(queue.now());
    });
    for (TransactionId t = 1; t <= 4; ++t)
        ring.send(0, makeMsg(t, 0, 0));
    queue.run();
    ASSERT_EQ(arrivals.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(arrivals[i], 39u + i * 8u);
    // Consecutive arrivals differ by exactly the serialization time,
    // never more, never less.
    for (std::size_t i = 1; i < 4; ++i)
        EXPECT_EQ(arrivals[i] - arrivals[i - 1], 8u);
}

} // namespace
} // namespace flexsnoop
