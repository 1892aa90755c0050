/**
 * @file
 * Unit tests for the pipelined channel.
 */

#include <gtest/gtest.h>

#include <vector>

#include "net/channel.hh"

namespace noc
{
namespace
{

TEST(Channel, NotReadyBeforeLatency)
{
    Channel<int> ch(3);
    ch.send(10, 42);
    EXPECT_FALSE(ch.ready(10));
    EXPECT_FALSE(ch.ready(12));
    EXPECT_TRUE(ch.ready(13));
    EXPECT_EQ(ch.receive(13), 42);
    EXPECT_TRUE(ch.empty());
}

TEST(Channel, FifoOrder)
{
    Channel<int> ch(1);
    ch.send(0, 1);
    ch.send(1, 2);
    ch.send(2, 3);
    EXPECT_EQ(ch.receive(5), 1);
    EXPECT_EQ(ch.receive(5), 2);
    EXPECT_EQ(ch.receive(5), 3);
}

TEST(Channel, TryReceiveReturnsNulloptWhenEmpty)
{
    Channel<int> ch(1);
    EXPECT_FALSE(ch.tryReceive(100).has_value());
    ch.send(100, 7);
    EXPECT_FALSE(ch.tryReceive(100).has_value());
    auto v = ch.tryReceive(101);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7);
}

TEST(Channel, PeekDoesNotConsume)
{
    Channel<int> ch(1);
    ch.send(0, 5);
    EXPECT_EQ(ch.peek(1), 5);
    EXPECT_EQ(ch.peek(1), 5);
    EXPECT_EQ(ch.receive(1), 5);
}

TEST(Channel, InFlightCount)
{
    Channel<int> ch(4);
    EXPECT_EQ(ch.inFlightCount(), 0u);
    ch.send(0, 1);
    ch.send(0, 2);
    EXPECT_EQ(ch.inFlightCount(), 2u);
    (void)ch.receive(4);
    EXPECT_EQ(ch.inFlightCount(), 1u);
}

TEST(Channel, MinimumLatencyIsOne)
{
    // A same-cycle channel would break the tick-order independence
    // guarantee; the constructor must reject it.
    EXPECT_DEATH(Channel<int>(0), "latency");
}

TEST(Channel, ReceiveWithoutReadyPanics)
{
    Channel<int> ch(2);
    ch.send(0, 9);
    EXPECT_DEATH((void)ch.receive(1), "nothing deliverable");
}

TEST(Channel, ConcurrentDeliverAtIsBufferedThenFlushedInDeliveryOrder)
{
    // A fault hook's late re-delivery can be overtaken by later sends.
    // In concurrent mode it must stay invisible like any buffered send
    // until the barrier flush, which slots every value in by delivery
    // time (equal times keep enqueue order).
    Channel<int> ch(2);
    ch.deliverAt(20, 100); // in flight from an earlier cycle
    std::vector<PendingPort *> dirty;
    ch.setConcurrent(true);
    par::ctx().dirty = &dirty;
    ch.send(10, 1);          // due 12
    ch.deliverAt(30, 2);     // late re-delivery
    ch.deliverAt(12, 3);     // on-time copy, after the send
    ch.send(10, 4);          // due 12, overtakes the re-delivery
    par::ctx().dirty = nullptr;
    EXPECT_EQ(ch.inFlightCount(), 1u);
    EXPECT_FALSE(ch.ready(12));
    ASSERT_EQ(dirty.size(), 1u) << "one enlistment per cycle";
    EXPECT_EQ(dirty.front(), &ch);

    ch.flushPending();
    ch.setConcurrent(false);
    std::vector<int> got;
    for (Cycle t = 12; t <= 30; ++t)
        while (auto v = ch.tryReceive(t))
            got.push_back(*v);
    EXPECT_EQ(got, (std::vector<int>{1, 3, 4, 100, 2}));
}

} // namespace
} // namespace noc
