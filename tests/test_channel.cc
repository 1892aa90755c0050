/**
 * @file
 * Unit tests for the pipelined channel and the mail bit it keeps in
 * its reader's mail word.
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

/// ---------------------------------------------------------------
/// Mail bits: a channel's bit in its reader's mail word is set exactly
/// while a value is in flight.
/// ---------------------------------------------------------------

/** A reader that only exposes its mail word. */
class Inbox final : public Clocked
{
  public:
    void tick(Cycle) override {}
};

TEST(ChannelMail, DirectSendPostsAndTheLastReceiveClears)
{
    Inbox r;
    Channel<int> ch(2);
    ch.setReader(&r, 3);
    EXPECT_EQ(r.mail(), 0u);
    ch.send(0, 1);
    ch.send(1, 2);
    EXPECT_EQ(r.mail(), 1u << 3);
    EXPECT_EQ(ch.receive(2), 1);
    EXPECT_EQ(r.mail(), 1u << 3) << "one value still in flight";
    EXPECT_EQ(ch.receive(3), 2);
    EXPECT_EQ(r.mail(), 0u);
}

TEST(ChannelMail, BindingAWireInFlightPostsIt)
{
    Inbox r;
    Channel<int> ch(1);
    ch.send(0, 1);
    ch.setReader(&r, 4);
    EXPECT_EQ(r.mail(), 1u << 4);
}

TEST(ChannelMail, ConcurrentSendPostsOnlyAtTheFlush)
{
    Inbox r;
    Channel<int> ch(1);
    ch.setReader(&r, 0);
    std::vector<PendingPort *> dirty;
    ch.setConcurrent(true);
    par::ctx().dirty = &dirty;
    ch.send(5, 7);
    par::ctx().dirty = nullptr;
    EXPECT_EQ(r.mail(), 0u) << "a buffered send is not in flight yet";
    ch.flushPending();
    EXPECT_EQ(r.mail(), 1u);
    ch.setConcurrent(false);
    EXPECT_EQ(ch.receive(6), 7);
    EXPECT_EQ(r.mail(), 0u);
}

TEST(ChannelMail, LateDeliveryLandingMidQueueKeepsTheBit)
{
    // A fault hook's late re-delivery can land between values already
    // in flight; the bit stays set until the last of them is taken.
    Inbox r;
    Channel<int> ch(1);
    ch.setReader(&r, 1);
    ch.send(10, 1);       // due 11
    ch.deliverAt(50, 3);  // late, at the back
    ch.deliverAt(30, 2);  // late, lands mid-queue
    EXPECT_EQ(ch.receive(11), 1);
    EXPECT_EQ(r.mail(), 2u);
    EXPECT_EQ(ch.receive(30), 2);
    EXPECT_EQ(r.mail(), 2u);
    EXPECT_FALSE(ch.ready(49));
    EXPECT_EQ(r.mail(), 2u);
    EXPECT_EQ(ch.receive(50), 3);
    EXPECT_EQ(r.mail(), 0u);
}

/** A fault hook that holds every delivery back until a fixed cycle. */
class StuckLink final : public ChannelFaultHook<int>
{
  public:
    explicit StuckLink(Cycle until) : until_(until) {}

    void
    processSend(Channel<int> &ch, Cycle now, int value) override
    {
        ch.deliverAt(now + ch.latency(), value);
    }

    bool
    stalled(Cycle now) override
    {
        ++queries;
        return now < until_;
    }

    std::uint32_t queries = 0;

  private:
    Cycle until_;
};

TEST(ChannelMail, StalledLinkKeepsTheBitWhileNotReady)
{
    Inbox r;
    Channel<int> ch(1);
    StuckLink stuck(8);
    ch.setFaultHook(&stuck);
    ch.setReader(&r, 0);
    EXPECT_FALSE(ch.ready(0));
    EXPECT_EQ(stuck.queries, 0u) << "an empty wire holds nothing back";
    ch.send(0, 9);
    for (Cycle t = 1; t < 8; ++t) {
        EXPECT_FALSE(ch.ready(t));
        EXPECT_EQ(r.mail(), 1u);
    }
    EXPECT_EQ(ch.receive(8), 9);
    EXPECT_EQ(r.mail(), 0u);
}

TEST(ChannelMail, TwoChannelsOnOneReaderKeepIndependentBits)
{
    Inbox r;
    Channel<int> a(1);
    Channel<int> b(3);
    a.setReader(&r, 0);
    b.setReader(&r, 31);
    a.send(0, 1);
    b.send(0, 2);
    EXPECT_EQ(r.mail(), 1u | 1u << 31);
    EXPECT_EQ(a.receive(1), 1);
    EXPECT_EQ(r.mail(), 1u << 31);
    a.send(1, 3);
    EXPECT_EQ(b.receive(3), 2);
    EXPECT_EQ(r.mail(), 1u);
    EXPECT_EQ(a.receive(2), 3);
    EXPECT_EQ(r.mail(), 0u);
}

TEST(ChannelMailDeathTest, ReaderPortBeyondTheMailWordPanics)
{
    Inbox r;
    Channel<int> ch(1);
    EXPECT_DEATH(ch.setReader(&r, 32), "does not fit the 32-bit mail");
}

} // namespace
} // namespace noc
