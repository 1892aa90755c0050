/**
 * @file
 * Unit tests for the LSF output scheduler: Algorithms 1-3, the
 * skipped() counters, condition (1), frame recycling, credit
 * accounting, and local status reset.
 *
 * Tests use a small configuration (quantum 1 flit, frame 4 flits,
 * window 4 frames, buffer 4 flits) so every slot can be reasoned about
 * by hand; this mirrors the example of Section 4.2 / Fig. 8.
 */

#include <gtest/gtest.h>

#include "core/output_scheduler.hh"

namespace noc
{
namespace
{

LoftParams
smallParams()
{
    LoftParams p;
    p.quantumFlits = 1;
    p.frameSizeFlits = 4;  // F = 4 slots
    p.windowFrames = 4;    // WT = 16 slots
    p.centralBufferFlits = 4;
    p.specBufferFlits = 0;
    p.maxFlows = 8;
    p.localStatusReset = true;
    return p;
}

TEST(OutputScheduler, RegistersFlowsUpToFrameCapacity)
{
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 2);
    s.registerFlow(1, 2);
    EXPECT_EQ(s.reservedSlotsTotal(), 4u);
    EXPECT_TRUE(s.hasFlow(0));
    EXPECT_FALSE(s.hasFlow(7));
}

TEST(OutputScheduler, OverbookingIsFatal)
{
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 3);
    EXPECT_EXIT(s.registerFlow(1, 2), ::testing::ExitedWithCode(1),
                "sum R > F");
}

TEST(OutputScheduler, DuplicateFlowIsFatal)
{
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 1);
    EXPECT_EXIT(s.registerFlow(0, 1), ::testing::ExitedWithCode(1),
                "twice");
}

TEST(OutputScheduler, SchedulesSequentialSlots)
{
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 2);
    Slot a, b;
    EXPECT_TRUE(s.trySchedule(0, 0, 0, 1, a));
    EXPECT_TRUE(s.trySchedule(0, 0, 1, 1, b));
    EXPECT_EQ(a, 1u); // CP+1 within the head frame
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(s.grants(), 2u);
}

TEST(OutputScheduler, HonoursEarliestConstraint)
{
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 2);
    Slot a;
    EXPECT_TRUE(s.trySchedule(0, 0, 0, 3, a));
    EXPECT_GE(a, 3u);
}

TEST(OutputScheduler, AdvancesInjectionFrameWhenFrameFull)
{
    // R = 2 in a 4-slot frame; after two grants in the head frame (and
    // with their virtual credits returned, so condition (1) allows it)
    // the flow moves on to the next frame per Algorithm 1.
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 2);
    Slot a, b, c;
    ASSERT_TRUE(s.trySchedule(0, 0, 0, 1, a));
    ASSERT_TRUE(s.trySchedule(0, 0, 1, 1, b));
    EXPECT_EQ(s.flowInjectFrame(0), 0u);
    EXPECT_EQ(s.flowRemaining(0), 0u);
    s.onCreditReturn(a + 1);
    s.onCreditReturn(b + 1);
    ASSERT_TRUE(s.trySchedule(0, 0, 2, 1, c));
    EXPECT_EQ(s.flowInjectFrame(0), 1u);
    EXPECT_GE(c, 4u); // next frame starts at slot 4
}

TEST(OutputScheduler, ConditionOneBlocksFrameAdvanceWithoutReturns)
{
    // Without credit returns, condition (1) (appendix equation (4))
    // forbids booking beyond the head frame: the buffer headroom
    // cannot cover a full frame of injections.
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 2);
    Slot x;
    ASSERT_TRUE(s.trySchedule(0, 0, 0, 1, x));
    ASSERT_TRUE(s.trySchedule(0, 0, 1, 1, x));
    EXPECT_FALSE(s.trySchedule(0, 0, 2, 1, x));
    // The yielded reservations are recorded for the skipped frames.
    EXPECT_GT(s.skippedAt(1), 0u);
}

TEST(OutputScheduler, ThrottlesWhenWindowExhausted)
{
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 1);
    Slot x;
    // R=1 per frame, 4 frames -> 4 grants (credits returned promptly),
    // then throttle: every frame's reservation is used up.
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(s.trySchedule(0, 0, i, 1, x)) << "grant " << i;
        s.onCreditReturn(x + 1);
    }
    EXPECT_FALSE(s.trySchedule(0, 0, 4, 1, x));
    EXPECT_EQ(s.throttles(), 1u);
}

TEST(OutputScheduler, HeadFrameAdvanceRestoresReservation)
{
    LoftParams p = smallParams();
    OutputScheduler s(p, "t");
    s.registerFlow(0, 1);
    Slot x;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(s.trySchedule(0, 0, i, 1, x));
        s.onCreditReturn(x + 1);
    }
    ASSERT_FALSE(s.trySchedule(0, 0, 4, 1, x));
    // Advance wall clock past one frame (4 slots x 1 flit = 4 cycles):
    // the window shifts, recycling one frame (Algorithm 3).
    EXPECT_TRUE(s.trySchedule(0, 4, 4, 5, x));
}

TEST(OutputScheduler, SkippedAccumulatesYieldedReservations)
{
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 2);
    Slot x;
    // Force the flow past the head frame by an earliest constraint
    // beyond the head frame's end: its 2 unused slots are skipped.
    ASSERT_TRUE(s.trySchedule(0, 0, 0, 6, x));
    EXPECT_EQ(s.skippedAt(0), 2u);
    EXPECT_EQ(s.flowInjectFrame(0), 1u);
}

TEST(OutputScheduler, BusySlotNotDoubleBooked)
{
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 2);
    s.registerFlow(1, 2);
    Slot a, b;
    ASSERT_TRUE(s.trySchedule(0, 0, 0, 1, a));
    ASSERT_TRUE(s.trySchedule(1, 0, 0, 1, b));
    EXPECT_NE(a, b);
    const auto ba = s.bookingAt(a);
    ASSERT_TRUE(ba.has_value());
    EXPECT_EQ(ba->flow, 0u);
    EXPECT_EQ(s.bookingAt(b)->flow, 1u);
}

TEST(OutputScheduler, CreditsDecreaseCumulativelyFromBookedSlot)
{
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 4);
    Slot a;
    ASSERT_TRUE(s.trySchedule(0, 0, 0, 2, a));
    EXPECT_EQ(a, 2u);
    EXPECT_EQ(s.virtualCreditAt(1), 4); // before the booking: untouched
    EXPECT_EQ(s.virtualCreditAt(2), 3);
    EXPECT_EQ(s.virtualCreditAt(9), 3); // cumulative to window end
}

TEST(OutputScheduler, CreditReturnRestoresFromDepartureSlot)
{
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 4);
    Slot a;
    ASSERT_TRUE(s.trySchedule(0, 0, 0, 1, a));
    s.onCreditReturn(5);
    EXPECT_EQ(s.virtualCreditAt(3), 3); // still consumed before 5
    EXPECT_EQ(s.virtualCreditAt(5), 4);
    EXPECT_EQ(s.virtualCreditAt(10), 4);
    EXPECT_EQ(s.outstandingCredits(), 0u);
}

TEST(OutputScheduler, CreditsNeverExceedBufferSize)
{
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 4);
    Slot a;
    ASSERT_TRUE(s.trySchedule(0, 0, 0, 1, a));
    s.onCreditReturn(1);
    s.onCreditReturn(1); // stale (post-reset style) return
    EXPECT_EQ(s.virtualCreditAt(8), 4);
}

TEST(OutputScheduler, BufferExhaustionBlocksScheduling)
{
    // The head frame has slots 1..3 available (CP+1 onward); with no
    // credits returned, condition (1) blocks later frames, so exactly
    // three quanta can be booked before the flow throttles.
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 4);
    Slot x;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(s.trySchedule(0, 0, i, 1, x));
    EXPECT_FALSE(s.trySchedule(0, 0, 3, 1, x));
    // Returning the consumed credits re-opens scheduling in a later
    // frame (skipped() has recorded the yielded head-frame slot).
    for (Slot t = 2; t <= 4; ++t)
        s.onCreditReturn(t);
    EXPECT_TRUE(s.trySchedule(0, 0, 3, 1, x));
    EXPECT_GE(x, 4u);
}

TEST(OutputScheduler, ClearBookingFreesSlot)
{
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 2);
    Slot a;
    ASSERT_TRUE(s.trySchedule(0, 0, 0, 1, a));
    EXPECT_TRUE(s.bookingAt(a).has_value());
    s.clearBooking(a);
    EXPECT_FALSE(s.bookingAt(a).has_value());
    EXPECT_FALSE(s.earliestBookedSlot().has_value());
}

TEST(OutputScheduler, LocalResetRestoresFreshWindow)
{
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 1);
    Slot x;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(s.trySchedule(0, 0, i, 1, x));
        s.clearBooking(x);
        s.onCreditReturn(x + 1);
    }
    ASSERT_FALSE(s.trySchedule(0, 0, 4, 1, x));
    ASSERT_TRUE(s.canLocalReset());
    s.localReset(8);
    EXPECT_EQ(s.headFrame(), 0u);
    EXPECT_EQ(s.resets(), 1u);
    // Fresh reservations and credits after the reset.
    EXPECT_TRUE(s.trySchedule(0, 8, 4, 9, x));
}

TEST(OutputScheduler, CannotResetWithBookings)
{
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 1);
    Slot x;
    ASSERT_TRUE(s.trySchedule(0, 0, 0, 1, x));
    EXPECT_FALSE(s.canLocalReset());
}

TEST(OutputScheduler, UnregisteredFlowPanics)
{
    OutputScheduler s(smallParams(), "t");
    Slot x;
    EXPECT_DEATH((void)s.trySchedule(9, 0, 0, 1, x), "unregistered");
}

TEST(OutputScheduler, UnregisteredFlowQueriesPanic)
{
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 1);
    EXPECT_DEATH((void)s.flowRemaining(9), "t: .*unregistered flow 9");
    EXPECT_DEATH((void)s.flowInjectFrame(9), "t: .*unregistered flow 9");
}

TEST(OutputScheduler, FrameRecyclingClearsStaleState)
{
    OutputScheduler s(smallParams(), "t");
    s.registerFlow(0, 2);
    Slot a;
    ASSERT_TRUE(s.trySchedule(0, 0, 0, 1, a));
    // Run wall-clock far enough that the booked frame expires
    // (WT = 16 slots => 16 cycles with 1-flit quanta).
    s.advanceTo(20);
    EXPECT_FALSE(s.bookingAt(a).has_value());
    EXPECT_GT(s.headFrame(), 0u);
}

} // namespace
} // namespace noc
