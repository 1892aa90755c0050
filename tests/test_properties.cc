/**
 * @file
 * Property-based tests: randomized scheduling workloads swept over
 * configurations with TEST_P, checking the invariants the paper proves
 * or relies on:
 *
 *  - Theorem I: with condition (1) and an F-flit buffer, virtual
 *    credits never go negative under any request/credit interleaving.
 *  - Reservation conservation: a flow never holds more than WF * R
 *    unreturned bookings.
 *  - End-to-end conservation: every injected flit is ejected exactly
 *    once, for random packet mixes, quantum sizes and buffer sizes.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/loft_network.hh"
#include "core/output_scheduler.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"

namespace noc
{
namespace
{

/// ---------------------------------------------------------------
/// Theorem I under random interleavings.
/// ---------------------------------------------------------------

struct SchedCase
{
    std::uint32_t frameFlits;
    std::uint32_t windowFrames;
    std::uint32_t numFlows;
    double creditReturnProb;
    std::uint64_t seed;
};

// Without a PrintTo gtest names each case by its raw bytes, and the
// uninitialised padding in them changes the ctest names from run to run.
void
PrintTo(const SchedCase &sc, std::ostream *os)
{
    *os << "F" << sc.frameFlits << " WF" << sc.windowFrames << " flows "
        << sc.numFlows << " return " << sc.creditReturnProb << " seed "
        << sc.seed;
}

class TheoremOne : public ::testing::TestWithParam<SchedCase>
{
};

TEST_P(TheoremOne, VirtualCreditsNeverNegative)
{
    const SchedCase sc = GetParam();
    LoftParams p;
    p.quantumFlits = 1;
    p.frameSizeFlits = sc.frameFlits;
    p.windowFrames = sc.windowFrames;
    p.centralBufferFlits = sc.frameFlits; // Theorem I precondition
    p.specBufferFlits = 0;
    p.maxFlows = sc.numFlows;
    OutputScheduler s(p, "prop");

    Rng rng(sc.seed);
    const std::uint32_t r = sc.frameFlits / sc.numFlows;
    for (FlowId f = 0; f < sc.numFlows; ++f)
        s.registerFlow(f, std::max(1u, r));

    std::vector<Slot> unreturned;
    std::vector<std::uint64_t> quantum(sc.numFlows, 0);
    for (Cycle t = 0; t < 4000; ++t) {
        s.advanceTo(t);
        // Random scheduling request.
        const FlowId f =
            static_cast<FlowId>(rng.randRange(sc.numFlows));
        Slot granted;
        if (s.trySchedule(f, t, quantum[f], t + 1, granted)) {
            ++quantum[f];
            unreturned.push_back(granted);
        }
        // Random (possibly delayed, out of order) credit returns.
        while (!unreturned.empty() && rng.chance(sc.creditReturnProb)) {
            const std::size_t i = rng.randRange(unreturned.size());
            s.onCreditReturn(unreturned[i] +
                             1 + rng.randRange(4));
            unreturned[i] = unreturned.back();
            unreturned.pop_back();
        }
        // The theorem: all credits in the window are non-negative.
        if (t % 64 == 0) {
            const Slot base = t; // quantum == 1 flit -> slot == cycle
            for (Slot off = 0; off < sc.windowFrames * sc.frameFlits / 2;
                 ++off) {
                ASSERT_GE(s.virtualCreditAt(base + off), 0)
                    << "cycle " << t << " slot " << base + off;
            }
        }
    }
    EXPECT_EQ(s.anomalyViolations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TheoremOne,
    ::testing::Values(
        SchedCase{16, 2, 4, 0.9, 1},
        SchedCase{16, 2, 4, 0.3, 2},
        SchedCase{16, 4, 4, 0.1, 3},
        SchedCase{32, 2, 8, 0.5, 4},
        SchedCase{32, 4, 8, 0.05, 5},
        SchedCase{64, 2, 16, 0.5, 6},
        SchedCase{64, 3, 16, 0.2, 7},
        SchedCase{8, 2, 2, 0.02, 8}));

/// ---------------------------------------------------------------
/// Outstanding bookings bounded by the frame window.
/// ---------------------------------------------------------------

class WindowBound : public ::testing::TestWithParam<SchedCase>
{
};

TEST_P(WindowBound, FlowNeverExceedsWindowReservation)
{
    const SchedCase sc = GetParam();
    LoftParams p;
    p.quantumFlits = 1;
    p.frameSizeFlits = sc.frameFlits;
    p.windowFrames = sc.windowFrames;
    p.centralBufferFlits = sc.frameFlits;
    p.specBufferFlits = 0;
    p.maxFlows = 4;
    p.localStatusReset = false;
    OutputScheduler s(p, "wb");
    const std::uint32_t r = std::max(1u, sc.frameFlits / 4);
    s.registerFlow(0, r);

    // Never return credits: the flow must stop after booking at most
    // WF * R slots, and regain exactly R per elapsed frame.
    std::uint64_t q = 0;
    std::uint64_t granted_total = 0;
    Slot x;
    for (Cycle t = 0; t < 6 * sc.frameFlits; ++t) {
        if (s.trySchedule(0, t, q, t + 1, x)) {
            ++q;
            ++granted_total;
        }
        const std::uint64_t frames_elapsed = t / sc.frameFlits;
        ASSERT_LE(granted_total,
                  (sc.windowFrames + frames_elapsed) * r)
            << "cycle " << t;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WindowBound,
    ::testing::Values(SchedCase{16, 2, 0, 0, 0},
                      SchedCase{16, 4, 0, 0, 0},
                      SchedCase{32, 2, 0, 0, 0},
                      SchedCase{64, 3, 0, 0, 0}));

/// ---------------------------------------------------------------
/// End-to-end flit conservation across LOFT configurations.
/// ---------------------------------------------------------------

struct NetCase
{
    std::uint32_t quantumFlits;
    std::uint32_t frameFlits;
    std::uint32_t specBuffer;
    std::uint32_t packetSize;
    bool speculative;
    bool reset;
    std::uint64_t seed;
};

void
PrintTo(const NetCase &nc, std::ostream *os)
{
    *os << "q" << nc.quantumFlits << " F" << nc.frameFlits << " buf"
        << nc.specBuffer << " pkt" << nc.packetSize
        << (nc.speculative ? " spec" : " nospec")
        << (nc.reset ? " reset" : " noreset") << " seed " << nc.seed;
}

class Conservation : public ::testing::TestWithParam<NetCase>
{
};

TEST_P(Conservation, EveryFlitDeliveredExactlyOnce)
{
    const NetCase nc = GetParam();
    Mesh2D mesh(4, 4);
    LoftParams p;
    p.quantumFlits = nc.quantumFlits;
    p.frameSizeFlits = nc.frameFlits;
    p.windowFrames = 2;
    p.centralBufferFlits = nc.frameFlits;
    p.specBufferFlits = nc.specBuffer;
    p.maxFlows = 16;
    p.speculativeSwitching = nc.speculative;
    p.localStatusReset = nc.reset;
    p.sourceQueueFlits = 0; // unbounded NI queue

    LoftNetwork net(mesh, p);
    std::vector<FlowSpec> flows;
    Rng rng(nc.seed);
    for (FlowId f = 0; f < 8; ++f) {
        FlowSpec fs;
        fs.id = f;
        fs.src = f;
        fs.dst = 15 - f;
        fs.bwShare = 1.0 / 16;
        flows.push_back(fs);
    }
    net.registerFlows(flows);
    Simulator sim;
    net.attach(sim);
    net.metrics().startMeasurement(0);

    std::uint64_t offered_flits = 0;
    PacketId id = 1;
    for (int i = 0; i < 40; ++i) {
        const auto &f = flows[rng.randRange(flows.size())];
        Packet pkt;
        pkt.id = id++;
        pkt.flow = f.id;
        pkt.src = f.src;
        pkt.dst = f.dst;
        pkt.sizeFlits = 1 + rng.randRange(nc.packetSize);
        ASSERT_TRUE(net.inject(pkt));
        offered_flits += pkt.sizeFlits;
    }
    ASSERT_TRUE(sim.runUntil(
        [&] { return net.metrics().totalFlits() == offered_flits; },
        60000))
        << "delivered " << net.metrics().totalFlits() << " of "
        << offered_flits;
    sim.run(100);
    EXPECT_EQ(net.metrics().totalFlits(), offered_flits);
    EXPECT_EQ(net.flitsInFlight(), 0u);
    EXPECT_EQ(net.totalAnomalyViolations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Conservation,
    ::testing::Values(
        NetCase{2, 64, 8, 4, true, true, 11},
        NetCase{2, 64, 8, 4, false, true, 12},
        NetCase{2, 64, 0, 4, true, true, 13},
        NetCase{2, 64, 8, 4, true, false, 14},
        NetCase{2, 64, 8, 4, false, false, 15},
        NetCase{1, 32, 4, 5, true, true, 16},
        NetCase{1, 32, 4, 3, true, false, 17},
        NetCase{4, 64, 8, 7, true, true, 18},
        NetCase{2, 128, 16, 6, true, true, 19}));

/// ---------------------------------------------------------------
/// Condition (1) checked from the outside, through the observer
/// hooks: every grant into a future frame i must satisfy
/// F - skipped(i) <= virtual credit just before the frame starts,
/// and no flow may exceed its per-frame reservation.
/// ---------------------------------------------------------------

class ConditionOneObserver : public NetObserver
{
  public:
    std::uint64_t grants = 0;
    std::uint64_t futureGrants = 0;
    std::uint64_t conditionViolations = 0;
    std::uint64_t budgetViolations = 0;
    std::uint64_t doubleBookings = 0;

    void
    onSchedFlowRegistered(const OutputScheduler &, FlowId flow,
                          std::uint32_t quanta) override
    {
        reservation_[flow] = quanta;
    }

    void
    onSchedGrant(const OutputScheduler &s, FlowId flow, std::uint64_t,
                 Slot abs_slot, std::uint64_t frame, Cycle) override
    {
        ++grants;
        if (!granted_.insert(abs_slot).second)
            ++doubleBookings;
        if (++frameGrants_[{frame, flow}] > reservation_.at(flow))
            ++budgetViolations;
        if (frame == s.headFrame())
            return;
        ++futureGrants;
        const std::uint32_t fs = s.params().frameSlots();
        const Slot frameStart =
            s.windowStartAbsSlot() + (frame - s.headFrame()) * fs;
        const std::int32_t prior = s.virtualCreditAt(frameStart - 1);
        const std::int32_t lhs = static_cast<std::int32_t>(fs) -
            static_cast<std::int32_t>(s.skippedAt(frame));
        if (lhs > prior)
            ++conditionViolations;
    }

  private:
    std::map<FlowId, std::uint32_t> reservation_;
    std::map<std::pair<std::uint64_t, FlowId>, std::uint32_t>
        frameGrants_;
    std::set<Slot> granted_;
};

class ConditionOne : public ::testing::TestWithParam<SchedCase>
{
};

TEST_P(ConditionOne, RandomReservationMixNeverBreaksConditionOne)
{
    const SchedCase sc = GetParam();
    LoftParams p;
    p.quantumFlits = 1;
    p.frameSizeFlits = sc.frameFlits;
    p.windowFrames = sc.windowFrames;
    p.centralBufferFlits = sc.frameFlits;
    p.specBufferFlits = 0;
    p.maxFlows = sc.numFlows;
    OutputScheduler s(p, "cond1");
    ConditionOneObserver obs;
    s.setObserver(&obs);

    // Random reservation mix with sum(R) <= F: each flow draws from
    // what is left while keeping one slot for every later flow.
    Rng rng(sc.seed);
    std::uint32_t left = sc.frameFlits;
    for (FlowId f = 0; f < sc.numFlows; ++f) {
        const std::uint32_t remaining = sc.numFlows - 1 - f;
        const std::uint32_t maxR = left - remaining;
        const std::uint32_t r =
            1 + static_cast<std::uint32_t>(rng.randRange(maxR));
        left -= r;
        s.registerFlow(f, r);
    }

    std::vector<Slot> unreturned;
    std::vector<std::uint64_t> quantum(sc.numFlows, 0);
    for (Cycle t = 0; t < 4000; ++t) {
        s.advanceTo(t);
        const FlowId f =
            static_cast<FlowId>(rng.randRange(sc.numFlows));
        Slot granted;
        if (s.trySchedule(f, t, quantum[f], t + 1, granted)) {
            ++quantum[f];
            unreturned.push_back(granted);
        }
        while (!unreturned.empty() && rng.chance(sc.creditReturnProb)) {
            const std::size_t i = rng.randRange(unreturned.size());
            s.onCreditReturn(unreturned[i] + 1 + rng.randRange(4));
            unreturned[i] = unreturned.back();
            unreturned.pop_back();
        }
    }
    EXPECT_GT(obs.grants, 0u);
    EXPECT_EQ(obs.conditionViolations, 0u);
    EXPECT_EQ(obs.budgetViolations, 0u);
    EXPECT_EQ(obs.doubleBookings, 0u);
    EXPECT_EQ(s.anomalyViolations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConditionOne,
    ::testing::Values(
        SchedCase{16, 2, 4, 0.9, 21},
        SchedCase{16, 2, 4, 0.3, 22},
        SchedCase{16, 4, 4, 0.1, 23},
        SchedCase{32, 2, 8, 0.5, 24},
        SchedCase{32, 4, 8, 0.05, 25},
        SchedCase{64, 2, 16, 0.5, 26},
        SchedCase{64, 3, 16, 0.2, 27},
        SchedCase{8, 2, 2, 0.02, 28}));

TEST(ConditionOneFuture, AggressiveFlowIsPushedIntoFutureFrames)
{
    // One flow requesting every cycle with prompt credit returns runs
    // ahead of the head frame, so condition (1) actually gets
    // exercised on future-frame grants (not vacuously true).
    LoftParams p;
    p.quantumFlits = 1;
    p.frameSizeFlits = 16;
    p.windowFrames = 4;
    p.centralBufferFlits = 16;
    p.specBufferFlits = 0;
    p.maxFlows = 2;
    OutputScheduler s(p, "future");
    ConditionOneObserver obs;
    s.setObserver(&obs);
    s.registerFlow(0, 8);

    std::uint64_t q = 0;
    for (Cycle t = 0; t < 512; ++t) {
        s.advanceTo(t);
        Slot granted;
        if (s.trySchedule(0, t, q, t + 1, granted)) {
            ++q;
            s.onCreditReturn(granted + 1);
        }
    }
    EXPECT_GT(obs.futureGrants, 0u);
    EXPECT_EQ(obs.conditionViolations, 0u);
    EXPECT_EQ(obs.budgetViolations, 0u);
}

} // namespace
} // namespace noc
