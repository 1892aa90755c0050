/**
 * @file
 * Tests for the GSF baseline: barrier semantics, per-frame quota
 * enforcement at the sources, and end-to-end delivery.
 */

#include <gtest/gtest.h>

#include "gsf/gsf_network.hh"
#include "sim/simulator.hh"
#include "traffic/generator.hh"
#include "traffic/pattern.hh"

namespace noc
{
namespace
{

TEST(GsfBarrier, AdvancesAfterDelayWhenHeadEmpty)
{
    GsfBarrier b(6, 16);
    EXPECT_EQ(b.headFrame(), 0u);
    b.tick(0);                     // head empty -> schedule advance
    for (Cycle t = 1; t < 16; ++t)
        b.tick(t);
    EXPECT_EQ(b.headFrame(), 0u); // not yet
    b.tick(16);
    EXPECT_EQ(b.headFrame(), 1u);
}

TEST(GsfBarrier, BlockedWhileHeadInFlight)
{
    GsfBarrier b(6, 4);
    b.onPacketAdmitted(0, 4);
    for (Cycle t = 0; t < 50; ++t)
        b.tick(t);
    EXPECT_EQ(b.headFrame(), 0u);
    for (int i = 0; i < 4; ++i)
        b.onFlitEjected(0);
    for (Cycle t = 50; t < 56; ++t)
        b.tick(t);
    EXPECT_EQ(b.headFrame(), 1u);
}

TEST(GsfBarrier, WindowBounds)
{
    GsfBarrier b(6, 1);
    EXPECT_EQ(b.newestFrame(), 5u);
    b.onPacketAdmitted(5, 4);
    EXPECT_DEATH(b.onPacketAdmitted(6, 4), "inactive frame");
}

TEST(GsfBarrier, EjectionFromEmptyFramePanics)
{
    GsfBarrier b(6, 1);
    EXPECT_DEATH(b.onFlitEjected(3), "empty frame");
}

TEST(GsfBarrierDeathTest, EjectionOutsideTheWindowPanics)
{
    // Each frame outside [head, newest] shares its counter with an
    // active frame that holds flits; it is empty all the same.
    GsfBarrier b(6, 1);
    b.onPacketAdmitted(1, 4);
    EXPECT_DEATH(b.onFlitEjected(7), "empty frame");
    b.tick(0); // head frame 0 drained: advance at cycle 1
    b.tick(1);
    ASSERT_EQ(b.headFrame(), 1u);
    b.onPacketAdmitted(6, 2);
    EXPECT_DEATH(b.onFlitEjected(0), "empty frame");
}

TEST(GsfBarrier, InFlightAccounting)
{
    GsfBarrier b(4, 2);
    b.onPacketAdmitted(1, 4);
    b.onPacketAdmitted(2, 4);
    EXPECT_EQ(b.inFlightFlits(), 8u);
    b.onFlitEjected(1);
    EXPECT_EQ(b.inFlightFlits(), 7u);
}

class GsfNetTest : public ::testing::Test
{
  protected:
    GsfNetTest() : mesh_(4, 4)
    {
        params_.frameSizeFlits = 100;
        params_.windowFrames = 4;
        params_.barrierDelay = 4;
        params_.sourceQueueFlits = 200;
        net_ = std::make_unique<GsfNetwork>(mesh_, params_);
        net_->metrics().startMeasurement(0);
    }

    void
    setupFlows(std::size_t n)
    {
        std::vector<FlowSpec> flows;
        for (FlowId f = 0; f < n; ++f) {
            FlowSpec fs;
            fs.id = f;
            fs.src = f;
            fs.dst = static_cast<NodeId>(15 - f);
            fs.bwShare = 1.0 / 16;
            flows.push_back(fs);
        }
        flows_ = flows;
        net_->registerFlows(flows);
        net_->attach(sim_);
    }

    Packet
    makePacket(PacketId id, FlowId flow, Cycle now)
    {
        Packet p;
        p.id = id;
        p.flow = flow;
        p.src = flows_[flow].src;
        p.dst = flows_[flow].dst;
        p.sizeFlits = 4;
        p.createdAt = now;
        p.enqueuedAt = now;
        return p;
    }

    Mesh2D mesh_;
    GsfParams params_;
    std::unique_ptr<GsfNetwork> net_;
    std::vector<FlowSpec> flows_;
    Simulator sim_;
};

TEST_F(GsfNetTest, DeliversPackets)
{
    setupFlows(8);
    PacketId id = 1;
    for (int r = 0; r < 4; ++r)
        for (FlowId f = 0; f < 8; ++f)
            ASSERT_TRUE(net_->inject(makePacket(id++, f, 0)));
    EXPECT_TRUE(sim_.runUntil(
        [&] { return net_->metrics().totalPackets() == 32; }, 5000));
    EXPECT_EQ(net_->flitsInFlight(), 0u);
    EXPECT_EQ(net_->barrier().inFlightFlits(), 0u);
}

TEST_F(GsfNetTest, ReservationDerivedFromShare)
{
    setupFlows(1);
    FlowSpec f;
    f.bwShare = 0.25;
    EXPECT_EQ(net_->reservationOf(f), 25u);
    f.bwShare = 0.0001;
    EXPECT_EQ(net_->reservationOf(f), 1u); // floor of one flit
}

TEST_F(GsfNetTest, QuotaThrottlesSingleGreedyFlow)
{
    // One flow with a tiny reservation cannot use more than its quota
    // per frame window while the barrier is held by its own flits.
    setupFlows(2);
    // Saturate flow 0's source queue.
    PacketId id = 1;
    while (net_->inject(makePacket(id++, 0, 0))) {
    }
    sim_.run(300);
    // With R = 100/16 ~ 6 flits per frame and 4 frames in flight, no
    // more than WF * R flits may be in the network unejected at once;
    // ejection drains at 1/cycle so accepted throughput is bounded but
    // nonzero.
    const auto ejected = net_->metrics().totalFlits();
    EXPECT_GT(ejected, 0u);
}

TEST_F(GsfNetTest, HeadFrameInjectionForbidden)
{
    // GSF sources never tag packets with the current head frame
    // (Section 3.1): the earliest admissible frame is head + 1.
    setupFlows(2);
    PacketId id = 1;
    std::uint64_t min_frame_seen = ~0ull;
    net_->fabric().sink(flows_[0].dst).setOnEject(
        [&](const Flit &flit, Cycle) {
            min_frame_seen = std::min(min_frame_seen, flit.frame);
        });
    ASSERT_TRUE(net_->inject(makePacket(id++, 0, 0)));
    sim_.run(200);
    ASSERT_NE(min_frame_seen, ~0ull);
    EXPECT_GE(min_frame_seen, 1u);
}

TEST_F(GsfNetTest, QuotaLimitsPerWindowAdmission)
{
    // With the barrier held (head frame never drains because we keep
    // its flits un-ejected is hard to arrange; instead use a tiny
    // reservation): a flow with R flits/frame and W-1 usable frames
    // can have at most (W-1) * R flits admitted before its first
    // recycle.
    setupFlows(1);
    // R = 100/16 ~ 6 flits -> one 4-flit packet per frame; 3 usable
    // frames in a 4-frame window.
    PacketId id = 1;
    while (id < 50 && net_->inject(makePacket(id++, 0, 0))) {
    }
    sim_.run(30); // shorter than frame drain + barrier delay
    // Admitted flits = in flight + ejected; bounded by the window.
    const std::uint64_t admitted =
        net_->barrier().inFlightFlits() +
        net_->metrics().totalFlits();
    EXPECT_LE(admitted, 3u * 8u); // (W-1) frames x ceil(R) flits
    EXPECT_GT(admitted, 0u);
}

TEST_F(GsfNetTest, FrameRecyclingProgresses)
{
    setupFlows(4);
    PacketId id = 1;
    for (int r = 0; r < 8; ++r)
        for (FlowId f = 0; f < 4; ++f)
            ASSERT_TRUE(net_->inject(makePacket(id++, f, 0)));
    sim_.run(2000);
    EXPECT_GT(net_->barrier().recycleCount(), 5u);
}

} // namespace
} // namespace noc
