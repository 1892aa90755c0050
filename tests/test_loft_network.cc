/**
 * @file
 * Integration tests for the assembled LOFT network: end-to-end
 * delivery, reassembly under speculative (out-of-order) switching,
 * drain, flow registration rules, and mechanism counters.
 */

#include <gtest/gtest.h>

#include "core/loft_network.hh"
#include "sim/simulator.hh"
#include "traffic/generator.hh"
#include "traffic/pattern.hh"

namespace noc
{
namespace
{

/** Small, fast LOFT configuration for 4x4 integration tests. */
LoftParams
smallLoft()
{
    LoftParams p;
    p.frameSizeFlits = 64;
    p.windowFrames = 2;
    p.quantumFlits = 2;
    p.centralBufferFlits = 64;
    p.specBufferFlits = 8;
    p.maxFlows = 16;
    p.sourceQueueFlits = 32;
    return p;
}

Packet
makePacket(PacketId id, const FlowSpec &f, Cycle now,
           std::uint32_t size = 4)
{
    Packet p;
    p.id = id;
    p.flow = f.id;
    p.src = f.src;
    p.dst = f.dst;
    p.sizeFlits = size;
    p.createdAt = now;
    p.enqueuedAt = now;
    return p;
}

class LoftNetTest : public ::testing::Test
{
  protected:
    LoftNetTest() : mesh_(4, 4) {}

    void
    build(const std::vector<FlowSpec> &flows,
          LoftParams params = smallLoft())
    {
        flows_ = flows;
        net_ = std::make_unique<LoftNetwork>(mesh_, params);
        net_->registerFlows(flows);
        net_->attach(sim_);
        net_->metrics().startMeasurement(0);
    }

    FlowSpec
    flow(FlowId id, NodeId src, NodeId dst, double share = 0.25)
    {
        FlowSpec f;
        f.id = id;
        f.src = src;
        f.dst = dst;
        f.bwShare = share;
        return f;
    }

    Mesh2D mesh_;
    std::unique_ptr<LoftNetwork> net_;
    std::vector<FlowSpec> flows_;
    Simulator sim_;
};

TEST_F(LoftNetTest, SinglePacketDelivered)
{
    build({flow(0, 0, 15)});
    ASSERT_TRUE(net_->inject(makePacket(1, flows_[0], 0)));
    EXPECT_TRUE(sim_.runUntil(
        [&] { return net_->metrics().totalPackets() == 1; }, 1000));
    EXPECT_EQ(net_->metrics().flow(0).flitsEjected, 4u);
    EXPECT_EQ(net_->totalAnomalyViolations(), 0u);
}

TEST_F(LoftNetTest, NetworkDrainsCompletely)
{
    build({flow(0, 0, 15), flow(1, 3, 12)});
    PacketId id = 1;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(net_->inject(makePacket(id++, flows_[0], 0)));
        ASSERT_TRUE(net_->inject(makePacket(id++, flows_[1], 0)));
    }
    EXPECT_TRUE(sim_.runUntil(
        [&] { return net_->metrics().totalPackets() == 16; }, 4000));
    sim_.run(50); // let credits settle
    EXPECT_EQ(net_->flitsInFlight(), 0u);
}

TEST_F(LoftNetTest, OddPacketSizeUsesShortTailQuantum)
{
    build({flow(0, 1, 14)});
    ASSERT_TRUE(net_->inject(makePacket(1, flows_[0], 0, 5)));
    EXPECT_TRUE(sim_.runUntil(
        [&] { return net_->metrics().totalPackets() == 1; }, 1000));
    EXPECT_EQ(net_->metrics().flow(0).flitsEjected, 5u);
}

TEST_F(LoftNetTest, SingleFlitPackets)
{
    build({flow(0, 5, 10)});
    for (PacketId id = 1; id <= 6; ++id)
        ASSERT_TRUE(net_->inject(makePacket(id, flows_[0], 0, 1)));
    EXPECT_TRUE(sim_.runUntil(
        [&] { return net_->metrics().totalPackets() == 6; }, 1000));
}

TEST_F(LoftNetTest, ManyFlowsAllDeliver)
{
    std::vector<FlowSpec> flows;
    for (FlowId f = 0; f < 16; ++f)
        flows.push_back(flow(f, f, 15 - f, 1.0 / 16));
    build(flows);
    PacketId id = 1;
    for (int round = 0; round < 4; ++round)
        for (auto &f : flows)
            ASSERT_TRUE(net_->inject(makePacket(id++, f, 0)));
    EXPECT_TRUE(sim_.runUntil(
        [&] { return net_->metrics().totalPackets() == 64; }, 8000));
    EXPECT_EQ(net_->totalAnomalyViolations(), 0u);
}

TEST_F(LoftNetTest, UncontendedFlowStreamsNearLinkRate)
{
    // The stripped-node property (Fig. 13): a single flow with a small
    // reservation still achieves near-full link throughput thanks to
    // speculative switching and local status reset.
    build({flow(0, 5, 6, 1.0 / 16)});
    TrafficGenerator gen(*net_, 4, 1);
    std::vector<FlowRate> rates(1);
    rates[0].flitsPerCycle = 0.95;
    gen.configure(flows_, rates);
    sim_.add(&gen);
    sim_.run(3000);
    net_->metrics().stopMeasurement(sim_.now());
    EXPECT_GT(net_->metrics().flowThroughput(0), 0.75);
    EXPECT_GT(net_->totalLocalResets(), 0u);
}

TEST_F(LoftNetTest, SpeculativeSwitchingReducesLatency)
{
    auto run_once = [&](bool speculative) {
        LoftParams p = smallLoft();
        p.speculativeSwitching = speculative;
        p.specBufferFlits = speculative ? 8 : 0;
        Simulator sim;
        LoftNetwork net(mesh_, p);
        auto f = flow(0, 0, 15);
        net.registerFlows({f});
        net.attach(sim);
        net.metrics().startMeasurement(0);
        net.inject(makePacket(1, f, 0));
        sim.runUntil(
            [&] { return net.metrics().totalPackets() == 1; }, 4000);
        return net.metrics().flow(0).packetLatency.mean();
    };
    const double with_spec = run_once(true);
    const double without = run_once(false);
    EXPECT_GT(with_spec, 0.0);
    EXPECT_GT(without, 0.0);
    EXPECT_LT(with_spec, without);
}

TEST_F(LoftNetTest, ReservationsOverbookingALinkIsFatal)
{
    std::vector<FlowSpec> flows;
    // Nine flows, each reserving 1/8 of the same ejection link.
    for (FlowId f = 0; f < 9; ++f)
        flows.push_back(flow(f, f, 15, 1.0 / 8));
    EXPECT_EXIT(build(flows), ::testing::ExitedWithCode(1), "sum R > F");
}

TEST_F(LoftNetTest, ReservationOfSharesScalesWithFrame)
{
    build({flow(0, 0, 15)});
    FlowSpec f;
    f.bwShare = 0.5;
    EXPECT_EQ(net_->reservationOf(f), 32u);
    f.bwShare = 0.001; // floors at one quantum
    EXPECT_EQ(net_->reservationOf(f), 2u);
}

TEST_F(LoftNetTest, BoundedSourceQueueBackpressures)
{
    build({flow(0, 0, 15)});
    PacketId id = 1;
    int accepted = 0;
    while (accepted < 100 && net_->inject(makePacket(id++, flows_[0], 0)))
        ++accepted;
    EXPECT_EQ(accepted, 8); // 32-flit queue / 4-flit packets
}

TEST_F(LoftNetTest, MechanismCountersMove)
{
    build({flow(0, 0, 15)});
    TrafficGenerator gen(*net_, 4, 2);
    std::vector<FlowRate> rates(1);
    rates[0].flitsPerCycle = 0.5;
    gen.configure(flows_, rates);
    sim_.add(&gen);
    sim_.run(2000);
    EXPECT_GT(net_->totalSpeculativeForwards(), 0u);
    EXPECT_GT(net_->totalLocalResets(), 0u);
    EXPECT_EQ(net_->totalAnomalyViolations(), 0u);
}

} // namespace
} // namespace noc
