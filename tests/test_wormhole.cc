/**
 * @file
 * Integration tests for the conventional VC wormhole network.
 */

#include <gtest/gtest.h>

#include "net/packet.hh"
#include "router/wormhole_network.hh"
#include "sim/simulator.hh"

namespace noc
{
namespace
{

Packet
makePacket(PacketId id, FlowId flow, NodeId src, NodeId dst,
           std::uint32_t size, Cycle now)
{
    Packet p;
    p.id = id;
    p.flow = flow;
    p.src = src;
    p.dst = dst;
    p.sizeFlits = size;
    p.createdAt = now;
    p.enqueuedAt = now;
    return p;
}

class WormholeTest : public ::testing::Test
{
  protected:
    WormholeTest() : mesh_(4, 4), net_(mesh_, params())
    {
        std::vector<FlowSpec> flows;
        for (FlowId f = 0; f < 16; ++f) {
            FlowSpec fs;
            fs.id = f;
            fs.src = f;
            fs.dst = 15 - f;
            flows.push_back(fs);
        }
        net_.registerFlows(flows);
        net_.attach(sim_);
        net_.metrics().startMeasurement(0);
    }

    static WormholeParams params()
    {
        WormholeParams p;
        p.numVCs = 2;
        p.vcDepthFlits = 4;
        return p;
    }

    Mesh2D mesh_;
    WormholeNetwork net_;
    Simulator sim_;
};

TEST_F(WormholeTest, SinglePacketDelivered)
{
    ASSERT_TRUE(net_.inject(makePacket(1, 0, 0, 15, 4, 0)));
    const bool done = sim_.runUntil(
        [&] { return net_.metrics().totalPackets() == 1; }, 500);
    EXPECT_TRUE(done);
    net_.metrics().stopMeasurement(sim_.now());
    EXPECT_EQ(net_.metrics().flow(0).flitsEjected, 4u);
    EXPECT_EQ(net_.flitsInFlight(), 0u);
}

TEST_F(WormholeTest, LatencyReasonableForUncontended)
{
    ASSERT_TRUE(net_.inject(makePacket(1, 0, 0, 15, 4, 0)));
    sim_.runUntil([&] { return net_.metrics().totalPackets() == 1; },
                  500);
    // 6 hops + ejection at ~3 cycles/hop + serialization of 4 flits.
    const double lat = net_.metrics().flow(0).packetLatency.mean();
    EXPECT_GT(lat, 10.0);
    EXPECT_LT(lat, 80.0);
}

TEST_F(WormholeTest, ManyPacketsAllDelivered)
{
    PacketId id = 1;
    for (int round = 0; round < 5; ++round)
        for (FlowId f = 0; f < 16; ++f)
            ASSERT_TRUE(net_.inject(
                makePacket(id++, f, f, 15 - f, 4, 0)));
    const bool done = sim_.runUntil(
        [&] { return net_.metrics().totalPackets() == 80; }, 5000);
    EXPECT_TRUE(done);
    EXPECT_EQ(net_.metrics().totalFlits(), 320u);
    EXPECT_EQ(net_.flitsInFlight(), 0u);
}

TEST_F(WormholeTest, SelfFlowNotRequired)
{
    // Send a one-flit packet one hop.
    ASSERT_TRUE(net_.inject(makePacket(1, 1, 1, 2, 1, 0)));
    EXPECT_TRUE(sim_.runUntil(
        [&] { return net_.metrics().totalPackets() == 1; }, 200));
}

TEST(WormholeQueue, BoundedSourceQueueRefusesWhenFull)
{
    Mesh2D mesh(4, 4);
    WormholeParams p;
    WormholeNetwork net(mesh, p, 8); // 8-flit source queue
    std::vector<FlowSpec> flows(1);
    flows[0].id = 0;
    flows[0].src = 0;
    flows[0].dst = 5;
    net.registerFlows(flows);
    Simulator sim;
    net.attach(sim);
    EXPECT_TRUE(net.inject(makePacket(1, 0, 0, 5, 4, 0)));
    EXPECT_TRUE(net.inject(makePacket(2, 0, 0, 5, 4, 0)));
    EXPECT_FALSE(net.inject(makePacket(3, 0, 0, 5, 4, 0)));
}

} // namespace
} // namespace noc
