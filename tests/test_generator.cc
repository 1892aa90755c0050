/**
 * @file
 * Unit tests for the traffic generator (injection processes, pending
 * queue behaviour, random destinations).
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "traffic/generator.hh"
#include "traffic/pattern.hh"

namespace noc
{
namespace
{

/** A network stub that records offered packets. */
class StubNetwork : public Network
{
  public:
    explicit StubNetwork(std::uint32_t w = 8, std::uint32_t h = 8)
        : mesh_(w, h)
    {
    }

    const Mesh2D &mesh() const override { return mesh_; }
    void registerFlows(const std::vector<FlowSpec> &flows) override
    {
        metrics_.resizeFlows(flows.size());
    }
    bool
    inject(const Packet &pkt) override
    {
        if (!accept)
            return false;
        injected.push_back(pkt);
        return true;
    }
    void attach(Simulator &) override {}
    MetricsCollector &metrics() override { return metrics_; }
    const MetricsCollector &metrics() const override { return metrics_; }
    std::uint64_t flitsInFlight() const override { return 0; }

    bool accept = true;
    std::vector<Packet> injected;

  private:
    Mesh2D mesh_;
    MetricsCollector metrics_;
};

std::vector<FlowSpec>
oneFlow(NodeId src, NodeId dst)
{
    FlowSpec f;
    f.id = 0;
    f.src = src;
    f.dst = dst;
    return {f};
}

TEST(Generator, PeriodicRateIsExact)
{
    StubNetwork net;
    TrafficGenerator gen(net, 4, 1);
    std::vector<FlowRate> rates(1);
    rates[0].flitsPerCycle = 0.4; // one 4-flit packet every 10 cycles
    rates[0].process = InjectionProcess::Periodic;
    gen.configure(oneFlow(0, 5), rates);
    for (Cycle t = 0; t < 1000; ++t)
        gen.tick(t);
    // Floating-point accumulation may defer the last packet by a tick.
    EXPECT_NEAR(static_cast<double>(net.injected.size()), 100.0, 1.0);
}

TEST(Generator, BernoulliRateApproximate)
{
    StubNetwork net;
    TrafficGenerator gen(net, 4, 7);
    std::vector<FlowRate> rates(1);
    rates[0].flitsPerCycle = 0.4;
    gen.configure(oneFlow(0, 5), rates);
    for (Cycle t = 0; t < 20000; ++t)
        gen.tick(t);
    EXPECT_NEAR(static_cast<double>(net.injected.size()), 2000.0, 150.0);
}

TEST(Generator, ZeroRateFlowIsSilent)
{
    StubNetwork net;
    TrafficGenerator gen(net, 4, 1);
    gen.configure(oneFlow(0, 5), std::vector<FlowRate>(1));
    for (Cycle t = 0; t < 1000; ++t)
        gen.tick(t);
    EXPECT_TRUE(net.injected.empty());
}

TEST(Generator, PendingQueueDrainsInOrder)
{
    StubNetwork net;
    net.accept = false;
    TrafficGenerator gen(net, 4, 1);
    std::vector<FlowRate> rates(1);
    rates[0].flitsPerCycle = 4.0; // one packet per cycle
    rates[0].process = InjectionProcess::Periodic;
    gen.configure(oneFlow(0, 5), rates);
    for (Cycle t = 0; t < 10; ++t)
        gen.tick(t);
    EXPECT_EQ(gen.packetsPending(), 10u);
    net.accept = true;
    gen.tick(10);
    EXPECT_EQ(gen.packetsPending(), 0u);
    // FIFO by id.
    for (std::size_t i = 1; i < net.injected.size(); ++i)
        EXPECT_LT(net.injected[i - 1].id, net.injected[i].id);
}

TEST(Generator, EnqueueTimeStampsRefreshOnRetry)
{
    StubNetwork net;
    net.accept = false;
    TrafficGenerator gen(net, 4, 1);
    std::vector<FlowRate> rates(1);
    rates[0].flitsPerCycle = 4.0;
    rates[0].process = InjectionProcess::Periodic;
    gen.configure(oneFlow(0, 5), rates);
    gen.tick(0);
    net.accept = true;
    gen.tick(50);
    ASSERT_GE(net.injected.size(), 1u);
    EXPECT_EQ(net.injected[0].createdAt, 0u);
    EXPECT_EQ(net.injected[0].enqueuedAt, 50u);
}

TEST(Generator, RandomDestinationsExcludeSelfAndCoverMesh)
{
    StubNetwork net(4, 4);
    TrafficGenerator gen(net, 1, 3);
    FlowSpec f;
    f.id = 0;
    f.src = 5;
    f.dst = kInvalidNode; // uniform-random destination
    std::vector<FlowRate> rates(1);
    rates[0].flitsPerCycle = 1.0;
    rates[0].process = InjectionProcess::Periodic;
    gen.configure({f}, rates);
    for (Cycle t = 0; t < 3000; ++t)
        gen.tick(t);
    std::vector<int> seen(16, 0);
    for (const auto &p : net.injected) {
        EXPECT_NE(p.dst, p.src);
        ++seen[p.dst];
    }
    for (NodeId d = 0; d < 16; ++d) {
        if (d == 5)
            EXPECT_EQ(seen[d], 0);
        else
            EXPECT_GT(seen[d], 0);
    }
}

TEST(Generator, MismatchedRatesFatal)
{
    StubNetwork net;
    TrafficGenerator gen(net, 4, 1);
    EXPECT_EXIT(gen.configure(oneFlow(0, 1), {}),
                ::testing::ExitedWithCode(1), "mismatch");
}

TEST(Generator, PacketsCarryFlowAndSize)
{
    StubNetwork net;
    TrafficGenerator gen(net, 8, 1);
    std::vector<FlowRate> rates(1);
    rates[0].flitsPerCycle = 8.0;
    rates[0].process = InjectionProcess::Periodic;
    gen.configure(oneFlow(3, 9), rates);
    gen.tick(0);
    ASSERT_EQ(net.injected.size(), 1u);
    EXPECT_EQ(net.injected[0].flow, 0u);
    EXPECT_EQ(net.injected[0].src, 3u);
    EXPECT_EQ(net.injected[0].dst, 9u);
    EXPECT_EQ(net.injected[0].sizeFlits, 8u);
}

} // namespace
} // namespace noc
