/**
 * @file
 * White-box tests of the wormhole substrate on small slices: credit
 * conservation, wormhole ordering, atomic VC reuse semantics, and
 * oldest-frame-first allocation in a single router.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/packet.hh"
#include "router/wormhole_network.hh"
#include "sim/simulator.hh"

namespace noc
{
namespace
{

Packet
makePacket(PacketId id, FlowId flow, NodeId src, NodeId dst,
           std::uint32_t size)
{
    Packet p;
    p.id = id;
    p.flow = flow;
    p.src = src;
    p.dst = dst;
    p.sizeFlits = size;
    return p;
}

TEST(WormholeUnit, CreditsRestoredAfterDrain)
{
    Mesh2D mesh(2, 1);
    WormholeParams params;
    params.numVCs = 2;
    params.vcDepthFlits = 4;
    WormholeNetwork net(mesh, params, 0);
    FlowSpec f;
    f.id = 0;
    f.src = 0;
    f.dst = 1;
    net.registerFlows({f});
    Simulator sim;
    net.attach(sim);
    net.metrics().startMeasurement(0);
    for (PacketId id = 1; id <= 5; ++id)
        ASSERT_TRUE(net.inject(makePacket(id, 0, 0, 1, 4)));
    ASSERT_TRUE(sim.runUntil(
        [&] { return net.metrics().totalPackets() == 5; }, 1000));
    sim.run(20); // let trailing credits land
    // Every output VC of both routers is back to full credit.
    for (NodeId n = 0; n < 2; ++n) {
        for (Port p : {Port::East, Port::West, Port::Local}) {
            if (p != Port::Local && !mesh.hasNeighbor(n, p))
                continue;
            for (std::uint32_t vc = 0; vc < params.numVCs; ++vc) {
                EXPECT_EQ(net.fabric().router(n).outputCredits(p, vc),
                          params.vcDepthFlits)
                    << "node " << n << " port " << portName(p)
                    << " vc " << vc;
            }
        }
    }
    EXPECT_EQ(net.flitsInFlight(), 0u);
}

TEST(WormholeUnit, FlitsOfOnePacketStayContiguousPerFlow)
{
    // Wormhole switching: a flow's packets are delivered in order
    // (heads never overtake within the same flow and path).
    Mesh2D mesh(4, 1);
    WormholeParams params;
    WormholeNetwork net(mesh, params, 0);
    FlowSpec f;
    f.id = 0;
    f.src = 0;
    f.dst = 3;
    net.registerFlows({f});
    Simulator sim;
    net.attach(sim);
    net.metrics().startMeasurement(0);
    std::vector<PacketId> order;
    net.fabric().sink(3).setOnEject([&](const Flit &flit, Cycle) {
        if (flit.isTail())
            order.push_back(flit.packet);
    });
    for (PacketId id = 1; id <= 8; ++id)
        ASSERT_TRUE(net.inject(makePacket(id, 0, 0, 3, 4)));
    ASSERT_TRUE(sim.runUntil(
        [&] { return net.metrics().totalPackets() == 8; }, 2000));
    for (std::size_t i = 1; i < order.size(); ++i)
        EXPECT_LT(order[i - 1], order[i]);
}

TEST(WormholeUnit, AtomicReuseSlowsBackToBackPackets)
{
    // The GSF VC-reuse rule measurably serializes a single-VC stream.
    auto run = [](bool atomic) {
        Mesh2D mesh(2, 1);
        WormholeParams params;
        params.numVCs = 1;
        params.vcDepthFlits = 5;
        params.linkLatency = 4; // long credit round trip
        params.atomicVcReuse = atomic;
        WormholeNetwork net(mesh, params, 0);
        FlowSpec f;
        f.id = 0;
        f.src = 0;
        f.dst = 1;
        net.registerFlows({f});
        Simulator sim;
        net.attach(sim);
        net.metrics().startMeasurement(0);
        for (PacketId id = 1; id <= 8; ++id)
            EXPECT_TRUE(net.inject(makePacket(id, 0, 0, 1, 4)));
        EXPECT_TRUE(sim.runUntil(
            [&] { return net.metrics().totalPackets() == 8; }, 4000));
        return sim.now();
    };
    const Cycle atomic = run(true);
    const Cycle plain = run(false);
    EXPECT_GT(atomic, plain + 20);
}

// ---- Router-level rig: two inputs contend for one output -------------

/** The flits of one packet from @p src to @p dst, stamped @p frame. */
std::vector<Flit>
packetFlits(PacketId id, FlowId flow, NodeId src, NodeId dst,
            std::uint64_t frame, std::uint32_t size)
{
    std::vector<Flit> flits(size);
    for (std::uint32_t k = 0; k < size; ++k) {
        Flit &f = flits[k];
        const bool head = k == 0;
        const bool tail = k + 1 == size;
        f.type = head && tail ? FlitType::HeadTail
               : head ? FlitType::Head
               : tail ? FlitType::Tail
               : FlitType::Body;
        f.flow = flow;
        f.flitNo = k;
        f.packet = id;
        f.src = src;
        f.dst = dst;
        f.pktSize = size;
        f.frame = frame;
    }
    return flits;
}

/**
 * Drives one router input port: sends its loaded flits on VC 0, one
 * per cycle while it holds a credit for that VC.
 */
class PortFeeder final : public Clocked
{
  public:
    PortFeeder(Channel<WireFlit> *out, Channel<Credit> *credit_in,
               std::uint32_t credits)
        : out_(out), creditIn_(credit_in), credits_(credits)
    {
        credit_in->setReader(this, 0);
    }

    void
    load(const std::vector<Flit> &flits)
    {
        flits_.insert(flits_.end(), flits.begin(), flits.end());
        wake();
    }

    void
    tick(Cycle now) override
    {
        if (mail() != 0)
            while (creditIn_->tryReceive(now))
                ++credits_;
        if (next_ < flits_.size() && credits_ > 0) {
            out_->send(now, WireFlit{flits_[next_++], 0});
            --credits_;
        }
    }

    bool
    quiescent() const override
    {
        return mail() == 0 && next_ == flits_.size();
    }

  private:
    Channel<WireFlit> *out_;
    Channel<Credit> *creditIn_;
    std::uint32_t credits_;
    std::vector<Flit> flits_;
    std::size_t next_ = 0;
};

/** Drains an output port into a log, returning every credit at once. */
class EjectLog final : public Clocked
{
  public:
    EjectLog(Channel<WireFlit> *in, Channel<Credit> *credit_out)
        : in_(in), creditOut_(credit_out)
    {
        in->setReader(this, 0);
    }

    void
    tick(Cycle now) override
    {
        while (auto wf = in_->tryReceive(now)) {
            flits.push_back(wf->flit);
            creditOut_->send(now, Credit{wf->vc});
        }
    }

    bool quiescent() const override { return mail() == 0; }

    std::vector<Flit> flits;

  private:
    Channel<WireFlit> *in_;
    Channel<Credit> *creditOut_;
};

/**
 * The centre router of a 3x1 mesh with its West and East inputs fed by
 * hand and its Local output drained into a log. The router binds the
 * readers of its input flit and output credit channels; the feeders and
 * the log bind the other three, so every registered port has a reader.
 */
struct ContentionRig
{
    static constexpr NodeId kCentre = 1;
    static constexpr std::uint32_t kDepth = 4;

    static WormholeParams
    rigParams()
    {
        WormholeParams p;
        p.numVCs = 2; // both packets hold a Local VC: the switch decides
        p.vcDepthFlits = kDepth;
        return p;
    }

    ContentionRig()
    {
        router.connectInput(Port::West, &westIn, &westCredit);
        router.connectInput(Port::East, &eastIn, &eastCredit);
        router.connectOutput(Port::Local, &eject, &ejectCredit);
        sim.add(&router, kCentre);
        sim.add(&west, kCentre);
        sim.add(&east, kCentre);
        sim.add(&log, kCentre);
        for (PendingPort *ch : std::vector<PendingPort *>{
                 &westIn, &eastIn, &eject, &westCredit, &eastCredit,
                 &ejectCredit})
            sim.addPort(ch);
    }

    PortFeeder &feeder(Port p) { return p == Port::West ? west : east; }

    /** Run until @p flits more flits have left through Local. */
    void
    drain(std::size_t flits)
    {
        const std::size_t target = log.flits.size() + flits;
        ASSERT_TRUE(sim.runUntil(
            [&] { return log.flits.size() >= target; }, 500));
    }

    Mesh2D mesh{3, 1};
    WormholeRouter router{kCentre, mesh, rigParams()};
    Channel<WireFlit> westIn, eastIn, eject;
    Channel<Credit> westCredit, eastCredit, ejectCredit;
    PortFeeder west{&westIn, &westCredit, kDepth};
    PortFeeder east{&eastIn, &eastCredit, kDepth};
    EjectLog log{&eject, &ejectCredit};
    Simulator sim;
};

NodeId
upstreamOf(Port p)
{
    return p == Port::West ? 0 : 2;
}

TEST(WormholeUnit, OlderFrameLeavesFirstWhateverThePointer)
{
    // A warm-up packet through either input (or none) leaves the
    // Local output's round-robin pointer favouring West or East, and
    // the older frame sits on either side: in half the cases plain
    // round-robin would let a frame-5 flit out first.
    constexpr std::uint32_t kFlits = 8;
    for (const Port older : {Port::West, Port::East}) {
        const Port younger = older == Port::West ? Port::East : Port::West;
        for (const int warm : {-1, 0, 1}) {
            SCOPED_TRACE(std::string("older ") + portName(older) +
                         ", warm-up " +
                         (warm < 0 ? "none" : warm ? "East" : "West"));
            ContentionRig rig;
            if (warm >= 0) {
                const Port p = warm ? Port::East : Port::West;
                rig.feeder(p).load(packetFlits(
                    1, 9, upstreamOf(p), ContentionRig::kCentre, 0, 2));
                rig.drain(2);
            }
            const std::size_t first = rig.log.flits.size();
            rig.feeder(older).load(packetFlits(
                2, 3, upstreamOf(older), ContentionRig::kCentre, 3,
                kFlits));
            rig.feeder(younger).load(packetFlits(
                3, 5, upstreamOf(younger), ContentionRig::kCentre, 5,
                kFlits));
            rig.drain(2 * kFlits);

            const std::vector<Flit> &out = rig.log.flits;
            ASSERT_EQ(out.size(), first + 2 * kFlits);
            for (std::size_t i = first; i < out.size(); ++i) {
                EXPECT_EQ(out[i].frame, i < first + kFlits ? 3u : 5u)
                    << "flit " << i - first << " of the contest";
            }
        }
    }
}

TEST(WormholeUnit, EqualFramesAlternateInputs)
{
    constexpr std::uint32_t kFlits = 8;
    ContentionRig rig;
    rig.west.load(packetFlits(1, 0, upstreamOf(Port::West),
                              ContentionRig::kCentre, 4, kFlits));
    rig.east.load(packetFlits(2, 1, upstreamOf(Port::East),
                              ContentionRig::kCentre, 4, kFlits));
    rig.drain(2 * kFlits);

    const std::vector<Flit> &out = rig.log.flits;
    ASSERT_EQ(out.size(), 2 * kFlits);
    for (std::size_t i = 1; i < out.size(); ++i)
        EXPECT_NE(out[i].flow, out[i - 1].flow) << "flit " << i;
}

} // namespace
} // namespace noc
