/**
 * @file
 * White-box tests of the LOFT building blocks through a hand-wired
 * two-node network slice (NI -> router -> router -> sink): scheduled
 * (emergent) vs early (speculative) transfer lanes, sticky quantum
 * buffer choice, credit conservation, input-table back-pressure, and
 * the local-reset conditions on a live link. A second rig drives one
 * data router by hand to pin down how an output picks among the
 * quanta that several inputs hold for it, and in which order it serves
 * flows. A third fills one input's table past the router's starting
 * arena and checks back-pressure and the output picks after growth. A
 * fourth checks that staging a quantum wakes the look-ahead router, and
 * a last one that recovery gives up on a quantum it can never re-admit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/data_router.hh"
#include "core/loft_network.hh"
#include "core/loft_source.hh"
#include "core/lookahead_router.hh"
#include "sim/simulator.hh"

namespace noc
{
namespace
{

/** A 2x1 slice with one flow 0 -> 1 built on a full LoftNetwork. */
class SliceTest : public ::testing::Test
{
  protected:
    void
    build(LoftParams p, double share = 0.25)
    {
        params_ = p;
        mesh_ = std::make_unique<Mesh2D>(2, 1);
        net_ = std::make_unique<LoftNetwork>(*mesh_, p);
        FlowSpec f;
        f.id = 0;
        f.src = 0;
        f.dst = 1;
        f.bwShare = share;
        net_->registerFlows({f});
        net_->attach(sim_);
        net_->metrics().startMeasurement(0);
    }

    static LoftParams
    smallParams()
    {
        LoftParams p;
        p.frameSizeFlits = 32;
        p.centralBufferFlits = 32;
        p.specBufferFlits = 8;
        p.maxFlows = 4;
        p.sourceQueueFlits = 0;
        return p;
    }

    void
    injectPackets(int n, std::uint32_t size = 4)
    {
        for (int i = 0; i < n; ++i) {
            Packet pkt;
            pkt.id = static_cast<PacketId>(i + 1);
            pkt.flow = 0;
            pkt.src = 0;
            pkt.dst = 1;
            pkt.sizeFlits = size;
            pkt.createdAt = sim_.now();
            pkt.enqueuedAt = sim_.now();
            ASSERT_TRUE(net_->inject(pkt));
        }
    }

    LoftParams params_;
    std::unique_ptr<Mesh2D> mesh_;
    std::unique_ptr<LoftNetwork> net_;
    Simulator sim_;
};

TEST_F(SliceTest, EarlyTransfersUseSpeculativeLane)
{
    build(smallParams());
    injectPackets(2);
    ASSERT_TRUE(sim_.runUntil(
        [&] { return net_->metrics().totalPackets() == 2; }, 500));
    // An idle slice forwards everything early: speculative forwards
    // dominate, emergent transfers are the exception.
    EXPECT_GT(net_->totalSpeculativeForwards(),
              net_->totalEmergentForwards());
}

TEST_F(SliceTest, NoSpeculationMeansOnlyEmergentTransfers)
{
    LoftParams p = smallParams();
    p.speculativeSwitching = false;
    p.specBufferFlits = 0;
    build(p);
    injectPackets(2);
    ASSERT_TRUE(sim_.runUntil(
        [&] { return net_->metrics().totalPackets() == 2; }, 2000));
    EXPECT_EQ(net_->totalSpeculativeForwards(), 0u);
    EXPECT_GT(net_->totalEmergentForwards(), 0u);
}

TEST_F(SliceTest, ScheduledPathBoundsLatencyWithoutSpeculation)
{
    // Without speculation, transfers happen at booked slots: per-hop
    // latency is a few slots, far below the frame-window bound.
    LoftParams p = smallParams();
    p.speculativeSwitching = false;
    p.specBufferFlits = 0;
    build(p);
    injectPackets(1);
    ASSERT_TRUE(sim_.runUntil(
        [&] { return net_->metrics().totalPackets() == 1; }, 2000));
    const double bound = static_cast<double>(p.frameSizeFlits) *
                         p.windowFrames * 2; // 2 links
    EXPECT_LT(net_->metrics().avgPacketLatency(), bound);
}

TEST_F(SliceTest, CreditsFullyRestoredAfterDrain)
{
    build(smallParams());
    injectPackets(6);
    ASSERT_TRUE(sim_.runUntil(
        [&] { return net_->metrics().totalPackets() == 6; }, 2000));
    sim_.run(64); // let all credit messages land
    EXPECT_EQ(net_->flitsInFlight(), 0u);
    // After full drain the link idles and resets, restoring a fresh
    // window: further traffic schedules immediately again.
    injectPackets(1);
    const Cycle before = sim_.now();
    ASSERT_TRUE(sim_.runUntil(
        [&] { return net_->metrics().totalPackets() == 7; }, 200));
    EXPECT_LT(sim_.now() - before, 60u);
}

TEST_F(SliceTest, ThroughputScalesWithReservationWhenMechanismsOff)
{
    // With speculation and reset disabled, accepted throughput is
    // pinned to R/F per frame — the guaranteed rate. A longer frame
    // keeps the per-frame pipeline-fill boundary effect small.
    LoftParams p = smallParams();
    p.frameSizeFlits = 128;
    p.centralBufferFlits = 128;
    p.speculativeSwitching = false;
    p.specBufferFlits = 0;
    p.localStatusReset = false;
    build(p, 0.25); // R = 32 flits per 128-flit frame
    injectPackets(200);
    sim_.run(4000);
    net_->metrics().stopMeasurement(sim_.now());
    EXPECT_NEAR(net_->metrics().flowThroughput(0), 0.25, 0.05);
}

TEST_F(SliceTest, QuantumOfOneFlit)
{
    LoftParams p = smallParams();
    p.quantumFlits = 1;
    build(p);
    injectPackets(3, 3); // odd sizes with single-flit quanta
    ASSERT_TRUE(sim_.runUntil(
        [&] { return net_->metrics().totalPackets() == 3; }, 1000));
    EXPECT_EQ(net_->metrics().totalFlits(), 9u);
    EXPECT_EQ(net_->totalAnomalyViolations(), 0u);
}

TEST_F(SliceTest, LargeQuantum)
{
    LoftParams p = smallParams();
    p.quantumFlits = 4;
    build(p);
    injectPackets(3, 8);
    ASSERT_TRUE(sim_.runUntil(
        [&] { return net_->metrics().totalPackets() == 3; }, 1000));
    EXPECT_EQ(net_->metrics().totalFlits(), 24u);
}

TEST_F(SliceTest, UtilizationCountersTrackForwards)
{
    build(smallParams());
    injectPackets(8);
    ASSERT_TRUE(sim_.runUntil(
        [&] { return net_->metrics().totalPackets() == 8; }, 2000));
    const auto util = net_->linkUtilization(sim_.now());
    // node 0 East and node 1 Local carried all 32 flits.
    const double east0 = util[0 * kNumPorts + portIndex(Port::East)];
    const double local1 = util[1 * kNumPorts + portIndex(Port::Local)];
    EXPECT_NEAR(east0 * sim_.now(), 32.0, 0.5);
    EXPECT_NEAR(local1 * sim_.now(), 32.0, 0.5);
    // No other port forwarded anything.
    double others = 0.0;
    for (std::size_t i = 0; i < util.size(); ++i) {
        if (i != 0 * kNumPorts + portIndex(Port::East) &&
            i != 1 * kNumPorts + portIndex(Port::Local)) {
            others += util[i];
        }
    }
    EXPECT_DOUBLE_EQ(others, 0.0);
}

TEST_F(SliceTest, SinkReassemblesInterleavedPackets)
{
    // Two flows from the same source interleave quanta on the link;
    // the sink must reassemble both packets correctly.
    LoftParams p = smallParams();
    mesh_ = std::make_unique<Mesh2D>(2, 1);
    net_ = std::make_unique<LoftNetwork>(*mesh_, p);
    FlowSpec a, b;
    a.id = 0;
    a.src = 0;
    a.dst = 1;
    a.bwShare = 0.25;
    b.id = 1;
    b.src = 0;
    b.dst = 1;
    b.bwShare = 0.25;
    net_->registerFlows({a, b});
    net_->attach(sim_);
    net_->metrics().startMeasurement(0);
    for (PacketId id = 1; id <= 6; ++id) {
        Packet pkt;
        pkt.id = id;
        pkt.flow = id % 2;
        pkt.src = 0;
        pkt.dst = 1;
        pkt.sizeFlits = 4;
        ASSERT_TRUE(net_->inject(pkt));
    }
    ASSERT_TRUE(sim_.runUntil(
        [&] { return net_->metrics().totalPackets() == 6; }, 2000));
    EXPECT_EQ(net_->metrics().flow(0).flitsEjected, 12u);
    EXPECT_EQ(net_->metrics().flow(1).flitsEjected, 12u);
}

/** Records every flit a sink ejects. */
class EjectionRecorder final : public NetObserver
{
  public:
    std::vector<Flit> flits;

    void
    consume(const NetEvent &e) override
    {
        if (e.kind == NetEvent::Kind::FlitEjected)
            flits.push_back(e.flit);
    }
};

TEST_F(SliceTest, EjectedFlitsCarryTheirSegmentation)
{
    // The NI cuts each packet into quanta of quantumFlits flits (the
    // last one may be short) and numbers flits and quanta per flow.
    for (const std::uint32_t q : {1u, 2u, 4u}) {
        SCOPED_TRACE(testing::Message() << "quantumFlits " << q);
        LoftParams p = smallParams();
        p.quantumFlits = q;
        Mesh2D mesh(2, 1);
        LoftNetwork net(mesh, p);
        FlowSpec f;
        f.id = 0;
        f.src = 0;
        f.dst = 1;
        f.bwShare = 0.25;
        net.registerFlows({f});
        EjectionRecorder rec;
        net.setObserver(&rec);
        Simulator sim;
        net.attach(sim);
        net.metrics().startMeasurement(0);

        // Sizes 1, 3 and 5, enqueued at distinct cycles.
        std::vector<Packet> sent;
        for (const std::uint32_t size : {1u, 3u, 5u}) {
            Packet pkt;
            pkt.id = 10 + size;
            pkt.flow = 0;
            pkt.src = 0;
            pkt.dst = 1;
            pkt.sizeFlits = size;
            pkt.enqueuedAt = sim.now();
            ASSERT_TRUE(net.inject(pkt));
            sent.push_back(pkt);
            sim.run(3);
        }
        ASSERT_TRUE(sim.runUntil(
            [&] { return net.metrics().totalPackets() == 3; }, 1000));

        std::vector<Flit> expect;
        std::uint64_t flit_no = 0;
        std::uint64_t quantum = 0;
        for (const Packet &pkt : sent) {
            for (std::uint32_t pos = 0; pos < pkt.sizeFlits; ++pos) {
                const bool head = pos == 0;
                const bool tail = pos + 1 == pkt.sizeFlits;
                Flit e;
                e.type = head && tail ? FlitType::HeadTail
                       : head ? FlitType::Head
                       : tail ? FlitType::Tail
                       : FlitType::Body;
                e.flow = 0;
                e.flitNo = flit_no++;
                e.packet = pkt.id;
                e.src = 0;
                e.dst = 1;
                e.pktSize = pkt.sizeFlits;
                e.createdAt = pkt.enqueuedAt;
                e.quantum = quantum;
                e.quantumLast = (pos + 1) % q == 0 || tail;
                e.payload = flitPayload(e.flow, e.flitNo);
                if (e.quantumLast)
                    ++quantum;
                expect.push_back(e);
            }
        }

        std::vector<Flit> got = rec.flits;
        std::sort(got.begin(), got.end(),
                  [](const Flit &a, const Flit &b) {
                      return a.flitNo < b.flitNo;
                  });
        ASSERT_EQ(got.size(), expect.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE(testing::Message() << "flit " << i);
            EXPECT_EQ(got[i].type, expect[i].type);
            EXPECT_EQ(got[i].flow, expect[i].flow);
            EXPECT_EQ(got[i].flitNo, expect[i].flitNo);
            EXPECT_EQ(got[i].packet, expect[i].packet);
            EXPECT_EQ(got[i].src, expect[i].src);
            EXPECT_EQ(got[i].dst, expect[i].dst);
            EXPECT_EQ(got[i].pktSize, expect[i].pktSize);
            EXPECT_EQ(got[i].createdAt, expect[i].createdAt);
            EXPECT_EQ(got[i].frame, expect[i].frame);
            EXPECT_EQ(got[i].quantum, expect[i].quantum);
            EXPECT_EQ(got[i].quantumLast, expect[i].quantumLast);
            EXPECT_EQ(got[i].payload, expect[i].payload);
        }
    }
}

// ---- Output choice of one data router, driven by hand ----------------

/**
 * The middle router of a 3x1 mesh with its Local and West inputs and
 * its East output on bare wires, ticked without a simulator. Each
 * quantum is one flit of its own flow, admitted and scheduled by hand
 * so that successive quanta take successive East slots; a case delivers
 * data only for the quanta it wants ready.
 */
class OutputChoiceTest : public ::testing::Test
{
  protected:
    static constexpr NodeId kDst = 2;

    OutputChoiceTest() : mesh_(3, 1), router_(1, mesh_, params())
    {
        for (const Port p : {Port::Local, Port::West})
            router_.connectInput(p, &dataIn_[portIndex(p)], nullptr,
                                 nullptr);
        router_.connectOutput(Port::East, &out_, &actualIn_, &virtualIn_);
    }

    static LoftParams
    params()
    {
        LoftParams p;
        p.frameSizeFlits = 32;
        p.centralBufferFlits = 32;
        p.specBufferFlits = 8;
        p.maxFlows = 8;
        p.localStatusReset = false;
        return p;
    }

    /** Admit @p flow's quantum @p q on input @p in. */
    void
    admit(Port in, FlowId flow, std::uint64_t q = 0)
    {
        LookaheadFlit la;
        la.flow = flow;
        la.src = 0;
        la.dst = kDst;
        la.quantumNo = q;
        la.quantumFlits = 1;
        la.departureSlot = 2;
        EXPECT_TRUE(router_.admitLookahead(in, la, 0, 0));
    }

    /** The flow East schedules a quantum of at cycle 0, if any. */
    FlowId
    scheduleNext(Slot *slot = nullptr)
    {
        LookaheadFlit onward;
        bool terminal = false;
        if (!router_.schedulePending(Port::East, 0, onward, terminal))
            return kInvalidFlow;
        if (slot)
            *slot = onward.departureSlot;
        return onward.flow;
    }

    /** Admit and schedule @p flow's quantum on input @p in; its slot. */
    Slot
    schedule(Port in, FlowId flow)
    {
        router_.scheduler(Port::East).registerFlow(flow, 2);
        admit(in, flow);
        Slot slot = 0;
        EXPECT_EQ(scheduleNext(&slot), flow);
        return slot;
    }

    /** Put @p flow's flit on @p in's wire, readable from cycle 1. */
    void
    deliver(Port in, FlowId flow)
    {
        Flit f;
        f.type = FlitType::HeadTail;
        f.flow = flow;
        f.src = 0;
        f.dst = kDst;
        f.quantumLast = true;
        dataIn_[portIndex(in)].send(0, DataWireFlit{f, false});
    }

    /** Tick at @p now; the flow whose flit left East, if any. */
    FlowId
    tick(Cycle now)
    {
        router_.tick(now);
        const auto wf = out_.tryReceive(now + 1);
        return wf ? wf->flit.flow : kInvalidFlow;
    }

    Mesh2D mesh_;
    LoftDataRouter router_;
    std::array<Channel<DataWireFlit>, kNumPorts> dataIn_;
    Channel<DataWireFlit> out_;
    Channel<ActualCreditMsg> actualIn_;
    Channel<VirtualCreditMsg> virtualIn_;
};

TEST_F(OutputChoiceTest, LaterDueQuantumWithDataLeavesAsEmergent)
{
    const Slot first = schedule(Port::West, 1); // never gets data
    const Slot second = schedule(Port::Local, 2);
    ASSERT_LT(first, second);
    deliver(Port::Local, 2);
    // Both are due; only the later one can leave, in its slot's lane.
    const Cycle now = router_.scheduler(Port::East).params().slotStart(
        second);
    EXPECT_EQ(tick(now), 2u);
    EXPECT_EQ(router_.emergentForwards(), 1u);
    EXPECT_EQ(router_.speculativeForwards(), 0u);
    EXPECT_EQ(router_.missedSlots(), 0u);
}

TEST_F(OutputChoiceTest, DuePairWithoutDataMissesOneSlotPerCycle)
{
    schedule(Port::West, 1);
    const Slot last = schedule(Port::Local, 2);
    const Cycle now =
        router_.scheduler(Port::East).params().slotStart(last);
    EXPECT_EQ(tick(now), kInvalidFlow);
    EXPECT_EQ(router_.missedSlots(), 1u);
    EXPECT_EQ(tick(now + 1), kInvalidFlow);
    EXPECT_EQ(router_.missedSlots(), 2u);
    EXPECT_EQ(router_.emergentForwards() + router_.speculativeForwards(),
              0u);
}

TEST_F(OutputChoiceTest, EachInputOffersItsEarliestReadyQuantum)
{
    // West holds flows 1 (no data), 2 and 4; Local holds 3 and 5. Slots
    // rise with the flow id, and none is due during the ticks below.
    schedule(Port::West, 1);
    schedule(Port::West, 2);
    schedule(Port::Local, 3);
    schedule(Port::West, 4);
    const Slot last = schedule(Port::Local, 5);
    for (const FlowId f : {2u, 4u})
        deliver(Port::West, f);
    for (const FlowId f : {3u, 5u})
        deliver(Port::Local, f);
    std::vector<FlowId> order;
    for (Cycle now = 1; order.size() < 4; ++now) {
        ASSERT_LT(router_.scheduler(Port::East).params().slotOf(now),
                  last - 4);
        order.push_back(tick(now));
    }
    // Local (input 0) wins first, then the arbiter alternates; West
    // offers flow 2 before 4 and never the dataless flow 1.
    EXPECT_EQ(order, (std::vector<FlowId>{3, 2, 5, 4}));
    EXPECT_EQ(router_.speculativeForwards(), 4u);
    EXPECT_EQ(router_.missedSlots(), 0u);
}

TEST_F(OutputChoiceTest, RoundRobinVisitsEachFlowHeadOnceFromThePointer)
{
    // Flow 1 reserves one slot per frame, flows 2 and 3 two each.
    OutputScheduler &sched = router_.scheduler(Port::East);
    sched.registerFlow(1, 2);
    for (const FlowId f : {2u, 3u})
        sched.registerFlow(f, 4);
    for (std::uint64_t q = 0; q < 8; ++q)
        admit(Port::West, 1, q);
    EXPECT_EQ(scheduleNext(), 1u);
    // Flow 1's head (quantum 1) needs the next frame, which condition
    // (1) closes while the head frame holds a booking: it is refused
    // from now on, and each refusal still updates the flow's state.
    // Its later quanta are never asked. The same holds for flow 3 once
    // its two slots are booked, so long runs of one flow's quanta lie
    // below the pointer (flow 1) and above it (flow 3).
    for (std::uint64_t q = 0; q < 2; ++q)
        admit(Port::Local, 2, q);
    for (std::uint64_t q = 0; q < 8; ++q)
        admit(Port::Local, 3, q);

    std::vector<FlowId> served;
    std::vector<std::uint64_t> refused;
    for (;;) {
        const std::uint64_t before = sched.throttles();
        const FlowId f = scheduleNext();
        refused.push_back(sched.throttles() - before);
        if (f == kInvalidFlow)
            break;
        served.push_back(f);
    }
    // Starting past the last served flow, every flow's head is asked
    // once per call, in flow order and wrapping once: flow 1's refused
    // head is asked on each wrap, a flow's second quantum never
    // overtakes another flow's head, and the last call asks flow 1's
    // and flow 3's heads once each, none of the quanta behind them.
    EXPECT_EQ(served, (std::vector<FlowId>{2, 3, 2, 3}));
    EXPECT_EQ(refused, (std::vector<std::uint64_t>{0, 0, 1, 0, 2}));
    EXPECT_TRUE(router_.hasPendingQuanta());
}

// ---- One input holding more quanta than the arena starts with -------

/**
 * The centre router of a 3x3 mesh with its West input and four outputs
 * on bare wires. One-flit quanta of four flows, one per output, fill
 * the West input's table (Table 1: windowSlots() = 128 entries), four
 * times the records a router's arena starts with.
 */
class CrowdedInputTest : public ::testing::Test
{
  protected:
    static constexpr std::uint64_t kPerFlow = 32;
    /** Output and destination of flows 1-4. */
    static constexpr std::array<std::pair<Port, NodeId>, 4> kRoutes{{
        {Port::East, 5},
        {Port::North, 7},
        {Port::South, 1},
        {Port::Local, 4},
    }};

    CrowdedInputTest() : mesh_(3, 3), router_(4, mesh_, params())
    {
        router_.connectInput(Port::West, &dataIn_, nullptr, nullptr);
        for (FlowId f = 1; f <= kRoutes.size(); ++f) {
            const std::size_t o = portIndex(outOf(f));
            router_.connectOutput(outOf(f), &out_[o], &actualIn_[o],
                                  &virtualIn_[o]);
            // The whole frame: the flow may book every slot.
            router_.scheduler(outOf(f)).registerFlow(f, 64);
        }
    }

    static LoftParams
    params()
    {
        LoftParams p;
        p.frameSizeFlits = 64;
        p.quantumFlits = 1;
        p.centralBufferFlits = 256;
        p.specBufferFlits = 8;
        p.maxFlows = 8;
        p.localStatusReset = false;
        return p;
    }

    static Port outOf(FlowId f) { return kRoutes[f - 1].first; }

    bool
    admit(FlowId f, std::uint64_t q)
    {
        LookaheadFlit la;
        la.flow = f;
        la.src = 3;
        la.dst = kRoutes[f - 1].second;
        la.quantumNo = q;
        la.quantumFlits = 1;
        la.departureSlot = 8;
        return router_.admitLookahead(Port::West, la, 0, 0);
    }

    /** Put quantum @p q of flow @p f on the West wire at cycle @p at. */
    void
    deliver(FlowId f, std::uint64_t q, Cycle at)
    {
        Flit fl;
        fl.type = FlitType::HeadTail;
        fl.flow = f;
        fl.src = 3;
        fl.dst = kRoutes[f - 1].second;
        fl.quantum = q;
        fl.quantumLast = true;
        dataIn_.send(at, DataWireFlit{fl, false});
    }

    using Sent = std::pair<FlowId, std::uint64_t>;

    /** Tick at @p now; the (flow, quantum) each output sent, by port. */
    std::array<Sent, kNumPorts>
    tick(Cycle now)
    {
        router_.tick(now);
        std::array<Sent, kNumPorts> sent;
        sent.fill({kInvalidFlow, 0});
        for (std::size_t o = 0; o < kNumPorts; ++o)
            if (const auto wf = out_[o].tryReceive(now + 1))
                sent[o] = {wf->flit.flow, wf->flit.quantum};
        return sent;
    }

    Mesh2D mesh_;
    LoftDataRouter router_;
    Channel<DataWireFlit> dataIn_;
    std::array<Channel<DataWireFlit>, kNumPorts> out_;
    std::array<Channel<ActualCreditMsg>, kNumPorts> actualIn_;
    std::array<Channel<VirtualCreditMsg>, kNumPorts> virtualIn_;
};

TEST_F(CrowdedInputTest, FullInputBackPressuresAndKeepsPicksAcrossGrowth)
{
    const LoftParams p = params();
    ASSERT_EQ(p.windowSlots(), kRoutes.size() * kPerFlow);
    // North's last two quanta beat their look-aheads: they wait
    // unclaimed while the arena grows under them.
    deliver(2, 30, 0);
    deliver(2, 31, 0);
    tick(1);
    EXPECT_TRUE(router_.hasUnclaimedQuanta());

    for (std::uint64_t q = 0; q < kPerFlow; ++q)
        for (FlowId f = 1; f <= kRoutes.size(); ++f)
            ASSERT_TRUE(admit(f, q)) << "flow " << f << " quantum " << q;
    EXPECT_FALSE(admit(1, kPerFlow)) << "the table holds windowSlots()";
    EXPECT_FALSE(router_.hasUnclaimedQuanta());

    // Each output grants its flow's quanta in order, in rising slots,
    // from the same first slot.
    Slot first = 0;
    for (FlowId f = 1; f <= kRoutes.size(); ++f) {
        Slot last = 0;
        for (std::uint64_t q = 0; q < kPerFlow; ++q) {
            LookaheadFlit onward;
            bool terminal = false;
            ASSERT_TRUE(router_.schedulePending(outOf(f), 1, onward,
                                                terminal));
            EXPECT_EQ(onward.flow, f);
            EXPECT_EQ(onward.quantumNo, q);
            EXPECT_EQ(terminal, outOf(f) == Port::Local);
            if (q == 0) {
                if (f == 1)
                    first = onward.departureSlot;
                EXPECT_EQ(onward.departureSlot, first);
            } else {
                EXPECT_GT(onward.departureSlot, last);
            }
            last = onward.departureSlot;
        }
    }
    EXPECT_FALSE(router_.hasPendingQuanta());

    // Before any slot is due, North's staged quantum 30 leaves early.
    const Cycle early = 2;
    ASSERT_LT(p.slotOf(early), first);
    auto sent = tick(early);
    EXPECT_EQ(sent[portIndex(Port::North)], (Sent{2, 30}));
    for (const Port out : {Port::East, Port::South, Port::Local})
        EXPECT_EQ(sent[portIndex(out)].first, kInvalidFlow);

    // At the first slot South's quantum 0 leaves as emergent; East and
    // North forward their last quanta early past their dataless due
    // ones, and those and Local's due slot are missed.
    deliver(3, 0, early);
    deliver(1, kPerFlow - 1, early);
    sent = tick(p.slotStart(first));
    EXPECT_EQ(sent[portIndex(Port::South)], (Sent{3, 0}));
    EXPECT_EQ(sent[portIndex(Port::East)], (Sent{1, kPerFlow - 1}));
    EXPECT_EQ(sent[portIndex(Port::North)], (Sent{2, 31}));
    EXPECT_EQ(sent[portIndex(Port::Local)].first, kInvalidFlow);
    EXPECT_EQ(router_.emergentForwards(), 1u);
    EXPECT_EQ(router_.speculativeForwards(), 3u);
    EXPECT_EQ(router_.missedSlots(), 3u);
    EXPECT_EQ(router_.bufferedFlits(), 0u);

    // Four quanta left the West input's table: four more fit.
    for (std::uint64_t q = kPerFlow; q < kPerFlow + 4; ++q)
        EXPECT_TRUE(admit(1, q));
    EXPECT_FALSE(admit(1, kPerFlow + 4));
}

// ---- Advancing the output schedulers only when a frame is due -------

TEST_F(OutputChoiceTest, TickLeavesNoFrameRecycleDue)
{
    // The router advances a scheduler only once its kept recycle slot
    // is reached. After every tick no recycle may be left pending: the
    // scheduler must sit where advancing it every cycle would have.
    const LoftParams p = params();
    const OutputScheduler &sched = router_.scheduler(Port::East);
    const Cycle end = 6 * p.frameSlots() * p.quantumFlits;
    for (Cycle now = 0; now < end; ++now) {
        router_.tick(now);
        ASSERT_GT(sched.recycleDueSlot(), p.slotOf(now)) << "cycle " << now;
    }
    EXPECT_EQ(sched.headFrame(), p.slotOf(end - 1) / p.frameSlots());
}

TEST(NiAdvance, TickLeavesNoFrameRecycleDue)
{
    // The NI keeps its scheduler's recycle slot the same way; with
    // local status resets on, each recycle is followed by a reset that
    // restarts the window at the current slot.
    LoftParams p;
    p.frameSizeFlits = 32;
    p.centralBufferFlits = 32;
    p.specBufferFlits = 8;
    p.maxFlows = 4;
    LoftSourceUnit ni(0, p);
    for (Cycle now = 0; now < 6 * p.frameSlots() * p.quantumFlits;
         ++now) {
        ni.tick(now);
        ASSERT_GT(ni.scheduler().recycleDueSlot(), p.slotOf(now))
            << "cycle " << now;
    }
    EXPECT_GT(ni.scheduler().resets(), 0u);
}

// ---- Waking the co-located look-ahead router -------------------------

TEST(LookaheadWake, StagedQuantumWakesTheSleepingLookaheadRouter)
{
    // A router alone in a 1x1 mesh, recovery on, its Local ports on
    // bare wires. A data flit whose look-ahead never comes is staged
    // unclaimed; only the look-ahead router's tick re-issues that
    // look-ahead, and it has slept since the run began.
    LoftParams p;
    p.frameSizeFlits = 32;
    p.centralBufferFlits = 32;
    p.specBufferFlits = 8;
    p.maxFlows = 4;
    p.recovery = true;
    const Mesh2D mesh(1, 1);
    LoftDataRouter router(0, mesh, p);
    LookaheadRouter la(0, mesh, p, &router);
    Channel<DataWireFlit> in;
    Channel<DataWireFlit> out;
    Channel<ActualCreditMsg> actual;
    Channel<VirtualCreditMsg> virt;
    router.connectInput(Port::Local, &in, nullptr, nullptr);
    router.connectOutput(Port::Local, &out, &actual, &virt);
    router.scheduler(Port::Local).registerFlow(0, 8);
    Simulator sim;
    sim.add(&la, 0);
    sim.add(&router, 0);
    sim.addPort(&in);
    sim.run(8);

    Flit f;
    f.type = FlitType::HeadTail;
    f.flow = 0;
    f.src = 0;
    f.dst = 0;
    f.quantumLast = true;
    in.send(sim.now(), DataWireFlit{f, false});
    router.wake();
    sim.run(4 * p.lookaheadTimeout());
    EXPECT_EQ(router.lookaheadReissues(), 1u);
    EXPECT_EQ(out.inFlightCount(), 1u);
    EXPECT_FALSE(router.hasUnclaimedQuanta());
}

// ---- Recovery giving up on a quantum ---------------------------------

/** Counts the dropped flits and the look-ahead losses detected. */
class DropLog final : public NetObserver
{
  public:
    std::uint32_t flitsDropped = 0;
    std::uint32_t lookaheadDropsDetected = 0;

    void
    consume(const NetEvent &e) override
    {
        if (e.kind == NetEvent::Kind::FlitDropped)
            ++flitsDropped;
        else if (e.kind == NetEvent::Kind::FaultDetected &&
                 e.fault == FaultKind::LookaheadDrop)
            ++lookaheadDropsDetected;
    }
};

TEST(RecoveryGiveUp, UnadmittableQuantumIsDroppedAndItsCreditsReturned)
{
    // Router 0 of a 2x1 mesh, its East input on bare wires. Eight
    // claimed look-aheads fill East's input table (windowSlots() = 8)
    // and are never scheduled, so the look-ahead re-issued for a
    // quantum whose own look-ahead was lost is refused every time.
    LoftParams p;
    p.frameSizeFlits = 8;
    p.quantumFlits = 2;
    p.windowFrames = 2;
    p.centralBufferFlits = 8;
    p.specBufferFlits = 0;
    p.speculativeSwitching = false;
    p.maxFlows = 4;
    p.recovery = true;
    ASSERT_EQ(p.windowSlots(), 8u);
    const Mesh2D mesh(2, 1);
    LoftDataRouter router(0, mesh, p);
    Channel<DataWireFlit> in;
    Channel<ActualCreditMsg> actual;
    Channel<VirtualCreditMsg> virt;
    router.connectInput(Port::East, &in, &actual, &virt);
    DropLog log;
    router.setObserver(&log);

    for (std::uint64_t q = 0; q < p.windowSlots(); ++q) {
        LookaheadFlit la;
        la.flow = 1;
        la.src = 1;
        la.dst = 0;
        la.quantumNo = q;
        la.quantumFlits = p.quantumFlits;
        ASSERT_TRUE(router.admitLookahead(Port::East, la, 0, 0));
    }
    for (std::uint32_t i = 0; i < p.quantumFlits; ++i) {
        Flit f;
        f.type = i == 0 ? FlitType::Head : FlitType::Tail;
        f.flow = 2;
        f.src = 1;
        f.dst = 0;
        f.flitNo = i;
        f.quantumLast = i + 1 == p.quantumFlits;
        in.send(0, DataWireFlit{f, false});
    }
    router.tick(1);
    ASSERT_EQ(router.bufferedFlits(), 2u);
    ASSERT_TRUE(router.hasUnclaimedQuanta());

    for (Cycle now = 1; now < 40000; ++now)
        router.recoverLostLookaheads(now);
    EXPECT_FALSE(router.hasUnclaimedQuanta());
    EXPECT_EQ(log.flitsDropped, 2u);
    EXPECT_EQ(log.lookaheadDropsDetected, 1u);
    EXPECT_EQ(router.bufferedFlits(), 0u);
    EXPECT_EQ(actual.inFlightCount(), 2u);
    EXPECT_EQ(router.lookaheadReissues(), 0u);
}

} // namespace
} // namespace noc
