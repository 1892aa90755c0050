/**
 * @file
 * Unit tests for the cycle-driven run loop.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "harness/experiment.hh"
#include "net/channel.hh"
#include "sim/simulator.hh"

namespace noc
{
namespace
{

class Ticker : public Clocked
{
  public:
    void tick(Cycle now) override
    {
        lastSeen = now;
        ++ticks;
    }
    Cycle lastSeen = kNeverCycle;
    std::uint64_t ticks = 0;
};

TEST(Simulator, RunAdvancesTime)
{
    Simulator sim;
    Ticker t;
    sim.add(&t);
    sim.run(10);
    EXPECT_EQ(sim.now(), 10u);
    EXPECT_EQ(t.ticks, 10u);
    EXPECT_EQ(t.lastSeen, 9u);
}

TEST(Simulator, ComponentsTickInRegistrationOrder)
{
    Simulator sim;
    std::vector<int> order;
    class Probe : public Clocked
    {
      public:
        Probe(std::vector<int> &o, int id) : order_(o), id_(id) {}
        void tick(Cycle) override { order_.push_back(id_); }
      private:
        std::vector<int> &order_;
        int id_;
    };
    Probe a(order, 1), b(order, 2), c(order, 3);
    sim.add(&a);
    sim.add(&b);
    sim.add(&c);
    sim.run(1);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, RunUntilStopsOnPredicate)
{
    Simulator sim;
    Ticker t;
    sim.add(&t);
    const bool ok = sim.runUntil([&] { return t.ticks >= 5; }, 100);
    EXPECT_TRUE(ok);
    EXPECT_EQ(sim.now(), 5u);
}

TEST(Simulator, RunUntilTimesOut)
{
    Simulator sim;
    Ticker t;
    sim.add(&t);
    const bool ok = sim.runUntil([] { return false; }, 20);
    EXPECT_FALSE(ok);
    EXPECT_EQ(sim.now(), 20u);
}

TEST(Simulator, NullComponentPanics)
{
    Simulator sim;
    EXPECT_DEATH(sim.add(nullptr), "null component");
}

class Sleeper : public Clocked
{
  public:
    void tick(Cycle) override { ++ticks; }
    bool quiescent() const override { return asleep; }
    bool asleep = false;
    std::uint64_t ticks = 0;
};

TEST(Simulator, QuiescentComponentsAreSkipped)
{
    Simulator sim;
    Ticker t;
    Sleeper s;
    sim.add(&t);
    sim.add(&s);
    EXPECT_EQ(sim.numComponents(), 2u);

    sim.run(10);
    EXPECT_EQ(s.ticks, 10u);
    EXPECT_EQ(sim.activeComponents(), 2u);

    s.asleep = true;
    EXPECT_EQ(sim.activeComponents(), 1u);
    sim.run(10);
    EXPECT_EQ(s.ticks, 10u);  // skipped while quiescent
    EXPECT_EQ(t.ticks, 20u);  // others unaffected
    EXPECT_EQ(sim.ticksExecuted(), 30u);
    EXPECT_EQ(sim.ticksSkipped(), 10u);

    // Quiescence is re-polled every cycle: waking resumes ticking.
    s.asleep = false;
    sim.run(5);
    EXPECT_EQ(s.ticks, 15u);
}

/// ---------------------------------------------------------------
/// The event-driven walk over keyed components: only awake components
/// are probed, in index order, and a wake is served exactly when
/// polling every component would have seen the state change.
/// ---------------------------------------------------------------

/** A keyed component that sleeps while it has no work. */
class Keyed final : public Clocked
{
  public:
    void
    tick(Cycle now) override
    {
        ticked.push_back(now);
        if (work != 0)
            --work;
        if (onTick)
            onTick(now);
    }

    bool quiescent() const override { return work == 0; }

    /** Hand the component one cycle of work and wake it. */
    void
    poke()
    {
        ++work;
        wake();
    }

    std::uint32_t work = 0;
    std::vector<Cycle> ticked;
    std::function<void(Cycle)> onTick;
};

TEST(SimulatorWake, LaterIndexTicksThisCycleEarlierIndexNextCycle)
{
    Simulator sim;
    Keyed low, mid, high;
    sim.add(&low, 0);
    sim.add(&mid, 0);
    sim.add(&high, 0);
    mid.work = 3;
    mid.onTick = [&](Cycle now) {
        if (now == 2) {
            low.poke();
            high.poke();
        }
    };
    sim.run(6);
    EXPECT_EQ(mid.ticked, (std::vector<Cycle>{0, 1, 2}));
    EXPECT_EQ(high.ticked, (std::vector<Cycle>{2}));
    EXPECT_EQ(low.ticked, (std::vector<Cycle>{3}));
    // Cycle 0 probes all three; later cycles probe only the woken.
    EXPECT_EQ(sim.ticksExecuted(), 5u);
    EXPECT_EQ(sim.ticksSkipped(), 2u + 1u + 1u + 1u);
}

TEST(SimulatorWake, WakesCrossWordBoundaries)
{
    constexpr std::size_t kCount = 130; // three 64-bit words
    Simulator sim;
    std::vector<std::unique_ptr<Keyed>> parts;
    for (std::size_t i = 0; i < kCount; ++i) {
        parts.push_back(std::make_unique<Keyed>());
        sim.add(parts.back().get(), 0);
    }
    parts[70]->work = 3;
    parts[70]->onTick = [&](Cycle now) {
        if (now != 2)
            return;
        for (std::size_t i : {63, 64, 69, 71, 127, 128, 129})
            parts[i]->poke();
    };
    sim.run(6);
    for (std::size_t i : {71, 127, 128, 129})
        EXPECT_EQ(parts[i]->ticked, (std::vector<Cycle>{2})) << i;
    for (std::size_t i : {63, 64, 69})
        EXPECT_EQ(parts[i]->ticked, (std::vector<Cycle>{3})) << i;
    EXPECT_EQ(parts[70]->ticked, (std::vector<Cycle>{0, 1, 2}));
    for (std::size_t i : {0, 62, 65, 126})
        EXPECT_TRUE(parts[i]->ticked.empty()) << i;
}

TEST(SimulatorWake, MutationBetweenRunsTicksOnTheNextRunsFirstCycle)
{
    Simulator sim;
    Keyed k;
    sim.add(&k, 0);
    sim.run(5);
    EXPECT_TRUE(k.ticked.empty());
    k.work = 1; // no wake(): the next window starts with all awake
    sim.run(5);
    EXPECT_EQ(k.ticked, (std::vector<Cycle>{5}));
}

/** Sends one value at cycle @p at. */
class OneShotSender final : public Clocked
{
  public:
    OneShotSender(Channel<int> *out, Cycle at) : out_(out), at_(at) {}

    void
    tick(Cycle now) override
    {
        if (now == at_)
            out_->send(now, 1);
    }

  private:
    Channel<int> *out_;
    Cycle at_;
};

/** Logs the cycles it ticks and the cycles it receives. */
class WireReader final : public Clocked
{
  public:
    explicit WireReader(Channel<int> *in) : in_(in)
    {
        in->setReader(this, 0);
    }

    void
    tick(Cycle now) override
    {
        ticked.push_back(now);
        while (in_->tryReceive(now))
            received.push_back(now);
    }

    bool quiescent() const override { return mail() == 0; }

    std::vector<Cycle> ticked;
    std::vector<Cycle> received;

  private:
    Channel<int> *in_;
};

TEST(SimulatorWake, FlushWakesTheReaderTheCycleAfterTheSend)
{
    // Polling would find the wire non-empty from send + 1 on and tick
    // the reader every cycle until the value lands at send + latency.
    Channel<int> wire(3);
    WireReader reader(&wire);
    OneShotSender sender(&wire, 4);
    Simulator sim;
    sim.add(&reader, 0);
    sim.add(&sender, 1);
    sim.addPort(&wire);
    sim.run(12);
    EXPECT_EQ(reader.ticked, (std::vector<Cycle>{5, 6, 7}));
    EXPECT_EQ(reader.received, (std::vector<Cycle>{7}));
}

TEST(SimulatorDeathTest, RegisteredPortWithoutReaderPanics)
{
    Simulator sim;
    Channel<int> bound;
    Channel<int> unbound;
    WireReader reader(&bound);
    sim.add(&reader, 0);
    sim.addPort(&bound);
    sim.addPort(&unbound);
    EXPECT_DEATH(sim.run(1), "port 1 has no reader");
}

/// Wake bindings outlive either party: tests and benches declare the
/// network before or after its Simulator (ASan checks both orders).

RunConfig
tinyLoft()
{
    RunConfig c;
    c.kind = NetKind::Loft;
    c.meshWidth = 4;
    c.meshHeight = 4;
    c.loft.frameSizeFlits = 64;
    c.loft.centralBufferFlits = 64;
    c.loft.specBufferFlits = 8;
    c.loft.maxFlows = 16;
    c.loft.sourceQueueFlits = 32;
    return c;
}

Packet
packetFrom0To5(PacketId id)
{
    Packet p;
    p.id = id;
    p.flow = 0;
    p.src = 0;
    p.dst = 5;
    p.sizeFlits = 4;
    return p;
}

TEST(SimulatorWake, NetworkDestroyedBeforeTheSimulator)
{
    const Mesh2D mesh(4, 4);
    Simulator sim;
    {
        auto net = buildNetwork(tinyLoft(), mesh);
        net->registerFlows({FlowSpec{0, 0, 5, 1.0 / 16}});
        net->attach(sim);
        ASSERT_TRUE(net->inject(packetFrom0To5(1)));
        sim.run(50);
    }
    EXPECT_EQ(sim.now(), 50u);
}

TEST(SimulatorWake, InjectAfterTheSimulatorIsGone)
{
    const Mesh2D mesh(4, 4);
    auto net = buildNetwork(tinyLoft(), mesh);
    net->registerFlows({FlowSpec{0, 0, 5, 1.0 / 16}});
    {
        Simulator sim;
        net->attach(sim);
        ASSERT_TRUE(net->inject(packetFrom0To5(1)));
        sim.run(50);
    }
    // The source's wake() still writes into the bitset block, which
    // the components now own alone.
    EXPECT_TRUE(net->inject(packetFrom0To5(2)));
}

TEST(Simulator, RunRefusesCycleCounterOverflow)
{
    Simulator sim;
    sim.run(5);
    EXPECT_DEATH(sim.run(kNeverCycle), "overflows");
    EXPECT_DEATH(sim.runUntil([] { return false; }, kNeverCycle),
                 "overflows");
}

} // namespace
} // namespace noc
