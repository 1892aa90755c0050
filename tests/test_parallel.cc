/**
 * @file
 * Intra-run parallelism tests: the partitioned Simulator must be
 * bit-identical to the serial one for every worker count, network
 * architecture, observer configuration and fault plan; cross-domain channel
 * delivery must land at exactly send + latency regardless of the
 * partition shape; quiescent domains must wake on cross-domain
 * arrivals; GSF's time-driven frame barrier must keep its cadence when
 * its reporters are sharded. Also covers the worker-budget split and
 * the hardware-thread accounting that explained the flat sweep-level
 * speedup on single-core hosts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gsf/gsf_network.hh"
#include "harness/sweep.hh"
#include "net/channel.hh"
#include "net/observer_mux.hh"
#include "qos/allocation.hh"
#include "sim/alloc.hh"
#include "sim/phase_sanitizer.hh"
#include "sim/simulator.hh"

namespace noc
{
namespace
{

RunConfig
smallConfig(NetKind kind)
{
    RunConfig c;
    c.kind = kind;
    c.meshWidth = 4;
    c.meshHeight = 4;
    c.warmupCycles = 600;
    c.measureCycles = 1500;
    c.loft.frameSizeFlits = 64;
    c.loft.centralBufferFlits = 64;
    c.loft.specBufferFlits = 8;
    c.loft.maxFlows = 16;
    c.loft.sourceQueueFlits = 32;
    c.applyEnvScale();
    return c;
}

TrafficPattern
smallPattern()
{
    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    return p;
}

/// ---------------------------------------------------------------
/// Bit-identity matrix: {1, 2, 4, 8} intra-run workers x network
/// kind x {audit, telemetry} on/off, plus a fault plan arming every
/// class, including byte-identical telemetry exports.
/// ---------------------------------------------------------------

struct MatrixCase
{
    NetKind kind;
    bool audit;
    bool telemetry;
    bool faults = false;
};

std::string
matrixName(const MatrixCase &c)
{
    std::string name;
    switch (c.kind) {
      case NetKind::Loft:
        name = "Loft";
        break;
      case NetKind::Gsf:
        name = "Gsf";
        break;
      case NetKind::Wormhole:
        name = "Wormhole";
        break;
    }
    name += c.audit ? "_AuditOn" : "_AuditOff";
    name += c.telemetry ? "_TelemetryOn" : "_TelemetryOff";
    if (c.faults)
        name += "_AllFaults";
    return name;
}

// Without a PrintTo gtest appends the case's raw bytes, uninitialised
// padding included, to the ctest name, which then changes per run.
void
PrintTo(const MatrixCase &c, std::ostream *os)
{
    *os << matrixName(c);
}

class ParallelBitIdentity : public ::testing::TestWithParam<MatrixCase>
{
};

TEST_P(ParallelBitIdentity, AnyWorkerCountMatchesSerial)
{
    const MatrixCase p = GetParam();
    RunConfig base = smallConfig(p.kind);
    base.audit = p.audit;
    base.telemetry.enabled = p.telemetry;
    base.telemetry.epochCycles = 500;
    if (p.faults) {
        // The harness strips the LOFT-only classes on GSF/wormhole.
        base.faults.enabled = true;
        base.faults.lookaheadDropRate = 2e-3;
        base.faults.creditLossRate = 2e-3;
        base.faults.creditCorruptRate = 2e-3;
        base.faults.dataCorruptRate = 2e-3;
        base.faults.linkStallRate = 2e-3;
    }
    const TrafficPattern pattern = smallPattern();

    RunConfig serial_cfg = base;
    serial_cfg.intraRunWorkers = 1;
    const RunResult serial = runExperiment(serial_cfg, pattern, 0.15);
    ASSERT_GT(serial.totalFlits, 0u);
    if (p.faults) {
        // Every class that applies to the network fired.
        for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
            const auto kind = static_cast<FaultKind>(k);
            const bool fabric = kind == FaultKind::DataCorrupt ||
                                kind == FaultKind::LinkStall;
            if (fabric || p.kind == NetKind::Loft) {
                EXPECT_GT(serial.faultsInjected[k], 0u)
                    << faultKindName(kind);
            }
        }
    }
    const std::string want = sweepFingerprint(serial);

    for (unsigned workers : {2u, 4u, 8u}) {
        RunConfig cfg = base;
        cfg.intraRunWorkers = workers;
        const RunResult got = runExperiment(cfg, pattern, 0.15);
        EXPECT_EQ(want, sweepFingerprint(got))
            << "workers=" << workers;
        EXPECT_EQ(serial.auditHardViolations, got.auditHardViolations)
            << got.auditReport;

        ASSERT_EQ(serial.telemetry == nullptr, got.telemetry == nullptr);
        if (serial.telemetry) {
            EXPECT_EQ(serial.telemetry->timeSeriesCsv(),
                      got.telemetry->timeSeriesCsv())
                << "workers=" << workers;
            EXPECT_EQ(serial.telemetry->chromeTraceJson(),
                      got.telemetry->chromeTraceJson())
                << "workers=" << workers;
            EXPECT_EQ(serial.telemetry->heatmapCsv(),
                      got.telemetry->heatmapCsv())
                << "workers=" << workers;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ParallelBitIdentity,
    ::testing::Values(
        MatrixCase{NetKind::Loft, true, true},
        MatrixCase{NetKind::Loft, true, false},
        MatrixCase{NetKind::Loft, false, true},
        MatrixCase{NetKind::Loft, false, false},
        MatrixCase{NetKind::Gsf, true, true},
        MatrixCase{NetKind::Gsf, true, false},
        MatrixCase{NetKind::Gsf, false, false},
        MatrixCase{NetKind::Wormhole, true, true},
        MatrixCase{NetKind::Wormhole, true, false},
        MatrixCase{NetKind::Wormhole, false, false},
        MatrixCase{NetKind::Loft, true, true, true},
        MatrixCase{NetKind::Gsf, true, true, true},
        MatrixCase{NetKind::Wormhole, true, true, true}),
    [](const auto &info) { return matrixName(info.param); });

/// ---------------------------------------------------------------
/// Domain-barrier properties on bare channels: a value sent at cycle
/// t with latency L is visible at exactly t+L for every partition
/// shape, and a quiescent receiver domain wakes on the cross-domain
/// arrival.
/// ---------------------------------------------------------------

class PeriodicSender final : public Clocked
{
  public:
    PeriodicSender(Channel<int> *out, Cycle period)
        : out_(out), period_(period)
    {
    }

    void
    tick(Cycle now) override
    {
        if (now % period_ == 0)
            out_->send(now, static_cast<int>(now));
    }

  private:
    Channel<int> *out_;
    Cycle period_;
};

class LoggingReceiver final : public Clocked
{
  public:
    explicit LoggingReceiver(Channel<int> *in) : in_(in)
    {
        in->setReader(this, 0);
    }

    void
    tick(Cycle now) override
    {
        while (auto v = in_->tryReceive(now))
            log_.emplace_back(now, *v);
    }

    /** Idle with an empty input: must wake on cross-domain arrivals. */
    bool quiescent() const override { return mail() == 0; }

    const std::vector<std::pair<Cycle, int>> &log() const { return log_; }

  private:
    Channel<int> *in_;
    std::vector<std::pair<Cycle, int>> log_;
};

/** Two cross-domain sender/receiver pairs (one in each direction). */
struct ChannelRig
{
    explicit ChannelRig(Cycle latency)
        : forward(latency), backward(latency), sendA(&forward, 7),
          recvA(&forward), sendB(&backward, 11), recvB(&backward)
    {
    }

    void
    attach(Simulator &sim, unsigned workers)
    {
        // Keys 0 and 3 land in different domains for every workers > 1
        // partition of the key range {0..3}.
        sim.add(&sendA, 0);
        sim.add(&recvB, 0);
        sim.add(&sendB, 3);
        sim.add(&recvA, 3);
        sim.addPort(&forward);
        sim.addPort(&backward);
        sim.setWorkers(workers);
    }

    Channel<int> forward;
    Channel<int> backward;
    PeriodicSender sendA;
    LoggingReceiver recvA;
    PeriodicSender sendB;
    LoggingReceiver recvB;
};

class DeliveryTiming
    : public ::testing::TestWithParam<std::pair<unsigned, Cycle>>
{
};

TEST_P(DeliveryTiming, CrossDomainDeliveryAtExactlySendPlusLatency)
{
    const unsigned workers = GetParam().first;
    const Cycle latency = GetParam().second;
    constexpr Cycle kCycles = 200;

    ChannelRig rig(latency);
    Simulator sim;
    rig.attach(sim, workers);
    sim.run(kCycles);

    for (const LoggingReceiver *recv : {&rig.recvA, &rig.recvB}) {
        ASSERT_FALSE(recv->log().empty());
        for (const auto &[cycle, value] : recv->log()) {
            // Never early, never late: exactly send + latency.
            EXPECT_EQ(cycle, static_cast<Cycle>(value) + latency);
        }
    }
    // Everything deliverable by the horizon was in fact received.
    const auto expected = [&](Cycle period) {
        std::size_t n = 0;
        for (Cycle t = 0; t + latency < kCycles; t += period)
            ++n;
        return n;
    };
    EXPECT_EQ(rig.recvA.log().size(), expected(7));
    EXPECT_EQ(rig.recvB.log().size(), expected(11));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DeliveryTiming,
    ::testing::Values(std::make_pair(1u, Cycle{1}),
                      std::make_pair(2u, Cycle{1}),
                      std::make_pair(4u, Cycle{1}),
                      std::make_pair(2u, Cycle{2}),
                      std::make_pair(4u, Cycle{2}),
                      std::make_pair(4u, Cycle{3})));

TEST(DeliveryTiming, PartitionedLogMatchesSerialLog)
{
    ChannelRig serial(2);
    Simulator ssim;
    serial.attach(ssim, 1);
    ssim.run(300);

    ChannelRig parallel(2);
    Simulator psim;
    parallel.attach(psim, 4);
    psim.run(300);

    EXPECT_EQ(serial.recvA.log(), parallel.recvA.log());
    EXPECT_EQ(serial.recvB.log(), parallel.recvB.log());
}

/// ---------------------------------------------------------------
/// GSF's time-driven frame barrier: same recycle cadence whether its
/// sources/sinks run serially or sharded across domains.
/// ---------------------------------------------------------------

FlowSpec
oneHopFlow()
{
    FlowSpec f;
    f.id = 0;
    f.src = 0;
    f.dst = 5;
    f.bwShare = 1.0 / 16;
    return f;
}

std::uint64_t
gsfRecyclesAfter(unsigned workers, Cycle cycles, bool with_traffic)
{
    const RunConfig c = smallConfig(NetKind::Gsf);
    Mesh2D mesh(4, 4);
    auto net = buildNetwork(c, mesh);
    net->registerFlows({oneHopFlow()});
    Simulator sim;
    net->attach(sim);
    sim.setWorkers(workers);
    if (with_traffic) {
        Packet p;
        p.id = 1;
        p.flow = 0;
        p.src = 0;
        p.dst = 5;
        p.sizeFlits = 4;
        EXPECT_TRUE(net->inject(p));
    }
    sim.run(cycles);
    return dynamic_cast<GsfNetwork &>(*net).barrier().recycleCount();
}

TEST(GsfBarrierCadence, IdleWindowAdvancesOnScheduleWhenPartitioned)
{
    const std::uint64_t serial = gsfRecyclesAfter(1, 400, false);
    EXPECT_GT(serial, 0u);
    EXPECT_EQ(serial, gsfRecyclesAfter(2, 400, false));
    EXPECT_EQ(serial, gsfRecyclesAfter(4, 400, false));
}

TEST(GsfBarrierCadence, TrafficDelaysTheBarrierIdenticallyWhenPartitioned)
{
    const std::uint64_t serial = gsfRecyclesAfter(1, 400, true);
    EXPECT_EQ(serial, gsfRecyclesAfter(4, 400, true));
}

/// ---------------------------------------------------------------
/// A partitioned network drains back to quiescence like a serial one
/// (cross-domain arrivals wake sleeping domains along the route).
/// ---------------------------------------------------------------

TEST(ParallelQuiescence, PartitionedRunDeliversAndDrains)
{
    const RunConfig c = smallConfig(NetKind::Loft);
    Mesh2D mesh(4, 4);
    auto net = buildNetwork(c, mesh);
    net->registerFlows({oneHopFlow()});
    Simulator sim;
    net->attach(sim);
    sim.setWorkers(4);
    net->metrics().startMeasurement(0);

    Packet p;
    p.id = 1;
    p.flow = 0;
    p.src = 0;
    p.dst = 5;
    p.sizeFlits = 4;
    ASSERT_TRUE(net->inject(p));

    ASSERT_TRUE(sim.runUntil(
        [&] {
            return net->metrics().totalPackets() == 1 &&
                   net->flitsInFlight() == 0;
        },
        20000));
    EXPECT_TRUE(sim.runUntil(
        [&] { return sim.activeComponents() == 0; }, 20000));
    EXPECT_EQ(net->metrics().totalPackets(), 1u);
}

/// ---------------------------------------------------------------
/// DomainLog and its consumers on their own: records made by fake
/// domains are replayed in serial component order at the barrier.
/// ---------------------------------------------------------------

/** Run @p body as component @p component of domain @p domain would
 *  inside the partitioned phase, then return to the barrier. */
template <typename Body>
void
inDomain(int domain, std::uint32_t component, Body &&body)
{
    par::ctx().domain = domain;
    par::ctx().component = component;
    LOFT_PSAN_SET_PHASE(SimPhase::Partitioned, 1);
    body();
    par::ctx().domain = par::kDirect;
    LOFT_PSAN_SET_PHASE(SimPhase::Barrier, 1);
}

/** The smallest DomainLog consumer: records are ints, applied by
 *  appending them to a list. */
class IntLog final : public DomainLog<int>
{
  public:
    IntLog() : DomainLog("IntLog") {}

    std::vector<int> applied;

    void
    record(int v)
    {
        if (defer("record", v))
            return;
        applied.push_back(v);
    }

  private:
    void replay(const int &v) override { record(v); }
};

TEST(DomainLog, InterleavedDomainsReplayInComponentOrder)
{
    IntLog log;
    log.beginParallel(2);
    // Domain 0 runs components 0 and 2, domain 1 runs 1 and 3; the
    // domains interleave freely, each in its own component order.
    inDomain(1, 1, [&] { log.record(10); });
    inDomain(0, 0, [&] { log.record(0); });
    inDomain(1, 1, [&] { log.record(11); });
    inDomain(0, 2, [&] { log.record(20); });
    inDomain(1, 3, [&] { log.record(30); });
    inDomain(0, 2, [&] { log.record(21); });
    EXPECT_TRUE(log.applied.empty());

    log.mergeDomains();
    EXPECT_EQ(log.applied, (std::vector<int>{0, 10, 11, 20, 21, 30}));
    log.mergeDomains(); // the logs were drained
    EXPECT_EQ(log.applied.size(), 6u);
    log.endParallel();
    LOFT_PSAN_SET_PHASE(SimPhase::Idle, 1);
}

TEST(DomainLog, RecordOutsideAnyDomainAppliesAtOnce)
{
    IntLog log;
    log.record(1); // no window has opened yet
    log.beginParallel(2);
    log.record(2); // a serial prologue or epilogue component
    EXPECT_EQ(log.applied, (std::vector<int>{1, 2}));
    log.endParallel();

    // A domain context with the window closed buffers nothing either.
    par::ctx().domain = 0;
    log.record(3);
    par::ctx().domain = par::kDirect;
    EXPECT_EQ(log.applied, (std::vector<int>{1, 2, 3}));
}

TEST(DomainLog, OneDomainWindowAppliesAtOnce)
{
    // One domain (every serial run) ticks its components in serial
    // order already: a record made inside it applies at once, and the
    // merge has nothing left to replay.
    IntLog log;
    log.beginParallel(1);
    inDomain(0, 3, [&] { log.record(1); });
    EXPECT_EQ(log.applied, (std::vector<int>{1}));
    inDomain(0, 5, [&] { log.record(2); });
    log.mergeDomains();
    EXPECT_EQ(log.applied, (std::vector<int>{1, 2}));
    log.endParallel();
    LOFT_PSAN_SET_PHASE(SimPhase::Idle, 1);
}

TEST(DomainLog, SecondWindowWithTheSameBurstDoesNotAllocate)
{
    IntLog log;
    log.applied.reserve(256);
    auto window = [&] {
        log.beginParallel(2);
        for (int i = 0; i < 64; ++i)
            inDomain(i % 2, static_cast<std::uint32_t>(i),
                     [&] { log.record(i); });
        log.mergeDomains();
        log.endParallel();
    };
    window(); // grows the logs
    const std::uint64_t before = heapAllocCount();
    window();
    EXPECT_EQ(heapAllocCount() - before, 0u);
    ASSERT_EQ(log.applied.size(), 128u);
    for (int i = 0; i < 128; ++i)
        EXPECT_EQ(log.applied[static_cast<std::size_t>(i)], i % 64);
    LOFT_PSAN_SET_PHASE(SimPhase::Idle, 1);
}

TEST(DomainLog, ReservedLogTakesAFirstBurstWithoutAllocating)
{
    IntLog log;
    log.applied.reserve(64);
    log.setDeferredReserve(64);
    log.beginParallel(2);
    const std::uint64_t before = heapAllocCount();
    for (int i = 0; i < 64; ++i)
        inDomain(0, static_cast<std::uint32_t>(i), [&] { log.record(i); });
    log.mergeDomains();
    EXPECT_EQ(heapAllocCount() - before, 0u);
    EXPECT_EQ(log.applied.size(), 64u);
    log.endParallel();
    LOFT_PSAN_SET_PHASE(SimPhase::Idle, 1);
}

/** One admission or ejection reported to a GsfBarrier. */
struct FrameCall
{
    int domain;
    std::uint32_t component;
    bool admit;
    std::uint64_t frame;
    std::uint32_t flits;
};

void
applyCall(GsfBarrier &b, const FrameCall &c)
{
    if (c.admit)
        b.onPacketAdmitted(c.frame, c.flits);
    else
        b.onFlitEjected(c.frame);
}

TEST(GsfBarrierDeferred, DomainBufferedEventsMatchSerialCalls)
{
    // Per cycle, in serial component order. Components 1-2 sit in
    // domain 0 and 3-4 in domain 1.
    const std::vector<std::vector<FrameCall>> script = {
        {{0, 1, true, 0, 2}, {1, 3, true, 0, 1}, {1, 4, true, 1, 2}},
        {{0, 2, false, 0, 0}, {1, 3, false, 0, 0}},
        {{0, 2, false, 0, 0}, {1, 4, true, 1, 1}},
        {{0, 1, false, 1, 0}, {1, 4, false, 1, 0}, {1, 4, false, 1, 0}},
    };
    GsfBarrier serial(2, 3);
    GsfBarrier deferred(2, 3);
    deferred.beginParallel(2);
    std::vector<Cycle> serialAdvances;
    std::vector<Cycle> deferredAdvances;
    for (Cycle now = 0; now < 16; ++now) {
        if (now < script.size()) {
            const std::vector<FrameCall> &calls = script[now];
            for (const FrameCall &c : calls)
                applyCall(serial, c);
            // Domain 1 happens to run ahead of domain 0 this time.
            const std::uint64_t held = deferred.inFlightFlits();
            for (int d : {1, 0})
                for (const FrameCall &c : calls)
                    if (c.domain == d)
                        inDomain(d, c.component,
                                 [&] { applyCall(deferred, c); });
            EXPECT_EQ(deferred.inFlightFlits(), held) << "cycle " << now;
            deferred.mergeDomains();
        }
        EXPECT_EQ(serial.inFlightFlits(), deferred.inFlightFlits())
            << "cycle " << now;
        const std::uint64_t serialHead = serial.headFrame();
        const std::uint64_t deferredHead = deferred.headFrame();
        serial.tick(now);
        deferred.tick(now);
        if (serial.headFrame() != serialHead)
            serialAdvances.push_back(now);
        if (deferred.headFrame() != deferredHead)
            deferredAdvances.push_back(now);
    }
    EXPECT_FALSE(serialAdvances.empty());
    EXPECT_EQ(serialAdvances, deferredAdvances);
    deferred.endParallel();
    LOFT_PSAN_SET_PHASE(SimPhase::Idle, 1);
}

TEST(GsfBarrierDeferredDeathTest, BufferedEjectionFromEmptyFramePanicsAtMerge)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            GsfBarrier b(2, 3);
            b.beginParallel(2);
            inDomain(1, 4, [&] { b.onFlitEjected(0); });
            std::fputs("buffered\n", stderr);
            b.mergeDomains();
        },
        "buffered.*GsfBarrier: ejection from empty frame 0");
}

/** Records the node and flit payload of every event it consumes. */
class EventLog final : public NetObserver
{
  public:
    std::vector<std::pair<NodeId, std::uint64_t>> events;

    void consume(const NetEvent &e) override
    {
        events.emplace_back(e.node, e.flit.payload);
    }
};

/** Emit one event as component @p component of domain @p domain
 *  would inside the partitioned phase; @p node identifies it. */
void
emitFromDomain(NetObserver &obs, int domain, std::uint32_t component,
               NodeId node)
{
    Flit flit;
    flit.payload = 1000 + node;
    inDomain(domain, component, [&] {
        obs.consume({.kind = NetEvent::Kind::FlitEjected, .node = node,
                     .flit = flit, .now = 1});
    });
}

using Logged = std::vector<std::pair<NodeId, std::uint64_t>>;

TEST(ObserverMuxLog, MergeReplaysEventsInComponentOrder)
{
    EventLog sink;
    ObserverMux mux;
    mux.add(&sink);
    mux.beginParallel(2);
    // Domain 0 runs components 0 and 2, domain 1 runs 1 and 3; the
    // domains interleave freely, each in its own component order.
    emitFromDomain(mux, 1, 1, 10);
    emitFromDomain(mux, 0, 0, 0);
    emitFromDomain(mux, 1, 1, 11);
    emitFromDomain(mux, 0, 2, 20);
    emitFromDomain(mux, 1, 3, 30);
    emitFromDomain(mux, 0, 2, 21);
    EXPECT_TRUE(sink.events.empty());

    mux.mergeDomains();
    EXPECT_EQ(sink.events, (Logged{{0, 1000},
                                   {10, 1010},
                                   {11, 1011},
                                   {20, 1020},
                                   {21, 1021},
                                   {30, 1030}}));
    mux.mergeDomains(); // the buffers were drained
    EXPECT_EQ(sink.events.size(), 6u);
    mux.endParallel();
    LOFT_PSAN_SET_PHASE(SimPhase::Idle, 1);
}

TEST(ObserverMuxLog, EventOutsideAParallelWindowPassesStraightThrough)
{
    EventLog sink;
    ObserverMux mux;
    mux.add(&sink);
    mux.consume({.kind = NetEvent::Kind::FlitEjected, .node = 5});
    EXPECT_EQ(sink.events, (Logged{{5, 0}}));

    // An open window with the calling thread in no domain (a serial
    // prologue or epilogue component) still delivers directly.
    mux.beginParallel(2);
    mux.consume({.kind = NetEvent::Kind::FlitEjected, .node = 6});
    EXPECT_EQ(sink.events, (Logged{{5, 0}, {6, 0}}));
    mux.endParallel();
}

TEST(ObserverMuxLog, EndParallelDropsBufferedEvents)
{
    EventLog sink;
    ObserverMux mux;
    mux.add(&sink);
    mux.beginParallel(2);
    emitFromDomain(mux, 0, 0, 1);
    emitFromDomain(mux, 1, 1, 2);
    mux.endParallel();
    mux.mergeDomains();
    EXPECT_TRUE(sink.events.empty());
    LOFT_PSAN_SET_PHASE(SimPhase::Idle, 1);
}

/// ---------------------------------------------------------------
/// Sweep-level x intra-run composition, the worker-budget split, and
/// the hardware-thread accounting of the sweep summary.
/// ---------------------------------------------------------------

TEST(ParallelSweep, SweepThreadsComposeWithIntraRunWorkers)
{
    const TrafficPattern p = smallPattern();
    const auto factory = [&](const SweepCase &) { return p; };

    SweepConfig serial;
    serial.base = smallConfig(NetKind::Loft);
    serial.loads = {0.1};
    serial.seeds = {1, 2};
    serial.threads = 1;

    SweepConfig nested = serial;
    nested.threads = 2;
    nested.base.intraRunWorkers = 2;

    const SweepResults a = runSweep(serial, factory);
    const SweepResults b = runSweep(nested, factory);
    ASSERT_EQ(a.results.size(), 2u);
    ASSERT_EQ(b.results.size(), 2u);
    EXPECT_EQ(sweepFingerprint(a), sweepFingerprint(b));
    EXPECT_EQ(b.summary.threadsUsed, 2u);
    EXPECT_EQ(b.summary.intraRunWorkers, 2u);
}

TEST(ParallelSweep, SummaryRecordsHardwareThreads)
{
    const TrafficPattern p = smallPattern();
    SweepConfig sc;
    sc.base = smallConfig(NetKind::Wormhole);
    sc.loads = {0.05};
    sc.threads = 1;
    const SweepResults r =
        runSweep(sc, [&](const SweepCase &) { return p; });

    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    EXPECT_EQ(r.summary.hwThreads, hw);
    EXPECT_EQ(r.summary.intraRunWorkers, 1u);
}

TEST(WorkerSplit, WideSweepsKeepTheBudgetOnTheSweepAxis)
{
    const WorkerSplit s = planWorkerSplit(8, 24);
    EXPECT_EQ(s.sweepThreads, 8u);
    EXPECT_EQ(s.intraRunWorkers, 1u);
}

TEST(WorkerSplit, NarrowSweepsShiftTheSurplusIntoRuns)
{
    WorkerSplit s = planWorkerSplit(8, 2);
    EXPECT_EQ(s.sweepThreads, 2u);
    EXPECT_EQ(s.intraRunWorkers, 4u);

    s = planWorkerSplit(4, 1);
    EXPECT_EQ(s.sweepThreads, 1u);
    EXPECT_EQ(s.intraRunWorkers, 4u);

    s = planWorkerSplit(8, 3);
    EXPECT_EQ(s.sweepThreads, 3u);
    EXPECT_EQ(s.intraRunWorkers, 2u);
}

TEST(WorkerSplit, DegenerateBudgetsClampSanely)
{
    WorkerSplit s = planWorkerSplit(0, 5);
    EXPECT_EQ(s.sweepThreads, 1u);
    EXPECT_EQ(s.intraRunWorkers, 1u);

    s = planWorkerSplit(6, 0);
    EXPECT_EQ(s.sweepThreads, 1u);
    EXPECT_EQ(s.intraRunWorkers, 6u);
}

} // namespace
} // namespace noc
