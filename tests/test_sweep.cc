/**
 * @file
 * Sweep-engine tests: the cartesian expansion, and the engine's core
 * guarantee that a parallel sweep is bit-identical to a serial one —
 * metrics, telemetry exports and audit cleanliness — for all three
 * network architectures. Also covers the active-set scheduler the
 * engine's throughput rests on: idle networks must go fully quiescent
 * (GSF excepted: its frame barrier is time-driven) and wake back up
 * for traffic, and seeded runs tick a pinned set of components.
 */

#include <gtest/gtest.h>

#include "harness/sweep.hh"
#include "qos/allocation.hh"
#include "traffic/generator.hh"

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
    c.warmupCycles = 1000;
    c.measureCycles = 2500;
    c.loft.frameSizeFlits = 64;
    c.loft.centralBufferFlits = 64;
    c.loft.specBufferFlits = 8;
    c.loft.maxFlows = 16;
    c.loft.sourceQueueFlits = 32;
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
/// Expansion.
/// ---------------------------------------------------------------

TEST(SweepExpansion, CartesianProductInSubmissionOrder)
{
    SweepConfig sc;
    sc.base = smallConfig(NetKind::Loft);
    sc.kinds = {NetKind::Loft, NetKind::Wormhole};
    sc.loads = {0.1, 0.2};
    sc.seeds = {7, 8};
    sc.overrides.push_back({"spec=0", [](RunConfig &c) {
                                c.loft.specBufferFlits = 0;
                            }});
    sc.overrides.push_back({"spec=8", nullptr});

    const std::vector<SweepCase> cases = expandSweep(sc);
    ASSERT_EQ(cases.size(), 16u);
    // Kinds outermost, then overrides, loads, seeds innermost.
    EXPECT_EQ(cases[0].kind, NetKind::Loft);
    EXPECT_EQ(cases[0].overrideLabel, "spec=0");
    EXPECT_EQ(cases[0].load, 0.1);
    EXPECT_EQ(cases[0].seed, 7u);
    EXPECT_EQ(cases[1].seed, 8u);
    EXPECT_EQ(cases[2].load, 0.2);
    EXPECT_EQ(cases[4].overrideLabel, "spec=8");
    EXPECT_EQ(cases[8].kind, NetKind::Wormhole);
    for (std::size_t i = 0; i < cases.size(); ++i) {
        EXPECT_EQ(cases[i].index, i);
        EXPECT_EQ(cases[i].config.kind, cases[i].kind);
        EXPECT_EQ(cases[i].config.seed, cases[i].seed);
    }
    // The override mutated the resolved config of its cases only.
    EXPECT_EQ(cases[0].config.loft.specBufferFlits, 0u);
    EXPECT_EQ(cases[4].config.loft.specBufferFlits, 8u);
}

TEST(SweepExpansion, EmptyAxesCollapseToTheBaseConfig)
{
    SweepConfig sc;
    sc.base = smallConfig(NetKind::Gsf);
    sc.base.seed = 99;
    const std::vector<SweepCase> cases = expandSweep(sc);
    ASSERT_EQ(cases.size(), 1u);
    EXPECT_EQ(cases[0].kind, NetKind::Gsf);
    EXPECT_EQ(cases[0].seed, 99u);
    EXPECT_EQ(cases[0].load, 0.0);
    EXPECT_EQ(cases[0].overrideLabel, "");
}

/// ---------------------------------------------------------------
/// Parallel == serial, bit for bit, per network architecture.
/// ---------------------------------------------------------------

SweepConfig
identitySweep(NetKind kind, unsigned threads)
{
    SweepConfig sc;
    sc.base = smallConfig(kind);
    sc.base.telemetry.enabled = true;
    sc.base.telemetry.epochCycles = 500;
    sc.loads = {0.05, 0.1, 0.2};
    sc.seeds = {1, 2, 3};
    sc.threads = threads;
    return sc;
}

class ParallelIdentity : public ::testing::TestWithParam<NetKind>
{
};

TEST_P(ParallelIdentity, ParallelSweepIsBitIdenticalToSerial)
{
    const TrafficPattern p = smallPattern();
    const auto factory = [&](const SweepCase &) { return p; };

    const SweepResults serial =
        runSweep(identitySweep(GetParam(), 1), factory);
    const SweepResults parallel =
        runSweep(identitySweep(GetParam(), 4), factory);

    ASSERT_EQ(serial.results.size(), 9u);
    ASSERT_EQ(parallel.results.size(), 9u);
    EXPECT_EQ(serial.summary.threadsUsed, 1u);
    EXPECT_EQ(parallel.summary.threadsUsed, 4u);

    // Metrics, bit for bit (hexfloat), across the whole sweep.
    EXPECT_EQ(sweepFingerprint(serial), sweepFingerprint(parallel));

    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        const RunResult &a = serial.results[i];
        const RunResult &b = parallel.results[i];
        EXPECT_GT(a.totalFlits, 0u) << "case " << i;

        // Audit cleanliness, in both execution modes.
        EXPECT_EQ(a.auditHardViolations, 0u) << a.auditReport;
        EXPECT_EQ(b.auditHardViolations, 0u) << b.auditReport;
        EXPECT_EQ(a.auditWatchdogs, 0u) << a.auditReport;
        EXPECT_EQ(b.auditWatchdogs, 0u) << b.auditReport;

        // Telemetry exports, byte for byte.
        ASSERT_TRUE(a.telemetry && b.telemetry);
        EXPECT_EQ(a.telemetry->timeSeriesCsv(),
                  b.telemetry->timeSeriesCsv());
        EXPECT_EQ(a.telemetry->chromeTraceJson(),
                  b.telemetry->chromeTraceJson());
        EXPECT_EQ(a.telemetry->heatmapCsv(), b.telemetry->heatmapCsv());
    }
}

INSTANTIATE_TEST_SUITE_P(Networks, ParallelIdentity,
                         ::testing::Values(NetKind::Loft, NetKind::Gsf,
                                           NetKind::Wormhole));

/// ---------------------------------------------------------------
/// Quiescence: idle networks sleep, traffic wakes them, drained
/// networks go back to sleep.
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

Packet
onePacket()
{
    Packet p;
    p.id = 1;
    p.flow = 0;
    p.src = 0;
    p.dst = 5;
    p.sizeFlits = 4;
    return p;
}

TEST(Quiescence, IdleLoftNetworkIsFullyQuiescent)
{
    const RunConfig c = smallConfig(NetKind::Loft);
    Mesh2D mesh(4, 4);
    auto net = buildNetwork(c, mesh);
    net->registerFlows({oneHopFlow()});
    Simulator sim;
    net->attach(sim);

    EXPECT_EQ(sim.activeComponents(), 0u);
    sim.run(200);
    EXPECT_EQ(sim.ticksExecuted(), 0u);
    // Each component is probed once at the start of the window, found
    // quiescent and put to sleep; nothing wakes it again.
    EXPECT_EQ(sim.ticksSkipped(), sim.numComponents());
}

TEST(Quiescence, IdleGsfKeepsOnlyTheFrameBarrierActive)
{
    // GSF's barrier advances the frame window on a timer even with an
    // empty network (source quotas replenish on those advances), so
    // it must never be skipped.
    const RunConfig c = smallConfig(NetKind::Gsf);
    Mesh2D mesh(4, 4);
    auto net = buildNetwork(c, mesh);
    net->registerFlows({oneHopFlow()});
    Simulator sim;
    net->attach(sim);

    EXPECT_EQ(sim.activeComponents(), 1u);
    sim.run(200);
    EXPECT_EQ(sim.ticksExecuted(), 200u);
}

class DrainsBackToQuiescence : public ::testing::TestWithParam<NetKind>
{
};

TEST_P(DrainsBackToQuiescence, AfterDeliveringAPacket)
{
    const RunConfig c = smallConfig(GetParam());
    Mesh2D mesh(4, 4);
    auto net = buildNetwork(c, mesh);
    net->registerFlows({oneHopFlow()});
    Simulator sim;
    net->attach(sim);
    net->metrics().startMeasurement(0);

    ASSERT_TRUE(net->inject(onePacket()));
    EXPECT_GT(sim.activeComponents(), 0u);

    ASSERT_TRUE(sim.runUntil(
        [&] {
            return net->metrics().totalPackets() == 1 &&
                   net->flitsInFlight() == 0;
        },
        20000));

    // LOFT needs a few idle cycles more: the schedulers go quiescent
    // only after their local status reset has run.
    const std::size_t floor = GetParam() == NetKind::Gsf ? 1u : 0u;
    EXPECT_TRUE(sim.runUntil(
        [&] { return sim.activeComponents() == floor; }, 20000));
    EXPECT_EQ(net->metrics().totalPackets(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Networks, DrainsBackToQuiescence,
                         ::testing::Values(NetKind::Loft, NetKind::Gsf,
                                           NetKind::Wormhole));

/// ---------------------------------------------------------------
/// The tick set. Which components tick, and how often a woken one is
/// probed, is not in any fingerprint; these pins make a kernel or
/// component change that alters it show, even when every simulated
/// metric stays the same. Update them only for a change meant to
/// alter the tick set, and say so where the change is recorded.
/// ---------------------------------------------------------------

struct TickCounts
{
    std::uint64_t executed = 0;
    std::uint64_t skipped = 0;
};

/** Seeded 8x8 run in two windows (each restarts with all awake). */
TickCounts
countTicks(NetKind kind, TrafficPattern pattern, double rate)
{
    RunConfig c;
    c.kind = kind;
    c.meshWidth = 8;
    c.meshHeight = 8;
    c.seed = 5;
    Mesh2D mesh(8, 8);
    setEqualSharesByMaxFlows(pattern.flows, c.loft.maxFlows);
    auto net = buildNetwork(c, mesh);
    net->registerFlows(pattern.flows);
    TrafficGenerator gen(*net, c.packetSizeFlits, c.seed);
    gen.configure(pattern.flows,
                  uniformRates(pattern.flows.size(), rate));
    Simulator sim;
    sim.add(&gen);
    net->attach(sim);
    sim.run(500);
    sim.run(1500);
    return {sim.ticksExecuted(), sim.ticksSkipped()};
}

TEST(TickSet, LoftUniformIsPinned)
{
    const TickCounts t =
        countTicks(NetKind::Loft, uniformPattern(Mesh2D(8, 8)), 0.1);
    EXPECT_EQ(t.executed, 213455u);
    EXPECT_EQ(t.skipped, 18461u);
}

TEST(TickSet, LoftNeighborIsPinned)
{
    const TickCounts t =
        countTicks(NetKind::Loft, neighborPattern(Mesh2D(8, 8)), 0.05);
    EXPECT_EQ(t.executed, 62715u);
    EXPECT_EQ(t.skipped, 8840u);
}

TEST(TickSet, GsfUniformIsPinned)
{
    const TickCounts t =
        countTicks(NetKind::Gsf, uniformPattern(Mesh2D(8, 8)), 0.1);
    EXPECT_EQ(t.executed, 140791u);
    EXPECT_EQ(t.skipped, 13920u);
}

TEST(TickSet, WormholeUniformIsPinned)
{
    const TickCounts t =
        countTicks(NetKind::Wormhole, uniformPattern(Mesh2D(8, 8)), 0.1);
    EXPECT_EQ(t.executed, 138876u);
    EXPECT_EQ(t.skipped, 14194u);
}

} // namespace
} // namespace noc
