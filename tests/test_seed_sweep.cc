/**
 * @file
 * Parameterized robustness sweeps: the QoS properties must hold for
 * any RNG seed and across frame/quantum configurations, not just the
 * defaults the benches use.
 */

#include <gtest/gtest.h>

#include <ios>
#include <sstream>

#include "harness/experiment.hh"
#include "qos/allocation.hh"

namespace noc
{
namespace
{

RunConfig
miniLoft(std::uint64_t seed)
{
    RunConfig c;
    c.kind = NetKind::Loft;
    c.meshWidth = 4;
    c.meshHeight = 4;
    c.warmupCycles = 1500;
    c.measureCycles = 4000;
    c.seed = seed;
    c.loft.frameSizeFlits = 64;
    c.loft.centralBufferFlits = 64;
    c.loft.specBufferFlits = 8;
    c.loft.maxFlows = 16;
    c.loft.sourceQueueFlits = 32;
    return c;
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedSweep, HotspotFairnessHoldsForAnySeed)
{
    Mesh2D mesh(4, 4);
    TrafficPattern p = hotspotPattern(mesh, 15);
    setEqualSharesByMaxFlows(p.flows, 16);
    const RunResult r =
        runExperiment(miniLoft(GetParam()), p, 0.5);
    const FairnessSummary s = summarizeFairness(r.flowThroughput);
    EXPECT_NEAR(s.avg, 1.0 / 16, 0.01) << "seed " << GetParam();
    EXPECT_LT(s.rsd, 0.08) << "seed " << GetParam();
    EXPECT_EQ(r.anomalyViolations, 0u);
}

TEST_P(SeedSweep, UniformDeliversOfferedLoadBelowSaturation)
{
    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    const RunResult r =
        runExperiment(miniLoft(GetParam()), p, 0.08);
    EXPECT_NEAR(r.networkThroughput, 0.08, 0.02)
        << "seed " << GetParam();
    EXPECT_EQ(r.anomalyViolations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 7u, 42u, 1234u,
                                           0xdeadbeefu));

struct FrameCase
{
    std::uint32_t frameFlits;
    std::uint32_t windowFrames;
    std::uint32_t quantumFlits;
};

// Without a PrintTo gtest names each case by its raw bytes.
void
PrintTo(const FrameCase &fc, std::ostream *os)
{
    *os << "F" << fc.frameFlits << " WF" << fc.windowFrames << " q"
        << fc.quantumFlits;
}

class FrameSweep : public ::testing::TestWithParam<FrameCase>
{
};

TEST_P(FrameSweep, IsolationHoldsAcrossFrameGeometries)
{
    const FrameCase fc = GetParam();
    RunConfig c = miniLoft(3);
    c.loft.frameSizeFlits = fc.frameFlits;
    c.loft.centralBufferFlits = fc.frameFlits;
    c.loft.windowFrames = fc.windowFrames;
    c.loft.quantumFlits = fc.quantumFlits;

    Mesh2D mesh(4, 4);
    TrafficPattern p = pathologicalPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    const RunResult r = runExperiment(c, p, 0.8);
    double stripped = 0.0;
    for (std::size_t i = 0; i < p.flows.size(); ++i) {
        if (p.groups[i] == 1)
            stripped = r.flowThroughput[i];
    }
    // The uncontended flow keeps the bulk of its offered rate under
    // every geometry; exact value varies with slot granularity.
    EXPECT_GT(stripped, 0.5)
        << "F=" << fc.frameFlits << " WF=" << fc.windowFrames
        << " Q=" << fc.quantumFlits;
    EXPECT_EQ(r.anomalyViolations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FrameSweep,
    ::testing::Values(FrameCase{64, 2, 2}, FrameCase{64, 4, 2},
                      FrameCase{128, 2, 2}, FrameCase{64, 2, 1},
                      FrameCase{128, 2, 4}));

/// ---------------------------------------------------------------
/// Determinism: the simulator must be a pure function of its seed.
/// ---------------------------------------------------------------

/** Serialize every metric of a run, bit-exact (hexfloat). */
std::string
fingerprint(const RunResult &r)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << r.avgPacketLatency << " " << r.maxPacketLatency << " "
       << r.p50PacketLatency << " " << r.p95PacketLatency << " "
       << r.p99PacketLatency << " " << r.networkThroughput << " "
       << r.totalFlits << " " << r.totalPackets << " "
       << r.localResets << " " << r.speculativeForwards << " "
       << r.emergentForwards << " " << r.missedSlots << "\n";
    for (double v : r.flowThroughput)
        os << v << " ";
    for (double v : r.flowAvgLatency)
        os << v << " ";
    for (double v : r.flowMaxLatency)
        os << v << " ";
    for (double v : r.linkUtilization)
        os << v << " ";
    return os.str();
}

RunResult
determinismRun(std::uint64_t seed)
{
    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    return runExperiment(miniLoft(seed), p, 0.2);
}

TEST(Determinism, SameSeedReproducesBitIdenticalMetrics)
{
    const std::string a = fingerprint(determinismRun(42));
    const std::string b = fingerprint(determinismRun(42));
    EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsProduceDifferentRuns)
{
    const std::string a = fingerprint(determinismRun(1));
    const std::string b = fingerprint(determinismRun(2));
    EXPECT_NE(a, b);
}

RunResult
telemetryDeterminismRun(std::uint64_t seed)
{
    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    RunConfig c = miniLoft(seed);
    c.telemetry.enabled = true;
    c.telemetry.epochCycles = 500;
    return runExperiment(c, p, 0.2);
}

TEST(Determinism, TelemetryExportsAreByteIdenticalForSameSeed)
{
    const RunResult a = telemetryDeterminismRun(42);
    const RunResult b = telemetryDeterminismRun(42);
    ASSERT_NE(a.telemetry, nullptr);
    ASSERT_NE(b.telemetry, nullptr);
    EXPECT_EQ(a.telemetry->timeSeriesCsv(), b.telemetry->timeSeriesCsv());
    EXPECT_EQ(a.telemetry->chromeTraceJson(),
              b.telemetry->chromeTraceJson());
    EXPECT_EQ(a.telemetry->heatmapCsv(), b.telemetry->heatmapCsv());
}

TEST(Determinism, InertFaultPlanDoesNotPerturbTheRun)
{
    // An inactive FaultPlan must leave the run bit-identical to one
    // where the fault subsystem does not exist at all: no injector is
    // built, channels stay plain, and every metric matches.
    const std::string bare = fingerprint(determinismRun(42));

    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);

    RunConfig enabled_no_rates = miniLoft(42);
    enabled_no_rates.faults.enabled = true; // all rates zero
    EXPECT_EQ(bare,
              fingerprint(runExperiment(enabled_no_rates, p, 0.2)));

    RunConfig rates_no_enable = miniLoft(42);
    rates_no_enable.faults.linkStallRate = 1e-3; // master switch off
    EXPECT_EQ(bare,
              fingerprint(runExperiment(rates_no_enable, p, 0.2)));
}

TEST(Determinism, TelemetryObservationDoesNotPerturbTheRun)
{
    // The fingerprint of an instrumented run matches the bare run's:
    // attaching the collector must not change a single metric.
    const std::string bare = fingerprint(determinismRun(42));
    const std::string instrumented =
        fingerprint(telemetryDeterminismRun(42));
    EXPECT_EQ(bare, instrumented);
}

RunResult
tracedDeterminismRun(std::uint64_t seed, unsigned workers)
{
    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    RunConfig c = miniLoft(seed);
    c.trace.enabled = true;
    c.trace.sampleRate = 1.0;
    c.intraRunWorkers = workers;
    return runExperiment(c, p, 0.2);
}

TEST(Determinism, TracingObservationDoesNotPerturbTheRun)
{
    // Tracing is passive: with the collector attached, every metric —
    // and therefore the sweep fingerprint — is bit-identical to the
    // untraced run.
    const std::string bare = fingerprint(determinismRun(42));
    const std::string traced =
        fingerprint(tracedDeterminismRun(42, 1));
    EXPECT_EQ(bare, traced);
}

TEST(Determinism, TraceDumpsAreByteIdenticalAcrossWorkerCounts)
{
    // The collector sits downstream of the DeferredObserver merge, so
    // a spatially partitioned run feeds it the exact serial event
    // order: dumps and span exports match a serial run byte for byte.
    const RunResult serial = tracedDeterminismRun(42, 1);
    const RunResult partitioned = tracedDeterminismRun(42, 4);
    ASSERT_NE(serial.trace, nullptr);
    ASSERT_NE(partitioned.trace, nullptr);
    EXPECT_EQ(serial.trace->dumpJson("test", 5500),
              partitioned.trace->dumpJson("test", 5500));
    EXPECT_EQ(chromeTraceJson(serial.trace->spanWriter(), 4, 4),
              chromeTraceJson(partitioned.trace->spanWriter(), 4, 4));
    EXPECT_EQ(fingerprint(serial), fingerprint(partitioned));
}

} // namespace
} // namespace noc
