/**
 * @file
 * Tests for the causal trace collector (src/trace): exact stage
 * decomposition on all three NetKinds, blame attribution, dump
 * determinism, summary consolidation, the flight recorder, the
 * end-of-run dump file, a finished collector, and pinned hashes of
 * every trace and telemetry export.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "qos/allocation.hh"
#include "traffic/generator.hh"
#include "traffic/pattern.hh"

namespace noc
{
namespace
{

RunConfig
tracedConfig(NetKind kind, std::uint64_t seed = 42)
{
    RunConfig c;
    c.kind = kind;
    c.meshWidth = 4;
    c.meshHeight = 4;
    c.warmupCycles = 500;
    c.measureCycles = 2500;
    c.seed = seed;
    c.loft.frameSizeFlits = 64;
    c.loft.centralBufferFlits = 64;
    c.loft.specBufferFlits = 8;
    c.loft.maxFlows = 16;
    c.loft.sourceQueueFlits = 32;
    c.gsf.frameSizeFlits = 200;
    c.gsf.sourceQueueFlits = 200;
    c.trace.enabled = true;
    c.trace.sampleRate = 1.0; // every packet becomes an exemplar
    return c;
}

TrafficPattern
flows(const Mesh2D &mesh)
{
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    return p;
}

class TraceKinds : public ::testing::TestWithParam<NetKind>
{
};

TEST_P(TraceKinds, StageDecompositionSumsExactly)
{
    Mesh2D mesh(4, 4);
    const RunResult r =
        runExperiment(tracedConfig(GetParam()), flows(mesh), 0.15);
    ASSERT_NE(r.trace, nullptr);
    const TraceSummary &s = r.traceSummary;
    ASSERT_TRUE(s.enabled);
    EXPECT_GT(s.packetsTraced, 0u);
    // Every traced packet's stages summed EXACTLY to its measured
    // latency; a single off-by-one anywhere trips this.
    EXPECT_EQ(s.decompositionMismatches, 0u);
    // ... so the aggregate identity holds too: additive stages minus
    // the speculative savings equal the summed end-to-end latency.
    std::uint64_t additive = 0;
    for (std::size_t i = 0; i < kNumTraceStages; ++i) {
        if (static_cast<TraceStage>(i) != TraceStage::SpecSavings)
            additive += s.stageCycles[i];
    }
    EXPECT_EQ(additive -
                  s.stageCycles[static_cast<std::size_t>(
                      TraceStage::SpecSavings)],
              s.totalLatencyCycles);
    // sampleRate = 1.0: every delivered packet was sampled.
    EXPECT_EQ(s.packetsSampled, s.packetsTraced);
}

TEST_P(TraceKinds, DumpJsonIsWellFormedAndDeterministic)
{
    Mesh2D mesh(4, 4);
    const RunConfig c = tracedConfig(GetParam());
    const RunResult a = runExperiment(c, flows(mesh), 0.15);
    const RunResult b = runExperiment(c, flows(mesh), 0.15);
    ASSERT_NE(a.trace, nullptr);
    ASSERT_NE(b.trace, nullptr);
    const std::string da = a.trace->dumpJson("test", 3000);
    EXPECT_EQ(da, b.trace->dumpJson("test", 3000));
    EXPECT_NE(da.find("\"schema\":\"loft-trace-dump/1\""),
              std::string::npos);
    EXPECT_NE(da.find("\"exemplars\":["), std::string::npos);
    EXPECT_NE(da.find("\"flight\":["), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Kinds, TraceKinds,
                         ::testing::Values(NetKind::Loft, NetKind::Gsf,
                                           NetKind::Wormhole));

TEST(Tracing, LoftUsesReservationStages)
{
    Mesh2D mesh(4, 4);
    const RunResult r = runExperiment(tracedConfig(NetKind::Loft),
                                      flows(mesh), 0.15);
    const TraceSummary &s = r.traceSummary;
    // LOFT decisions come from the look-ahead protocol: the NI grant
    // splits the source wait, and hop residency is not all "stall".
    EXPECT_GT(s.stageCycles[static_cast<std::size_t>(
                  TraceStage::SrcReservation)] +
                  s.stageCycles[static_cast<std::size_t>(
                      TraceStage::ReservationWait)] +
                  s.stageCycles[static_cast<std::size_t>(
                      TraceStage::SpecSavings)],
              0u);
    EXPECT_GT(s.stageCycles[static_cast<std::size_t>(TraceStage::Link)],
              0u);
}

TEST(Tracing, ContentionProducesBlame)
{
    Mesh2D mesh(4, 4);
    TrafficPattern p = hotspotPattern(mesh, 15);
    setEqualSharesByMaxFlows(p.flows, 16);
    const RunResult r = runExperiment(
        tracedConfig(NetKind::Wormhole), p, 0.4);
    const TraceSummary &s = r.traceSummary;
    // 15 flows hammering one sink: stall cycles exist and most are
    // attributable to a specific competing flow.
    EXPECT_GT(s.blameAttributed, 0u);
    ASSERT_FALSE(s.topInterference.empty());
    const TraceInterference &top = s.topInterference.front();
    EXPECT_NE(top.victim, top.aggressor);
    EXPECT_GT(top.cycles, 0u);
    // Descending order.
    for (std::size_t i = 1; i < s.topInterference.size(); ++i)
        EXPECT_GE(s.topInterference[i - 1].cycles,
                  s.topInterference[i].cycles);
}

TEST(Tracing, SamplingBoundsExemplarsButNotAggregates)
{
    Mesh2D mesh(4, 4);
    RunConfig c = tracedConfig(NetKind::Loft);
    c.trace.sampleRate = 0.0;
    c.trace.tailExemplars = 4;
    const RunResult r = runExperiment(c, flows(mesh), 0.15);
    const TraceSummary &s = r.traceSummary;
    EXPECT_GT(s.packetsTraced, 0u);   // aggregates cover every packet
    EXPECT_EQ(s.packetsSampled, 0u);  // no sampled exemplars
    EXPECT_EQ(s.decompositionMismatches, 0u);
    // Only the tail set remains in the dump.
    const std::string dump = r.trace->dumpJson("test", 3000);
    EXPECT_NE(dump.find("\"tail\":true"), std::string::npos);
    EXPECT_EQ(dump.find("\"tail\":false"), std::string::npos);
}

TEST(Tracing, MergeTraceSummariesIsAdditive)
{
    TraceSummary a;
    a.enabled = true;
    a.packetsTraced = 3;
    a.totalLatencyCycles = 30;
    a.stageCycles[0] = 30;
    a.blameAttributed = 5;
    a.topInterference.push_back(TraceInterference{1, 2, 5});
    TraceSummary b = a;
    b.packetsTraced = 2;
    b.topInterference.push_back(TraceInterference{1, 3, 9});

    const TraceSummary m = mergeTraceSummaries({a, b});
    EXPECT_TRUE(m.enabled);
    EXPECT_EQ(m.packetsTraced, 5u);
    EXPECT_EQ(m.totalLatencyCycles, 60u);
    EXPECT_EQ(m.stageCycles[0], 60u);
    EXPECT_EQ(m.blameAttributed, 10u);
    ASSERT_EQ(m.topInterference.size(), 2u);
    EXPECT_EQ(m.topInterference[0].cycles, 10u); // 1<-2: 5+5
    EXPECT_EQ(m.topInterference[1].cycles, 9u);  // 1<-3: once

    const TraceSummary none = mergeTraceSummaries({});
    EXPECT_FALSE(none.enabled);
}

TEST(Tracing, DisabledConfigAttachesNoCollector)
{
    Mesh2D mesh(4, 4);
    RunConfig c = tracedConfig(NetKind::Loft);
    c.trace.enabled = false;
    const RunResult r = runExperiment(c, flows(mesh), 0.15);
    EXPECT_EQ(r.trace, nullptr);
    EXPECT_FALSE(r.traceSummary.enabled);
}

TEST(Tracing, SweepConsolidationMergesTracedCases)
{
    SweepConfig sc;
    sc.base = tracedConfig(NetKind::Loft);
    sc.seeds = {1, 2};
    sc.loads = {0.15};
    const SweepResults res = runSweep(sc, [](const SweepCase &c) {
        Mesh2D mesh(c.config.meshWidth, c.config.meshHeight);
        return runExperiment(c.config, flows(mesh), c.load);
    });
    ASSERT_EQ(res.results.size(), 2u);
    const TraceSummary m = consolidateTraceSummaries(res);
    EXPECT_TRUE(m.enabled);
    EXPECT_EQ(m.packetsTraced,
              res.results[0].traceSummary.packetsTraced +
                  res.results[1].traceSummary.packetsTraced);
    EXPECT_EQ(m.decompositionMismatches, 0u);
}

TEST(Tracing, SpanExportMergesWithTelemetry)
{
    Mesh2D mesh(4, 4);
    RunConfig c = tracedConfig(NetKind::Loft);
    c.telemetry.enabled = true;
    c.telemetry.epochCycles = 500;
    const RunResult r = runExperiment(c, flows(mesh), 0.15);
    ASSERT_NE(r.telemetry, nullptr);
    ASSERT_NE(r.trace, nullptr);
    EXPECT_GT(r.trace->spanWriter().size(), 0u);
    const std::string merged = chromeTraceJson(
        {&r.telemetry->traceWriter(), &r.trace->spanWriter()},
        c.meshWidth, c.meshHeight);
    // One loadable document containing both processes.
    EXPECT_NE(merged.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(merged.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(merged.find("\"pid\":2"), std::string::npos);
    EXPECT_NE(merged.find("\"cat\":\"stage\""), std::string::npos);
}

TEST(Tracing, FinishedCollectorIgnoresLateEvents)
{
    TraceConfig cfg;
    cfg.sampleRate = 1.0;
    TraceCollector tc(Mesh2D(2, 2), cfg, "wormhole", 0, 0);
    Packet pkt;
    pkt.id = 9;
    pkt.flow = 1;
    pkt.src = 0;
    pkt.dst = 1;
    Flit head;
    head.type = FlitType::HeadTail;
    head.packet = 9;
    head.flow = 1;
    tc.consume({.kind = NetEvent::Kind::PacketAccepted, .node = 0,
                .pkt = pkt, .now = 1});
    tc.consume({.kind = NetEvent::Kind::FlitSourced, .node = 0,
                .flit = head, .now = 2});
    tc.finish(3);
    const std::string dump = tc.dumpJson("test", 3);

    // The packet in flight at finish() was let go with the blame rings,
    // so its delivery and a forward through a ring's lane are ignored.
    tc.consume({.kind = NetEvent::Kind::FlitForwarded, .node = 0,
                .port = Port::East, .flit = head, .now = 4});
    tc.consume({.kind = NetEvent::Kind::FlitEjected, .node = 1,
                .flit = head, .now = 5});
    tc.consume({.kind = NetEvent::Kind::PacketDelivered, .node = 1,
                .flow = 1, .packet = 9, .now = 6});
    EXPECT_EQ(tc.packetsTraced(), 0u);
    EXPECT_EQ(tc.dumpJson("test", 3), dump);
    // Track names only: nothing was sampled before finish().
    EXPECT_EQ(tc.spanWriter().size(), 5u);
}

TEST(Tracing, DumpDirGetsOneEndOfRunBlameDump)
{
    const std::string dir = ::testing::TempDir() + "/loft_trace_blame_dump";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    RunConfig c = tracedConfig(NetKind::Loft);
    c.trace.dumpDir = dir;
    const RunResult r = runExperiment(c, flows(Mesh2D(4, 4)), 0.15);
    ASSERT_NE(r.trace, nullptr);

    const Cycle end = c.warmupCycles + c.measureCycles;
    std::ifstream in(dir + "/trace_blame.json", std::ios::binary);
    std::ostringstream written;
    written << in.rdbuf();
    EXPECT_EQ(written.str(), r.trace->dumpJson("blame", end));
    // finish() already dumped this reason; a second dump writes nothing.
    EXPECT_EQ(r.trace->dumpToFile("blame", end), "");
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                            std::filesystem::directory_iterator()),
              1);
    std::filesystem::remove_all(dir);
}

// ---- Every observer export, pinned -----------------------------------

/** 64-bit FNV-1a of @p text, as 16 hex digits. */
std::string
fnv1aHex(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Hashes of every export of one finished traced, telemetered run. */
struct ExportHashes
{
    std::string timeSeries, heatmap, telemetryTrace, dump, spans;
    std::uint64_t spansDropped = 0;
};

/**
 * A seeded 8x8 Fig. 12 DoS run of @p kind (victim at 0.2, aggressors
 * at 0.8) with trace and telemetry on: 3000 cycles, 500-cycle epochs.
 */
ExportHashes
dosExportHashes(NetKind kind, bool trace_packets,
                std::size_t max_span_events = 100000)
{
    RunConfig c;
    c.kind = kind;
    c.meshWidth = 8;
    c.meshHeight = 8;
    c.warmupCycles = 500;
    c.measureCycles = 2500;
    c.seed = 5;
    c.loft.specBufferFlits = 12;
    c.telemetry.enabled = true;
    c.telemetry.epochCycles = 500;
    c.telemetry.tracePackets = trace_packets;
    c.trace.enabled = true;
    c.trace.sampleRate = 0.05;
    c.trace.maxSpanEvents = max_span_events;
    std::vector<FlowRate> rates(3);
    rates[0].flitsPerCycle = 0.2;
    rates[0].process = InjectionProcess::Periodic;
    rates[1].flitsPerCycle = 0.8;
    rates[2].flitsPerCycle = 0.8;
    const RunResult r = runExperiment(c, dosPattern(Mesh2D(8, 8)), rates);
    EXPECT_NE(r.telemetry, nullptr);
    EXPECT_NE(r.trace, nullptr);
    if (!r.telemetry || !r.trace)
        return {};
    ExportHashes h;
    h.timeSeries = fnv1aHex(r.telemetry->timeSeriesCsv());
    h.heatmap = fnv1aHex(r.telemetry->heatmapCsv());
    h.telemetryTrace = fnv1aHex(r.telemetry->chromeTraceJson());
    h.dump = fnv1aHex(r.trace->dumpJson("pin", 3000));
    const std::string spans = chromeTraceJson(r.trace->spanWriter(), 8, 8);
    // A second call returns the same writer, unchanged.
    EXPECT_EQ(chromeTraceJson(r.trace->spanWriter(), 8, 8), spans);
    h.spans = fnv1aHex(spans);
    h.spansDropped = r.trace->spanWriter().dropped();
    return h;
}

// The expected hashes were measured by building this test on the code
// before the finished collectors started dropping their run-time
// state, so they pin that every export stayed byte-identical. The LOFT
// telemetry trace with packet spans was measured again when its spans
// began at NI enqueue instead of at packet creation.

TEST(ObserverExports, LoftExportsArePinned)
{
    for (const bool trace_packets : {true, false}) {
        SCOPED_TRACE(trace_packets ? "packet spans on" : "packet spans off");
        const ExportHashes h = dosExportHashes(NetKind::Loft, trace_packets);
        EXPECT_EQ(h.timeSeries, "1ed28a0ab1d6ee72");
        EXPECT_EQ(h.heatmap, "75edb26367670536");
        EXPECT_EQ(h.telemetryTrace,
                  trace_packets ? "9c7cf8027e22d09d" : "32bce8355987b795");
        EXPECT_EQ(h.dump, "80fb28f2eb59381d");
        EXPECT_EQ(h.spans, "60c3ab166924db98");
        EXPECT_EQ(h.spansDropped, 0u);
    }
}

TEST(ObserverExports, GsfExportsArePinned)
{
    for (const bool trace_packets : {true, false}) {
        SCOPED_TRACE(trace_packets ? "packet spans on" : "packet spans off");
        const ExportHashes h = dosExportHashes(NetKind::Gsf, trace_packets);
        EXPECT_EQ(h.timeSeries, "bb10e596fd578fd7");
        EXPECT_EQ(h.heatmap, "3392174cb99ff35d");
        EXPECT_EQ(h.telemetryTrace,
                  trace_packets ? "d7ebb65baf14315e" : "32bce8355987b795");
        EXPECT_EQ(h.dump, "bc4785e5e8de3dcf");
        EXPECT_EQ(h.spans, "efe6af959858d656");
        EXPECT_EQ(h.spansDropped, 0u);
    }
}

TEST(ObserverExports, CappedSpanDocumentsArePinned)
{
    // The 65 track names count towards the cap but are exempt from it:
    // at 50 every one of the run's 485 spans is dropped, at 300 the
    // first 235 are kept.
    const ExportHashes none = dosExportHashes(NetKind::Loft, false, 50);
    EXPECT_EQ(none.spans, "b00b0d0e64953873");
    EXPECT_EQ(none.spansDropped, 485u);
    const ExportHashes some = dosExportHashes(NetKind::Loft, false, 300);
    EXPECT_EQ(some.spans, "ce7eca014a3689d7");
    EXPECT_EQ(some.spansDropped, 250u);
}

} // namespace
} // namespace noc
