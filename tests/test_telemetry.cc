/**
 * @file
 * Tests for the telemetry subsystem: the ObserverMux fan-out and the
 * NetObserver::consume decode, counter conservation of the
 * TelemetryCollector against the MetricsCollector on a small mesh and
 * per class on the Fig. 12 DoS run, epoch-sampling semantics and the sparse closed epochs, a finished
 * collector, and the shape of the CSV / Chrome-trace exports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/output_scheduler.hh"
#include "harness/experiment.hh"
#include "net/observer_mux.hh"
#include "qos/allocation.hh"
#include "sim/simulator.hh"
#include "telemetry/telemetry.hh"
#include "traffic/generator.hh"

namespace noc
{
namespace
{

// ---------------------------------------------------------------
// Observer plumbing: ObserverMux fan-out, and NetObserver::consume
// calling each kind's own hook with the record's fields as arguments.
// ---------------------------------------------------------------

/** Logs every hook call as "<name>Hook arg...", one line per call. */
class HookLog final : public NetObserver
{
  public:
    HookLog(std::vector<std::string> *lines, std::string name)
        : lines_(lines), name_(std::move(name))
    {
    }

  protected:
    void onPacketAccepted(NodeId n, const Packet &p, Cycle t) override
    {
        add("PacketAccepted", n, p.id, t);
    }
    void onFlitSourced(NodeId n, const Flit &f, bool spec, Cycle t) override
    {
        add("FlitSourced", n, f.flitNo, spec, t);
    }
    void onFlitArrived(NodeId n, Port in, const Flit &f, bool spec,
                       Cycle t) override
    {
        add("FlitArrived", n, portName(in), f.flitNo, spec, t);
    }
    void onFlitForwarded(NodeId n, Port out, const Flit &f, bool spec,
                         Cycle t) override
    {
        add("FlitForwarded", n, portName(out), f.flitNo, spec, t);
    }
    void onFlitEjected(NodeId n, const Flit &f, Cycle t) override
    {
        add("FlitEjected", n, f.flitNo, t);
    }
    void onPacketDelivered(NodeId n, FlowId flow, PacketId pkt,
                           Cycle t) override
    {
        add("PacketDelivered", n, flow, pkt, t);
    }
    void onLookaheadAdmitted(NodeId n, Port in, const LookaheadFlit &la,
                             Cycle t) override
    {
        add("LookaheadAdmitted", n, portName(in), la.quantumNo, t);
    }
    void onQuantumScheduled(NodeId n, Port out, const LookaheadFlit &la,
                            Slot granted, Cycle t) override
    {
        add("QuantumScheduled", n, portName(out), la.quantumNo, granted, t);
    }
    void onNiQuantumScheduled(NodeId n, const LookaheadFlit &la,
                              Slot granted, Cycle t) override
    {
        add("NiQuantumScheduled", n, la.quantumNo, granted, t);
    }
    void onMissedSlot(NodeId n, Port out, Cycle t) override
    {
        add("MissedSlot", n, portName(out), t);
    }
    void onSchedFlowRegistered(const OutputScheduler &s, FlowId flow,
                               std::uint32_t quanta) override
    {
        add("SchedFlowRegistered", s.name(), flow, quanta);
    }
    void onSchedGrant(const OutputScheduler &s, FlowId flow,
                      std::uint64_t quantum_no, Slot slot,
                      std::uint64_t frame, Cycle t) override
    {
        add("SchedGrant", s.name(), flow, quantum_no, slot, frame, t);
    }
    void onSchedSkipped(const OutputScheduler &s, FlowId flow,
                        std::uint32_t quanta, std::uint64_t frame,
                        Cycle t) override
    {
        add("SchedSkipped", s.name(), flow, quanta, frame, t);
    }
    void onSchedBookingCleared(const OutputScheduler &s, Slot slot) override
    {
        add("SchedBookingCleared", s.name(), slot);
    }
    void onSchedCreditReturn(const OutputScheduler &s, Slot slot) override
    {
        add("SchedCreditReturn", s.name(), slot);
    }
    void onSchedCreditNegative(const OutputScheduler &s, Cycle t) override
    {
        add("SchedCreditNegative", s.name(), t);
    }
    void onSchedLocalReset(const OutputScheduler &s, Cycle t) override
    {
        add("SchedLocalReset", s.name(), t);
    }
    void onFaultInjected(FaultKind k, NodeId n, Cycle t) override
    {
        add("FaultInjected", faultKindName(k), n, t);
    }
    void onFaultDetected(FaultKind k, NodeId n, Cycle at, Cycle t) override
    {
        add("FaultDetected", faultKindName(k), n, at, t);
    }
    void onFaultRecovered(FaultKind k, NodeId n, Cycle at, Cycle t) override
    {
        add("FaultRecovered", faultKindName(k), n, at, t);
    }
    void onFlitDropped(NodeId n, const Flit &f, Cycle t) override
    {
        add("FlitDropped", n, f.flitNo, t);
    }
    void onSourceThrottled(NodeId n, FlowId flow, StallReason r,
                           Cycle t) override
    {
        add("SourceThrottled", n, flow, stallReasonName(r), t);
    }

  private:
    template <typename... Args>
    void add(const char *hook, const Args &...args)
    {
        std::ostringstream os;
        os << name_ << hook;
        ((os << ' ' << args), ...);
        lines_->push_back(os.str());
    }

    std::vector<std::string> *lines_;
    std::string name_;
};

TEST(ObserverMux, IgnoresNullAndDuplicates)
{
    std::vector<std::string> log;
    HookLog a(&log, "a:");
    ObserverMux mux;
    mux.add(nullptr);
    EXPECT_EQ(mux.numTargets(), 0u);
    mux.add(&a);
    mux.add(&a); // duplicate: not added twice
    EXPECT_EQ(mux.numTargets(), 1u);

    mux.consume({.kind = NetEvent::Kind::FlitEjected, .node = 3,
                 .now = 10});
    EXPECT_EQ(log, (std::vector<std::string>{"a:FlitEjected 3 0 10"}));
}

TEST(ObserverMux, FanOutInRegistrationOrder)
{
    std::vector<std::string> log;
    HookLog a(&log, "a:");
    HookLog b(&log, "b:");
    ObserverMux mux;
    mux.add(&a);
    mux.add(&b);

    mux.consume({.kind = NetEvent::Kind::FlitEjected, .node = 1,
                 .now = 5});
    mux.consume({.kind = NetEvent::Kind::MissedSlot, .node = 2,
                 .port = Port::East, .now = 6});
    EXPECT_EQ(log, (std::vector<std::string>{
                       "a:FlitEjected 1 0 5", "b:FlitEjected 1 0 5",
                       "a:MissedSlot 2 East 6", "b:MissedSlot 2 East 6"}));
}

TEST(NetObserver, ConsumeCallsTheHookOfEachKind)
{
    using K = NetEvent::Kind;
    const OutputScheduler sched(LoftParams{}, "s");
    Packet pkt;
    pkt.id = 7;
    Flit flit;
    flit.flitNo = 8;
    LookaheadFlit la;
    la.quantumNo = 9;

    // Every value a hook receives differs from the others of its
    // event, so a field passed in the wrong position shows.
    const NetEvent events[] = {
        {.kind = K::PacketAccepted, .node = 1, .pkt = pkt, .now = 100},
        {.kind = K::FlitSourced, .node = 1, .flit = flit, .spec = true,
         .now = 101},
        {.kind = K::FlitArrived, .node = 2, .port = Port::East,
         .flit = flit, .spec = true, .now = 102},
        {.kind = K::FlitForwarded, .node = 2, .port = Port::West,
         .flit = flit, .now = 103},
        {.kind = K::FlitEjected, .node = 3, .flit = flit, .now = 104},
        {.kind = K::PacketDelivered, .node = 3, .flow = 4, .packet = 7,
         .now = 105},
        {.kind = K::LookaheadAdmitted, .node = 2, .port = Port::North,
         .la = la, .now = 106},
        {.kind = K::QuantumScheduled, .node = 2, .port = Port::Local,
         .la = la, .slot = 50, .now = 107},
        {.kind = K::NiQuantumScheduled, .node = 1, .la = la, .slot = 51,
         .now = 108},
        {.kind = K::MissedSlot, .node = 2, .port = Port::South,
         .now = 109},
        {.kind = K::SchedFlowRegistered, .sched = &sched, .flow = 4,
         .quanta = 3},
        {.kind = K::SchedGrant, .sched = &sched, .flow = 4,
         .quantumNo = 9, .slot = 52, .frame = 6, .now = 110},
        {.kind = K::SchedSkipped, .sched = &sched, .flow = 4, .quanta = 2,
         .frame = 6, .now = 111},
        {.kind = K::SchedBookingCleared, .sched = &sched, .slot = 53},
        {.kind = K::SchedCreditReturn, .sched = &sched, .slot = 54},
        {.kind = K::SchedCreditNegative, .sched = &sched, .now = 112},
        {.kind = K::SchedLocalReset, .sched = &sched, .now = 113},
        {.kind = K::FaultInjected, .fault = FaultKind::CreditLoss,
         .node = 5, .now = 114},
        {.kind = K::FaultDetected, .fault = FaultKind::DataCorrupt,
         .node = 5, .injectedAt = 90, .now = 115},
        {.kind = K::FaultRecovered, .fault = FaultKind::LinkStall,
         .node = 5, .injectedAt = 91, .now = 116},
        {.kind = K::FlitDropped, .node = 6, .flit = flit, .now = 117},
        {.kind = K::SourceThrottled, .node = 1, .flow = 4,
         .reason = StallReason::NoLaCredit, .now = 118},
    };
    std::vector<std::string> lines;
    HookLog log(&lines, "");
    for (const NetEvent &e : events)
        log.consume(e);

    EXPECT_EQ(lines, (std::vector<std::string>{
                             "PacketAccepted 1 7 100",
                             "FlitSourced 1 8 1 101",
                             "FlitArrived 2 East 8 1 102",
                             "FlitForwarded 2 West 8 0 103",
                             "FlitEjected 3 8 104",
                             "PacketDelivered 3 4 7 105",
                             "LookaheadAdmitted 2 North 9 106",
                             "QuantumScheduled 2 Local 9 50 107",
                             "NiQuantumScheduled 1 9 51 108",
                             "MissedSlot 2 South 109",
                             "SchedFlowRegistered s 4 3",
                             "SchedGrant s 4 9 52 6 110",
                             "SchedSkipped s 4 2 6 111",
                             "SchedBookingCleared s 53",
                             "SchedCreditReturn s 54",
                             "SchedCreditNegative s 112",
                             "SchedLocalReset s 113",
                             "FaultInjected credit_loss 5 114",
                             "FaultDetected data_corrupt 5 90 115",
                             "FaultRecovered link_stall 5 91 116",
                             "FlitDropped 6 8 117",
                             "SourceThrottled 1 4 no_la_credit 118",
                         }));
}

// ---------------------------------------------------------------
// TelemetryCollector on a live 4x4 LOFT mesh
// ---------------------------------------------------------------

RunConfig
telemetryConfig(std::uint64_t seed = 7)
{
    RunConfig c;
    c.kind = NetKind::Loft;
    c.meshWidth = 4;
    c.meshHeight = 4;
    c.warmupCycles = 1000;
    c.measureCycles = 3000;
    c.seed = seed;
    c.loft.frameSizeFlits = 64;
    c.loft.centralBufferFlits = 64;
    c.loft.specBufferFlits = 8;
    c.loft.maxFlows = 16;
    c.loft.sourceQueueFlits = 32;
    c.telemetry.enabled = true;
    c.telemetry.epochCycles = 250;
    return c;
}

RunResult
telemetryRun(std::uint64_t seed = 7)
{
    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    return runExperiment(telemetryConfig(seed), p, 0.15);
}

TEST(TelemetryDeathTest, SchedulerEventsAreKeyedBySite)
{
    TelemetryCollector tel(Mesh2D(2, 2));
    const OutputScheduler sited(LoftParams{}, "any name",
                                SchedSite{3, kNiLane});
    tel.consume({.kind = NetEvent::Kind::SchedGrant, .sched = &sited,
                 .flow = 1});
    EXPECT_EQ(tel.lane(3, kNiLane).grants, 1u);

    const OutputScheduler unsited(LoftParams{}, "router0.East.sched");
    EXPECT_DEATH(tel.consume({.kind = NetEvent::Kind::SchedGrant,
                              .sched = &unsited, .flow = 1}),
                 "has no site");
}

TEST(Telemetry, OffByDefault)
{
    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    RunConfig c = telemetryConfig();
    c.telemetry.enabled = false;
    const RunResult r = runExperiment(c, p, 0.1);
    EXPECT_EQ(r.telemetry, nullptr);
}

TEST(Telemetry, WindowCountersMatchMetricsCollector)
{
    const RunResult r = telemetryRun();
    ASSERT_NE(r.telemetry, nullptr);
    const TelemetryCollector &t = *r.telemetry;

    // The telemetry measurement window brackets the same cycles as the
    // MetricsCollector's, and the class histograms partition its
    // packets.
    std::uint64_t class_pkts = 0;
    for (std::size_t c = 0; c < t.numClasses(); ++c)
        class_pkts += t.classLatency(c).count();
    EXPECT_EQ(class_pkts, r.totalPackets);

    // Both time a packet from NI enqueue, so on the Fig. 12 DoS run,
    // where flow i is class i, each class equals its flow. The
    // aggressors' generator backlog holds packets between creation
    // and enqueue, which a latency started at creation would count.
    Mesh2D mesh(8, 8);
    const TrafficPattern dos = dosPattern(mesh);
    std::vector<FlowRate> rates(3);
    rates[0].flitsPerCycle = 0.2;
    rates[0].process = InjectionProcess::Periodic;
    rates[1].flitsPerCycle = 0.8;
    rates[2].flitsPerCycle = 0.8;
    for (const NetKind kind :
         {NetKind::Loft, NetKind::Gsf, NetKind::Wormhole}) {
        SCOPED_TRACE(netKindName(kind));
        RunConfig c;
        c.kind = kind;
        c.meshWidth = 8;
        c.meshHeight = 8;
        c.seed = 1;
        const std::unique_ptr<Network> net = buildNetwork(c, mesh);
        TelemetryCollector tel(mesh, {}, dos.groups, dos.groupNames);
        net->setObserver(&tel);
        net->registerFlows(dos.flows);
        TrafficGenerator gen(*net, c.packetSizeFlits, c.seed);
        gen.configure(dos.flows, rates);
        Simulator sim;
        sim.add(&gen);
        net->attach(sim);
        sim.add(&tel);
        sim.run(5000);
        net->metrics().startMeasurement(sim.now());
        tel.startMeasurement(sim.now());
        sim.run(10000);
        for (const FlowSpec &f : dos.flows) {
            SCOPED_TRACE(dos.groupNames[f.id]);
            const LogHistogram &want =
                net->metrics().flow(f.id).latencyHist;
            const LogHistogram &got = tel.classLatency(f.id);
            EXPECT_GT(want.count(), 0u);
            EXPECT_EQ(got.count(), want.count());
            EXPECT_EQ(got.mean(), want.mean());
            EXPECT_EQ(got.maxSample(), want.maxSample());
        }
    }
}

TEST(Telemetry, EpochsTileTheRunContiguously)
{
    RunConfig c = telemetryConfig();
    const Cycle total = c.warmupCycles + c.measureCycles;
    const RunResult r = telemetryRun();
    ASSERT_NE(r.telemetry, nullptr);
    const TelemetryCollector &t = *r.telemetry;

    ASSERT_FALSE(t.epochs().empty());
    EXPECT_EQ(t.epochs().front().start, 0u);
    EXPECT_EQ(t.epochs().back().end, total);
    for (std::size_t i = 1; i < t.epochs().size(); ++i) {
        EXPECT_EQ(t.epochs()[i - 1].end, t.epochs()[i].start);
        EXPECT_LE(t.epochs()[i].end - t.epochs()[i].start,
                  c.telemetry.epochCycles);
    }

    // Per-epoch deltas sum back to the cumulative lane counters.
    const std::size_t lanes = 16 * kNumLanes;
    std::vector<std::uint64_t> forwarded(lanes, 0);
    for (const TelemetryEpoch &ep : t.epochs())
        for (std::size_t i = 0; i < lanes; ++i)
            forwarded[i] += ep.lane(i).flitsForwarded;
    for (NodeId n = 0; n < 16; ++n)
        for (std::size_t l = 0; l < kNumLanes; ++l)
            EXPECT_EQ(forwarded[n * kNumLanes + l],
                      t.lane(n, l).flitsForwarded)
                << "node " << n << " lane " << l;
}

TEST(Telemetry, ExportsHaveTheDocumentedShape)
{
    const RunResult r = telemetryRun();
    ASSERT_NE(r.telemetry, nullptr);
    const TelemetryCollector &t = *r.telemetry;

    // Time series: header + one row per (epoch, node, lane).
    const std::string csv = t.timeSeriesCsv();
    EXPECT_EQ(csv.compare(0, 5, "epoch"), 0);
    const std::size_t rows =
        static_cast<std::size_t>(
            std::count(csv.begin(), csv.end(), '\n'));
    EXPECT_EQ(rows, 1 + t.epochs().size() * t.numNodes() * kNumLanes);

    // Heatmap: height rows of width comma-separated values in [0, 1].
    const std::string heat = t.heatmapCsv();
    std::size_t lines = 0, commas = 0;
    for (char ch : heat) {
        lines += ch == '\n';
        commas += ch == ',';
    }
    EXPECT_EQ(lines, t.meshHeight());
    EXPECT_EQ(commas, t.meshHeight() * (t.meshWidth() - 1));
    for (std::size_t pos = 0; pos < heat.size();) {
        const double v = std::stod(heat.substr(pos));
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
        pos = heat.find_first_of(",\n", pos);
        ASSERT_NE(pos, std::string::npos);
        ++pos;
    }

    // Trace: one span begin per accepted packet, one end per
    // delivered packet, wrapped in a traceEvents array.
    const std::string trace = t.chromeTraceJson();
    EXPECT_EQ(trace.compare(0, 16, "{\"traceEvents\":["), 0);
    std::size_t begins = 0, ends = 0;
    for (std::size_t pos = trace.find("\"ph\":\"b\"");
         pos != std::string::npos;
         pos = trace.find("\"ph\":\"b\"", pos + 1))
        ++begins;
    for (std::size_t pos = trace.find("\"ph\":\"e\"");
         pos != std::string::npos;
         pos = trace.find("\"ph\":\"e\"", pos + 1))
        ++ends;
    EXPECT_GE(begins, ends); // in-flight packets never closed
    EXPECT_GT(ends, 0u);
    EXPECT_EQ(t.traceEventsDropped(), 0u);
}

TEST(Telemetry, ComposesWithAuditorAndStaysPassive)
{
    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);

    // Reference: no observers at all.
    RunConfig bare = telemetryConfig();
    bare.audit = false;
    bare.telemetry.enabled = false;
    const RunResult ref = runExperiment(bare, p, 0.15);

    // Audit + telemetry together through the ObserverMux.
    RunConfig both = telemetryConfig();
    both.audit = true;
    const RunResult r = runExperiment(both, p, 0.15);

    ASSERT_NE(r.telemetry, nullptr);
    EXPECT_EQ(r.auditHardViolations, 0u);

    // Observation must not perturb the simulation.
    EXPECT_EQ(ref.totalFlits, r.totalFlits);
    EXPECT_EQ(ref.totalPackets, r.totalPackets);
    EXPECT_DOUBLE_EQ(ref.avgPacketLatency, r.avgPacketLatency);
    EXPECT_DOUBLE_EQ(ref.networkThroughput, r.networkThroughput);
}

TEST(Telemetry, DosClassesAreLabelledFromThePattern)
{
    Mesh2D mesh(8, 8); // dosPattern needs the paper's 8x8 mesh
    const TrafficPattern p = dosPattern(mesh);
    std::vector<FlowRate> rates(p.flows.size());
    rates[0].flitsPerCycle = 0.2;
    rates[0].process = InjectionProcess::Periodic;
    rates[1].flitsPerCycle = 0.6;
    rates[2].flitsPerCycle = 0.6;

    RunConfig c = telemetryConfig();
    c.meshWidth = 8;
    c.meshHeight = 8;
    c.warmupCycles = 500;
    c.measureCycles = 1500;
    const RunResult r = runExperiment(c, p, rates);
    ASSERT_NE(r.telemetry, nullptr);
    const TelemetryCollector &t = *r.telemetry;
    ASSERT_EQ(t.numClasses(), p.groupNames.size());
    for (std::size_t c = 0; c < t.numClasses(); ++c)
        EXPECT_EQ(t.className(c), p.groupNames[c]);
    const ReportTable table = t.classLatencyTable();
    EXPECT_EQ(table.numRows(), t.numClasses());
}

TEST(Telemetry, FlowTailLatencyIsReportedByDefault)
{
    // Satellite check: p99 comes from MetricsCollector's LogHistogram
    // even with telemetry disabled.
    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    RunConfig c = telemetryConfig();
    c.telemetry.enabled = false;
    const RunResult r = runExperiment(c, p, 0.15);

    ASSERT_EQ(r.flowP99Latency.size(), r.flowAvgLatency.size());
    for (std::size_t i = 0; i < r.flowP99Latency.size(); ++i) {
        if (r.flowThroughput[i] <= 0.0)
            continue;
        EXPECT_GE(r.flowP99Latency[i], r.flowAvgLatency[i] * 0.5);
        EXPECT_LE(r.flowP99Latency[i], r.flowMaxLatency[i] + 1e-9);
    }
    EXPECT_GE(r.p99PacketLatency, r.p50PacketLatency);
}

TEST(Telemetry, ClosedEpochsKeepOnlyNonzeroRows)
{
    TelemetryConfig cfg;
    cfg.epochCycles = 10;
    TelemetryCollector tel(Mesh2D(2, 2), cfg);
    Flit f;
    f.flow = 1;
    tel.consume({.kind = NetEvent::Kind::FlitForwarded, .node = 2,
                 .port = Port::East, .flit = f, .now = 3});
    tel.consume({.kind = NetEvent::Kind::FlitEjected, .node = 1, .flit = f,
                 .now = 4});
    tel.tick(9);  // closes [0, 10)
    tel.tick(19); // closes [10, 20), an idle epoch
    ASSERT_EQ(tel.epochs().size(), 2u);

    const std::size_t east2 =
        2 * kNumLanes + portIndex(Port::East);
    const TelemetryEpoch &busy = tel.epochs()[0];
    ASSERT_EQ(busy.lanes.size(), 1u);
    EXPECT_EQ(busy.lanes[0].first, east2);
    EXPECT_EQ(busy.lane(east2).flitsForwarded, 1u);
    ASSERT_EQ(busy.nodes.size(), 1u);
    EXPECT_EQ(busy.nodes[0].first, 1u);
    EXPECT_EQ(busy.node(1).flitsEjected, 1u);
    // Rows not stored read zero, on either side of a stored one.
    EXPECT_TRUE(busy.lane(0) == LaneCounters{});
    EXPECT_TRUE(busy.lane(east2 + 1) == LaneCounters{});
    EXPECT_TRUE(busy.node(0) == NodeCounters{});
    EXPECT_TRUE(busy.node(3) == NodeCounters{});

    const TelemetryEpoch &idle = tel.epochs()[1];
    EXPECT_TRUE(idle.lanes.empty());
    EXPECT_TRUE(idle.nodes.empty());
    EXPECT_TRUE(idle.lane(east2) == LaneCounters{});
    // The time series still has one row per (epoch, node, lane).
    const std::string csv = tel.timeSeriesCsv();
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(csv.begin(), csv.end(), '\n')),
              1 + 2 * 4 * kNumLanes);
}

TEST(Telemetry, DroppedFlitsLeaveTheBufferGauge)
{
    // A recovery give-up (LoftDataRouter::dropQuantum) frees the
    // buffered flits it drops, as a forward does.
    TelemetryCollector tel(Mesh2D(2, 1));
    for (int i = 0; i < 2; ++i)
        tel.consume({.kind = NetEvent::Kind::FlitArrived, .node = 0,
                     .port = Port::East, .now = 1});
    for (int i = 0; i < 2; ++i)
        tel.consume(
            {.kind = NetEvent::Kind::FlitDropped, .node = 0, .now = 2});
    tel.finish(3);
    ASSERT_EQ(tel.epochs().size(), 1u);
    EXPECT_EQ(tel.epochs().back().node(0).bufferOccupancy, 0u);
}

TEST(Telemetry, FinishedCollectorIgnoresLateEvents)
{
    TelemetryConfig cfg;
    cfg.epochCycles = 10;
    TelemetryCollector tel(Mesh2D(2, 2), cfg);
    Packet pkt;
    pkt.id = 5;
    pkt.flow = 1;
    pkt.src = 0;
    pkt.dst = 3;
    tel.startMeasurement(0);
    tel.consume({.kind = NetEvent::Kind::PacketAccepted, .node = 0,
                 .pkt = pkt, .now = 1});
    tel.finish(5);
    const std::string series = tel.timeSeriesCsv();
    const std::string spans = tel.chromeTraceJson();

    // The packet still in flight at finish() was let go.
    Flit f;
    f.flow = 1;
    tel.consume({.kind = NetEvent::Kind::FlitForwarded, .node = 0,
                 .port = Port::East, .flit = f, .now = 6});
    tel.consume({.kind = NetEvent::Kind::PacketDelivered, .node = 3,
                 .flow = 1, .packet = 5, .now = 7});
    tel.tick(19);
    EXPECT_EQ(tel.lane(0, portIndex(Port::East)).flitsForwarded, 0u);
    EXPECT_EQ(tel.classLatency(0).count(), 0u);
    EXPECT_EQ(tel.epochs().size(), 1u);
    EXPECT_EQ(tel.timeSeriesCsv(), series);
    EXPECT_EQ(tel.chromeTraceJson(), spans);
}

} // namespace
} // namespace noc
