/**
 * @file
 * Tests of the runtime invariant-audit subsystem (src/audit):
 *
 *  - clean runs of all three networks produce zero audit violations;
 *  - speculative flit switching may reorder flits but never breaks
 *    conservation or the reservation protocol;
 *  - deliberately corrupted component state (a reservation-table
 *    entry, a virtual-credit counter) is reported within one frame
 *    window, proving the auditor is live, not vacuously quiet, and
 *    a violation triggers one trace postmortem dump per kind;
 *  - the deadlock/starvation watchdog trips on stalled flits and is
 *    soft (excluded from the hard violation count).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "audit/network_auditor.hh"
#include "harness/experiment.hh"
#include "net/observer_mux.hh"
#include "qos/allocation.hh"
#include "sim/rng.hh"
#include "trace/trace.hh"
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
    c.warmupCycles = 1500;
    c.measureCycles = 4000;
    c.loft.frameSizeFlits = 64;
    c.loft.centralBufferFlits = 64;
    c.loft.specBufferFlits = 8;
    c.loft.maxFlows = 16;
    c.loft.sourceQueueFlits = 32;
    return c;
}

/// ---------------------------------------------------------------
/// Clean runs: the auditor is silent on correct behaviour.
/// ---------------------------------------------------------------

class CleanRun : public ::testing::TestWithParam<NetKind>
{
};

TEST_P(CleanRun, NoViolationsUnderUniformTraffic)
{
    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    const RunResult r = runExperiment(smallConfig(GetParam()), p, 0.1);
    EXPECT_EQ(r.auditHardViolations, 0u) << r.auditReport;
    EXPECT_EQ(r.auditWatchdogs, 0u) << r.auditReport;
    EXPECT_GT(r.totalFlits, 0u);
}

TEST_P(CleanRun, NoViolationsUnderHotspotTraffic)
{
    Mesh2D mesh(4, 4);
    TrafficPattern p = hotspotPattern(mesh, 15);
    setEqualSharesByMaxFlows(p.flows, 16);
    const RunResult r = runExperiment(smallConfig(GetParam()), p, 0.4);
    EXPECT_EQ(r.auditHardViolations, 0u) << r.auditReport;
    EXPECT_EQ(r.auditWatchdogs, 0u) << r.auditReport;
}

INSTANTIATE_TEST_SUITE_P(Networks, CleanRun,
                         ::testing::Values(NetKind::Loft, NetKind::Gsf,
                                           NetKind::Wormhole));

/// ---------------------------------------------------------------
/// Speculative flit switching: reordering is legal, loss is not.
/// ---------------------------------------------------------------

TEST(SpeculativeReordering, AuditCleanWithSpeculationExercised)
{
    RunConfig c = smallConfig(NetKind::Loft);
    c.loft.speculativeSwitching = true;
    c.loft.specBufferFlits = 12;
    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    const RunResult r = runExperiment(c, p, 0.15);
    EXPECT_GT(r.speculativeForwards, 0u)
        << "speculation not exercised; property vacuous";
    EXPECT_EQ(r.auditHardViolations, 0u) << r.auditReport;
}

TEST(SpeculativeReordering, DrainedRunLeavesEmptyLedger)
{
    Mesh2D mesh(4, 4);
    LoftParams p;
    p.frameSizeFlits = 64;
    p.centralBufferFlits = 64;
    p.specBufferFlits = 8;
    p.maxFlows = 16;
    p.sourceQueueFlits = 0; // unbounded NI queue

    LoftNetwork net(mesh, p);
    NetworkAuditor auditor(net);
    std::vector<FlowSpec> flows;
    for (FlowId f = 0; f < 8; ++f)
        flows.push_back({f, f, NodeId(15 - f), 1.0 / 16});
    net.registerFlows(flows);

    Simulator sim;
    net.attach(sim);
    auditor.attach(sim);
    net.metrics().startMeasurement(0);

    Rng rng(99);
    std::uint64_t offered = 0;
    PacketId id = 1;
    for (int i = 0; i < 60; ++i) {
        const auto &f = flows[rng.randRange(flows.size())];
        Packet pkt;
        pkt.id = id++;
        pkt.flow = f.id;
        pkt.src = f.src;
        pkt.dst = f.dst;
        pkt.sizeFlits = 1 + rng.randRange(6);
        ASSERT_TRUE(net.inject(pkt));
        offered += pkt.sizeFlits;
    }
    ASSERT_TRUE(sim.runUntil(
        [&] { return net.metrics().totalFlits() == offered; }, 60000));
    sim.run(100);
    auditor.finalCheck(sim.now());

    EXPECT_EQ(auditor.hardViolationCount(), 0u) << auditor.report();
    EXPECT_EQ(auditor.flitsInLedger(), 0u) << auditor.report();
    EXPECT_EQ(net.metrics().totalFlits(), offered);
}

/// ---------------------------------------------------------------
/// Fault injection: the auditor must notice deliberate corruption.
/// ---------------------------------------------------------------

struct FaultRig
{
    Mesh2D mesh{4, 4};
    LoftParams params;
    std::unique_ptr<LoftNetwork> net;
    std::unique_ptr<NetworkAuditor> auditor;
    std::unique_ptr<TrafficGenerator> gen;
    Simulator sim;

    FaultRig()
    {
        params.frameSizeFlits = 64;
        params.centralBufferFlits = 64;
        params.specBufferFlits = 0;
        params.speculativeSwitching = false; // keep bookings in place
        params.maxFlows = 16;
        params.sourceQueueFlits = 32;
        net = std::make_unique<LoftNetwork>(mesh, params);
        // Audit every quarter frame: a booking a mere half frame in
        // the future is then guaranteed to be inspected while live.
        AuditConfig cfg;
        cfg.deepAuditPeriod = params.frameSizeFlits / 4;
        auditor = std::make_unique<NetworkAuditor>(*net, cfg);

        TrafficPattern p = uniformPattern(mesh);
        setEqualSharesByMaxFlows(p.flows, 16);
        net->registerFlows(p.flows);
        gen = std::make_unique<TrafficGenerator>(*net, 4, 7);
        gen->configure(p.flows,
                       uniformRates(p.flows.size(), 0.3));

        sim.add(gen.get());
        net->attach(sim);
        auditor->attach(sim);
    }

    /** One frame window in cycles (the detection deadline). */
    Cycle frameWindowCycles() const
    {
        return Cycle(params.frameSizeFlits) * params.windowFrames;
    }

    OutputScheduler &
    scheduler(NodeId n, Port p)
    {
        return net->dataRouter(n).scheduler(p);
    }

    /**
     * A live booking departing late enough that a deep audit is
     * guaranteed to run before the booking is consumed.
     */
    struct Victim
    {
        OutputScheduler *sched;
        Slot slot;
    };
    std::optional<Victim>
    findFutureBooking(Cycle margin)
    {
        std::optional<Victim> best;
        auto consider = [&](OutputScheduler &s) {
            s.forEachBooking([&](Slot abs, const SlotBooking &) {
                if (params.slotStart(abs) < sim.now() + margin)
                    return;
                if (!best || abs > best->slot)
                    best = Victim{&s, abs};
            });
        };
        for (NodeId n = 0; n < mesh.numNodes(); ++n) {
            // NI schedulers first: flows running ahead of their share
            // book furthest into the future there.
            consider(net->source(n).scheduler());
            for (Port p : {Port::North, Port::East, Port::South,
                           Port::West, Port::Local})
                consider(scheduler(n, p));
            if (best)
                return best;
        }
        return best;
    }

    /**
     * Run until a booking departs at least two deep-audit periods
     * ahead, so an audit is guaranteed to inspect it while still live,
     * and corrupt its flow. Returns the corruption cycle, or nullopt
     * when no such booking turned up.
     */
    std::optional<Cycle>
    corruptFutureBooking()
    {
        sim.run(500);
        for (int attempt = 0; attempt < 100; ++attempt) {
            sim.run(20);
            if (const auto v = findFutureBooking(params.frameSizeFlits / 2)) {
                v->sched->debugCorruptBookingFlow(v->slot);
                return sim.now();
            }
        }
        return std::nullopt;
    }
};

TEST(FaultInjection, CorruptedReservationEntryDetectedWithinWindow)
{
    FaultRig rig;
    const std::optional<Cycle> corrupted = rig.corruptFutureBooking();
    ASSERT_TRUE(corrupted) << "no future booking found to corrupt";
    ASSERT_EQ(rig.auditor->countOf(AuditKind::StateMismatch), 0u);

    rig.sim.run(rig.frameWindowCycles());
    ASSERT_GE(rig.auditor->countOf(AuditKind::StateMismatch), 1u)
        << rig.auditor->report();
    // Reported within one frame window of the corruption.
    bool inTime = false;
    for (const auto &viol : rig.auditor->violations()) {
        if (viol.kind == AuditKind::StateMismatch &&
            viol.cycle <= *corrupted + rig.frameWindowCycles())
            inTime = true;
    }
    EXPECT_TRUE(inTime) << rig.auditor->report();
}

TEST(FaultInjection, PostmortemWritesOneTraceDumpPerKind)
{
    // runExperiment's postmortem wiring, by hand: every recorded
    // violation asks the trace collector for a flight-recorder dump.
    FaultRig rig;
    const std::string dir = ::testing::TempDir() + "/loft_audit_postmortem";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    TraceConfig tc;
    tc.dumpDir = dir;
    TraceCollector trace(rig.mesh, tc, "loft", rig.params.quantumFlits,
                         0);
    ObserverMux mux;
    mux.add(rig.auditor.get());
    mux.add(&trace);
    rig.net->setObserver(&mux);
    rig.sim.addMerged(&mux);
    rig.auditor->setPostmortem([&trace](AuditKind kind, Cycle now) {
        return trace.dumpToFile(std::string("audit_") + auditKindName(kind),
                                now);
    });

    ASSERT_TRUE(rig.corruptFutureBooking())
        << "no future booking found to corrupt";
    rig.sim.run(rig.frameWindowCycles());
    ASSERT_GE(rig.auditor->countOf(AuditKind::StateMismatch), 1u)
        << rig.auditor->report();

    // One file per violated kind, however often it fired, and the
    // first record of each kind names its file.
    std::vector<std::string> want;
    for (std::size_t k = 0; k < kNumAuditKinds; ++k) {
        const auto kind = static_cast<AuditKind>(k);
        if (rig.auditor->countOf(kind) == 0)
            continue;
        const std::string path = dir + "/trace_audit_" +
                                 auditKindName(kind) + ".json";
        want.push_back(path);
        EXPECT_NE(rig.auditor->report().find(path), std::string::npos)
            << rig.auditor->report();
    }
    std::vector<std::string> got;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        got.push_back(entry.path().string());
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
    std::filesystem::remove_all(dir);
}

TEST(FaultInjection, CorruptedCreditCounterDetectedWithinWindow)
{
    FaultRig rig;
    rig.sim.run(500);

    // Corrupt the credit word of the youngest slot in the window: it
    // stays inside the window (and thus inside the audit scan) for a
    // full window's worth of cycles.
    OutputScheduler &s = rig.scheduler(5, Port::East);
    const Slot victim = s.windowEndAbsSlot() - 1;
    const Cycle corrupted = rig.sim.now();
    s.debugAdjustCredit(victim, -1000000);
    ASSERT_EQ(rig.auditor->countOf(AuditKind::Credit), 0u);

    rig.sim.run(rig.frameWindowCycles());
    ASSERT_GE(rig.auditor->countOf(AuditKind::Credit), 1u)
        << rig.auditor->report();
    bool inTime = false;
    for (const auto &viol : rig.auditor->violations()) {
        if (viol.kind == AuditKind::Credit &&
            viol.cycle <= corrupted + rig.frameWindowCycles())
            inTime = true;
    }
    EXPECT_TRUE(inTime) << rig.auditor->report();
}

TEST(FaultInjection, DeepAuditReportsSchedulersInFirstSeenOrder)
{
    FaultRig rig;
    rig.sim.run(500);

    // Router 0's schedulers are constructed before node 0's NI, but
    // the auditor hears of the NI first: registering flow 0 reaches
    // the NI scheduler before any router port. Deep audits must
    // report in that first-seen order, not in heap-address order.
    for (OutputScheduler *s : {&rig.net->source(0).scheduler(),
                               &rig.scheduler(0, Port::East)})
        s->debugAdjustCredit(s->windowEndAbsSlot() - 1, -1000000);

    rig.sim.run(rig.frameWindowCycles());
    std::vector<std::string> named;
    for (const auto &viol : rig.auditor->violations()) {
        if (viol.kind != AuditKind::Credit)
            continue;
        // Credit details start with the scheduler's name.
        const std::string sched =
            viol.detail.substr(0, viol.detail.find(':'));
        if (named.empty() || named.back() != sched)
            named.push_back(sched);
    }
    ASSERT_GE(named.size(), 2u) << rig.auditor->report();
    EXPECT_EQ(named[0], "ni0.sched") << rig.auditor->report();
    EXPECT_EQ(named[1], "router0.East.sched") << rig.auditor->report();
}

/// ---------------------------------------------------------------
/// Watchdog: stalled flits are reported, but only softly.
/// ---------------------------------------------------------------

TEST(Watchdog, TripsOnStalledFlitAndStaysSoft)
{
    Mesh2D mesh(2, 2);
    WormholeParams wp;
    WormholeNetwork net(mesh, wp);
    AuditConfig cfg;
    cfg.watchdogWindow = 200;
    cfg.deepAuditPeriod = 64;
    NetworkAuditor auditor(net, cfg);

    // Hand-feed a sourced flit that never progresses; the simulator
    // never runs the network, so the flit is stalled by construction.
    Flit flit;
    flit.flow = 3;
    flit.flitNo = 0;
    flit.src = 0;
    flit.dst = 3;
    auditor.consume({.kind = NetEvent::Kind::FlitSourced, .node = 0,
                     .flit = flit, .now = 10});

    for (Cycle t = 0; t < 1000; t += 64)
        auditor.tick(t);

    EXPECT_GE(auditor.countOf(AuditKind::Watchdog), 1u);
    EXPECT_EQ(auditor.hardViolationCount(), 0u) << auditor.report();
    EXPECT_GT(auditor.violationCount(), 0u);
}

TEST(Watchdog, SilentWhileTrafficFlows)
{
    RunConfig c = smallConfig(NetKind::Loft);
    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    const RunResult r = runExperiment(c, p, 0.1);
    EXPECT_EQ(r.auditWatchdogs, 0u) << r.auditReport;
}

TEST(AuditDeathTest, UnsitedSchedulerPanics)
{
    Mesh2D mesh(2, 2);
    WormholeParams wp;
    WormholeNetwork net(mesh, wp);
    NetworkAuditor auditor(net);
    const OutputScheduler unsited(LoftParams{}, "router0.East.sched");
    EXPECT_DEATH(auditor.consume(
                     {.kind = NetEvent::Kind::SchedFlowRegistered,
                      .sched = &unsited, .flow = 1, .quanta = 2}),
                 "has no site");
}

/// ---------------------------------------------------------------
/// Ledger semantics, fed directly.
/// ---------------------------------------------------------------

TEST(Ledger, DuplicateSourcingIsAConservationViolation)
{
    Mesh2D mesh(2, 2);
    WormholeParams wp;
    WormholeNetwork net(mesh, wp);
    NetworkAuditor auditor(net);

    Flit flit;
    flit.flow = 1;
    flit.flitNo = 7;
    flit.src = 0;
    flit.dst = 3;
    auditor.consume({.kind = NetEvent::Kind::FlitSourced, .node = 0,
                     .flit = flit, .now = 5});
    auditor.consume({.kind = NetEvent::Kind::FlitSourced, .node = 0,
                     .flit = flit, .now = 6});
    EXPECT_EQ(auditor.countOf(AuditKind::Conservation), 1u);
    EXPECT_GE(auditor.hardViolationCount(), 1u);
}

TEST(Ledger, EjectionAtWrongNodeIsAConservationViolation)
{
    Mesh2D mesh(2, 2);
    WormholeParams wp;
    WormholeNetwork net(mesh, wp);
    NetworkAuditor auditor(net);

    Flit flit;
    flit.flow = 1;
    flit.flitNo = 0;
    flit.src = 0;
    flit.dst = 3;
    auditor.consume({.kind = NetEvent::Kind::FlitSourced, .node = 0,
                     .flit = flit, .now = 5});
    auditor.consume({.kind = NetEvent::Kind::FlitArrived, .node = 1,
                     .port = Port::West, .flit = flit, .now = 7});
    // dst is 3, not 1
    auditor.consume({.kind = NetEvent::Kind::FlitEjected, .node = 1,
                     .flit = flit, .now = 8});
    EXPECT_EQ(auditor.countOf(AuditKind::Conservation), 1u);
}

} // namespace
} // namespace noc
