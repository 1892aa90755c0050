#include "harness/experiment.hh"

#include <cstdlib>
#include <ostream>

#include "audit/network_auditor.hh"
#include "faults/fault_injector.hh"
#include "faults/fault_monitor.hh"
#include "net/observer_mux.hh"
#include "sim/logging.hh"
#include "sim/alloc.hh"
#include "sim/simulator.hh"

namespace noc
{

void
RunConfig::applyEnvScale()
{
    const char *env = std::getenv("LOFT_SIM_SCALE");
    if (!env)
        return;
    const double scale = std::atof(env);
    if (scale <= 0.0) {
        warn("ignoring invalid LOFT_SIM_SCALE=%s", env);
        return;
    }
    warmupCycles = static_cast<Cycle>(
        static_cast<double>(warmupCycles) * scale);
    measureCycles = static_cast<Cycle>(
        static_cast<double>(measureCycles) * scale);
}

const char *
netKindName(NetKind kind)
{
    switch (kind) {
      case NetKind::Loft:
        return "loft";
      case NetKind::Gsf:
        return "gsf";
      case NetKind::Wormhole:
        return "wormhole";
    }
    return "?";
}

void
PrintTo(NetKind kind, std::ostream *os)
{
    *os << netKindName(kind);
}

std::vector<FlowRate>
uniformRates(std::size_t num_flows, double flits_per_cycle)
{
    std::vector<FlowRate> rates(num_flows);
    for (auto &r : rates)
        r.flitsPerCycle = flits_per_cycle;
    return rates;
}

std::unique_ptr<Network>
buildNetwork(const RunConfig &config, const Mesh2D &mesh,
             FaultInjector *faults)
{
    switch (config.kind) {
      case NetKind::Loft:
        return std::make_unique<LoftNetwork>(mesh, config.loft, faults);
      case NetKind::Gsf:
        return std::make_unique<GsfNetwork>(mesh, config.gsf, faults);
      case NetKind::Wormhole:
        // 0: unbounded source queues.
        return std::make_unique<WormholeNetwork>(mesh, config.wormhole,
                                                 0, faults);
    }
    fatal("buildNetwork: unknown network kind");
}

namespace
{

/** Cycles per data frame of the configured network (resync horizon). */
Cycle
frameCyclesOf(const RunConfig &config)
{
    switch (config.kind) {
      case NetKind::Loft:
        return config.loft.frameSizeFlits;
      case NetKind::Gsf:
        return config.gsf.frameSizeFlits;
      case NetKind::Wormhole:
        return 256;
    }
    return 256;
}

} // namespace

RunResult
runExperiment(const RunConfig &config, const TrafficPattern &pattern,
              const std::vector<FlowRate> &rates)
{
    RunConfig cfg = config;
    // Fold the run seed in so a seed sweep also sweeps fault
    // sequences while (seed, plan) stays fully reproducible.
    FaultPlan plan = cfg.faults;
    plan.seed = mixSeed(plan.seed, cfg.seed);

    // Built before the network: instrument() runs while the network
    // wires its channels. When the plan is inactive no injector exists
    // at all, so the run is bit-identical to one without the subsystem.
    std::unique_ptr<FaultInjector> injector;
    if (plan.active()) {
        injector =
            std::make_unique<FaultInjector>(plan, frameCyclesOf(cfg));
        if (cfg.kind == NetKind::Loft)
            cfg.loft.recovery = true;
    }

    Mesh2D mesh(cfg.meshWidth, cfg.meshHeight);
    std::unique_ptr<Network> net =
        buildNetwork(cfg, mesh, injector.get());
    // At most one flit and one packet sample per sink per cycle, so
    // 2 x nodes bounds a cycle's deferred metric samples per domain.
    net->metrics().setDeferredReserve(2 * mesh.numNodes() + 8);
    auto *loft = dynamic_cast<LoftNetwork *>(net.get());
    auto *gsf = dynamic_cast<GsfNetwork *>(net.get());

    std::unique_ptr<NetworkAuditor> auditor;
    if (cfg.audit)
        auditor = std::make_unique<NetworkAuditor>(*net);

    // A plan whose classes no wire of this network carries faults
    // nothing, and the run stays bare.
    std::unique_ptr<FaultMonitor> monitor;
    if (injector && injector->faultedLinks() > 0)
        monitor = std::make_unique<FaultMonitor>();

    std::shared_ptr<TraceCollector> trace;
    if (cfg.trace.enabled) {
        // Only LOFT books absolute slots; 0 routes all hop residency
        // to switch_stall on the other fabrics.
        const std::uint32_t cycles_per_slot =
            cfg.kind == NetKind::Loft ? cfg.loft.quantumFlits : 0;
        trace = std::make_shared<TraceCollector>(
            mesh, cfg.trace, netKindName(cfg.kind), cycles_per_slot,
            cfg.seed);
    }

    std::shared_ptr<TelemetryCollector> telemetry;
    if (cfg.telemetry.enabled) {
        std::vector<std::uint32_t> class_of;
        for (std::size_t i = 0; i < pattern.flows.size() &&
                                i < pattern.groups.size();
             ++i) {
            const FlowId id = pattern.flows[i].id;
            if (id >= class_of.size())
                class_of.resize(id + 1, 0);
            class_of[id] = pattern.groups[i];
        }
        telemetry = std::make_shared<TelemetryCollector>(
            mesh, cfg.telemetry, std::move(class_of),
            pattern.groupNames);
    }

    Simulator sim;
    sim.setWorkers(cfg.intraRunWorkers);

    // The network holds a single observer pointer: the mux, which fans
    // each event out and, in a partitioned run, replays them at the
    // cycle barrier in the exact serial order. The injector announces
    // through the same mux as the network, so the monitor, auditor and
    // telemetry see fault events merged in serial order with every
    // other event. The trace goes last, so a postmortem dump triggered
    // from the auditor reflects trace state up to (not including) the
    // fatal event.
    ObserverMux mux;
    mux.add(auditor.get());
    mux.add(telemetry.get());
    mux.add(monitor.get());
    mux.add(trace.get());
    if (mux.numTargets() > 0) {
        net->setObserver(&mux);
        if (injector)
            injector->setObserver(&mux);
    }
    if (auditor && trace) {
        TraceCollector *tr = trace.get();
        auditor->setPostmortem([tr](AuditKind kind, Cycle now) {
            return tr->dumpToFile(
                std::string("audit_") + auditKindName(kind), now);
        });
    }

    net->registerFlows(pattern.flows);

    TrafficGenerator gen(*net, cfg.packetSizeFlits, cfg.seed);
    gen.configure(pattern.flows, rates);

    sim.add(&gen);
    net->attach(sim);
    if (auditor)
        auditor->attach(sim);
    if (telemetry)
        sim.add(telemetry.get()); // last: samples end-of-cycle state
    sim.addMerged(&mux);

    sim.run(cfg.warmupCycles);
    net->metrics().startMeasurement(sim.now());
    if (telemetry)
        telemetry->startMeasurement(sim.now());
    setHeapAllocTrap(std::getenv("LOFT_ALLOC_TRAP") != nullptr);
    sim.run(cfg.measureCycles);
    setHeapAllocTrap(false);
    const std::uint64_t steady_allocs = sim.lastRunHeapAllocs();
    net->metrics().stopMeasurement(sim.now());
    if (telemetry) {
        telemetry->stopMeasurement(sim.now());
        telemetry->finish(sim.now());
    }
    if (trace)
        trace->finish(sim.now());

    const MetricsCollector &m = net->metrics();
    RunResult r;
    r.avgPacketLatency = m.avgPacketLatency();
    r.maxPacketLatency = m.maxPacketLatency();
    r.p50PacketLatency = m.packetLatencyPercentile(0.50);
    r.p95PacketLatency = m.packetLatencyPercentile(0.95);
    r.p99PacketLatency = m.packetLatencyPercentile(0.99);
    r.networkThroughput = m.networkThroughput(mesh.numNodes());
    r.totalFlits = m.totalFlits();
    r.totalPackets = m.totalPackets();
    r.steadyStateHeapAllocs = steady_allocs;
    for (std::size_t i = 0; i < pattern.flows.size(); ++i) {
        const FlowId id = pattern.flows[i].id;
        r.flowThroughput.push_back(m.flowThroughput(id));
        r.flowAvgLatency.push_back(m.flow(id).packetLatency.mean());
        r.flowMaxLatency.push_back(m.flow(id).packetLatency.max());
        r.flowP99Latency.push_back(m.flowLatencyPercentile(id, 0.99));
    }
    if (loft) {
        r.linkUtilization =
            loft->linkUtilization(cfg.warmupCycles + cfg.measureCycles);
        r.localResets = loft->totalLocalResets();
        r.speculativeForwards = loft->totalSpeculativeForwards();
        r.emergentForwards = loft->totalEmergentForwards();
        r.anomalyViolations = loft->totalAnomalyViolations();
        r.missedSlots = loft->totalMissedSlots();
        r.lookaheadReissues = loft->totalLookaheadReissues();
        r.quantaScrubbed = loft->totalQuantaScrubbed();
    }
    if (gsf)
        r.frameRecycles = gsf->barrier().recycleCount();
    if (auditor) {
        r.auditHardViolations = auditor->hardViolationCount();
        r.auditWatchdogs = auditor->countOf(AuditKind::Watchdog);
        if (auditor->violationCount())
            r.auditReport = auditor->report();
    }
    if (monitor) {
        r.faultsInjected = monitor->injected();
        r.faultsDetected = monitor->detected();
        r.faultsRecovered = monitor->recovered();
        r.faultFlitsDropped = monitor->flitsDropped();
        r.packetSurvivalRate = monitor->survivalRate();
        r.faultDetectionP99 =
            monitor->detectionLatency().percentile(0.99);
        r.faultRecoveryP99 =
            monitor->recoveryLatency().percentile(0.99);
    }
    r.telemetry = telemetry;
    if (trace) {
        r.trace = trace;
        r.traceSummary = trace->summary();
    }
    return r;
}

RunResult
runExperiment(const RunConfig &config, const TrafficPattern &pattern,
              double flits_per_cycle)
{
    return runExperiment(config, pattern,
                         uniformRates(pattern.flows.size(),
                                      flits_per_cycle));
}

} // namespace noc
