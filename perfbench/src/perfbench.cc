#include "perfbench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/sweep.hh"
#include "qos/allocation.hh"
#include "sched_bench.hh"
#include "sim/simulator.hh"
#include "telemetry/chrome_trace.hh"

namespace perfbench
{

using namespace noc;

namespace
{

// Simulated length of each workload's runs. Fixed, so a seed always
// simulates the same cycles and the simulated metrics repeat exactly.
constexpr Cycle kUniformWarmup = 300;
constexpr Cycle kUniformMeasure = 900;
constexpr Cycle kNeighborWarmup = 1000;
constexpr Cycle kNeighborMeasure = 3000;
// At aggression 0.8 one LOFT run locks into one of several bandwidth
// splits between the aggressors depending on its seed, so the DoS
// workload's simulated metrics average an ensemble of LOFT sub-seeds.
constexpr std::uint64_t kDosLoftSubSeeds = 16;
constexpr Cycle kDosLoftWarmup = 2000;
constexpr Cycle kDosLoftMeasure = 10000;
constexpr Cycle kDosOtherWarmup = 5000;
constexpr Cycle kDosOtherMeasure = 50000;

/** Repetitions of the untraced loop, whatever the time budget. */
constexpr int kMinReps = 3;
constexpr int kMaxReps = 200;
/** Setup samples taken before each repetition (setup_s is their median). */
constexpr int kSetupsPerRep = 3;
/** Measure-window chunks of the traced replay. */
constexpr Cycle kTraceChunks = 100;

RunConfig
baseConfig(NetKind kind, std::uint32_t size, Cycle warmup, Cycle measure,
           std::uint64_t seed)
{
    RunConfig c;
    c.kind = kind;
    c.meshWidth = size;
    c.meshHeight = size;
    c.warmupCycles = warmup;
    c.measureCycles = measure;
    c.seed = seed;
    c.intraRunWorkers = 1;
    c.audit = false;
    return c;
}

/** Counts every NetObserver hook; the scheduler hooks individually. */
class CountingObserver final : public NetObserver
{
  public:
    EventCounts counts;

    void onPacketAccepted(NodeId, const Packet &, Cycle) override
    {
        ++counts.events;
    }
    void onFlitSourced(NodeId, const Flit &, bool, Cycle) override
    {
        ++counts.events;
    }
    void onFlitArrived(NodeId, Port, const Flit &, bool, Cycle) override
    {
        ++counts.events;
    }
    void onFlitForwarded(NodeId, Port, const Flit &, bool spec,
                         Cycle) override
    {
        ++counts.events;
        ++counts.forwards;
        counts.specForwards += spec ? 1 : 0;
    }
    void onFlitEjected(NodeId, const Flit &, Cycle) override
    {
        ++counts.events;
    }
    void onPacketDelivered(NodeId, FlowId, PacketId, Cycle) override
    {
        ++counts.events;
    }
    void onLookaheadAdmitted(NodeId, Port, const LookaheadFlit &,
                             Cycle) override
    {
        ++counts.events;
    }
    void onQuantumScheduled(NodeId, Port, const LookaheadFlit &, Slot,
                            Cycle) override
    {
        ++counts.events;
    }
    void onNiQuantumScheduled(NodeId, const LookaheadFlit &, Slot,
                              Cycle) override
    {
        ++counts.events;
    }
    void onMissedSlot(NodeId, Port, Cycle) override { ++counts.events; }
    void onSchedFlowRegistered(const OutputScheduler &, FlowId,
                               std::uint32_t) override
    {
        ++counts.events;
    }
    void onSchedGrant(const OutputScheduler &, FlowId, std::uint64_t,
                      Slot, std::uint64_t, Cycle) override
    {
        ++counts.events;
        ++counts.grants;
    }
    void onSchedSkipped(const OutputScheduler &, FlowId, std::uint32_t,
                        std::uint64_t, Cycle) override
    {
        ++counts.events;
        ++counts.skips;
    }
    void onSchedBookingCleared(const OutputScheduler &, Slot) override
    {
        ++counts.events;
    }
    void onSchedCreditReturn(const OutputScheduler &, Slot) override
    {
        ++counts.events;
        ++counts.creditReturns;
    }
    void onSchedCreditNegative(const OutputScheduler &, Cycle) override
    {
        ++counts.events;
    }
    void onSchedLocalReset(const OutputScheduler &, Cycle) override
    {
        ++counts.events;
        ++counts.localResets;
    }
    void onFaultInjected(FaultKind, NodeId, Cycle) override
    {
        ++counts.events;
    }
    void onFaultDetected(FaultKind, NodeId, Cycle, Cycle) override
    {
        ++counts.events;
    }
    void onFaultRecovered(FaultKind, NodeId, Cycle, Cycle) override
    {
        ++counts.events;
    }
    void onFlitDropped(NodeId, const Flit &, Cycle) override
    {
        ++counts.events;
    }
    void onSourceThrottled(NodeId, FlowId, StallReason, Cycle) override
    {
        ++counts.events;
    }
};

/** RunResult of a finished run, assembled as runExperiment does. */
RunResult
collectResult(const RunSpec &spec, Network &net, const Mesh2D &mesh,
              std::uint64_t steady_allocs)
{
    const MetricsCollector &m = net.metrics();
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
    for (const FlowSpec &f : spec.pattern.flows) {
        r.flowThroughput.push_back(m.flowThroughput(f.id));
        r.flowAvgLatency.push_back(m.flow(f.id).packetLatency.mean());
        r.flowMaxLatency.push_back(m.flow(f.id).packetLatency.max());
        r.flowP99Latency.push_back(m.flowLatencyPercentile(f.id, 0.99));
    }
    if (auto *loft = dynamic_cast<LoftNetwork *>(&net)) {
        r.linkUtilization = loft->linkUtilization(spec.cycles());
        r.localResets = loft->totalLocalResets();
        r.speculativeForwards = loft->totalSpeculativeForwards();
        r.emergentForwards = loft->totalEmergentForwards();
        r.anomalyViolations = loft->totalAnomalyViolations();
        r.missedSlots = loft->totalMissedSlots();
        r.lookaheadReissues = loft->totalLookaheadReissues();
        r.quantaScrubbed = loft->totalQuantaScrubbed();
    }
    if (auto *gsf = dynamic_cast<GsfNetwork *>(&net))
        r.frameRecycles = gsf->barrier().recycleCount();
    return r;
}

LoftSchedTotals
schedTotals(Network &net)
{
    LoftSchedTotals t;
    auto *loft = dynamic_cast<LoftNetwork *>(&net);
    if (!loft)
        return t;
    auto add = [&t](const OutputScheduler &s) {
        t.grants += s.grants();
        t.throttles += s.throttles();
        t.resets += s.resets();
        if (s.reservedSlotsTotal() > 0) {
            ++t.activeSchedulers;
            t.maxReservedSlots =
                std::max(t.maxReservedSlots, s.reservedSlotsTotal());
        }
    };
    for (NodeId n = 0; n < net.mesh().numNodes(); ++n) {
        for (std::size_t p = 0; p < kNumPorts; ++p)
            add(loft->dataRouter(n).scheduler(static_cast<Port>(p)));
        add(loft->source(n).scheduler());
    }
    return t;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Uniform and neighbor attach no harness observer. */
bool
observerFree(const RunConfig &c)
{
    return !c.audit && !c.telemetry.enabled && !c.trace.enabled;
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Unit of every metric the benchmark prints, by name. */
const std::map<std::string, std::string> &
unitTable()
{
    static const std::map<std::string, std::string> units = {
        {"sim_cycles_per_s", "cycles/s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"pkt_latency_p50_cycles", "cycles"},
        {"pkt_latency_p99_cycles", "cycles"},
        {"accepted_flits_per_node_cycle", "flit/node/cycle"},
        {"victim_p99_cycles", "cycles"},
        {"harness.build_network_s", "s"},
        {"net.register_flows_s", "s"},
        {"traffic.configure_s", "s"},
        {"sim.attach_s", "s"},
        {"sim.warmup_s", "s"},
        {"sim.measure_s", "s"},
        {"sim.ticks_executed", "count"},
        {"sim.ticks_skipped", "count"},
        {"sim.tick_useful_ratio", "ratio"},
        {"sim.host_ns_per_executed_tick", "ns"},
        {"sim.active_components_p50", "count"},
        {"sim.active_components_p99", "count"},
        {"sim.chunk_ms_p50", "ms"},
        {"sim.chunk_ms_p99", "ms"},
        {"sim.chunk_samples", "count"},
        {"sim.steady_heap_allocs", "count"},
        {"sim.partitioned2_cycles_per_s", "cycles/s"},
        {"sim.partitioned2_speedup", "ratio"},
        {"core.sched_grants", "count"},
        {"core.sched_throttles", "count"},
        {"core.sched_grant_ratio", "ratio"},
        {"core.sched_credit_returns", "count"},
        {"core.sched_local_resets", "count"},
        {"core.sched_skips", "count"},
        {"core.spec_forward_ratio", "ratio"},
        {"core.missed_slots", "count"},
        {"core.anomaly_violations", "count"},
        {"core.sched_ns_per_grant", "ns"},
        {"core.sched_ns_per_credit_return", "ns"},
        {"core.sched_ns_per_local_reset", "ns"},
        {"core.sched_ns_per_advance", "ns"},
        {"core.sched_share_est", "ratio"},
        {"audit.overhead_pct", "%"},
        {"telemetry.overhead_pct", "%"},
        {"trace.overhead_pct", "%"},
        {"observers.all_overhead_pct", "%"},
        {"net.observer_events_per_cycle", "events/cycle"},
        {"net.observer_ns_per_event", "ns"},
        {"core.dos_run_s", "s"},
        {"gsf.dos_run_s", "s"},
        {"router.dos_run_s", "s"},
        {"gsf.frame_recycles", "count"},
        {"perfbench.trace_overhead_pct", "%"},
    };
    return units;
}

/** Metric values by name, emitted in the manifest's order. */
class MetricSet
{
  public:
    void set(const std::string &name, double v) { values_[name] = v; }

    /** @p names in order; a metric never set reads 0. */
    std::vector<Metric>
    ordered(const std::vector<std::string> &names) const
    {
        std::vector<Metric> out;
        for (const std::string &n : names) {
            auto it = values_.find(n);
            out.push_back(Metric{n, it == values_.end() ? 0.0 : it->second,
                                 unitTable().at(n)});
        }
        return out;
    }

  private:
    std::map<std::string, double> values_;
};

/**
 * Record @p problem against @p o (makes the outcome incorrect) and
 * count @p runs of the attempted runs as failed.
 */
void
fail(Outcome &o, std::string problem, std::uint64_t runs)
{
    o.failed = std::min(o.failed + runs, o.attempted);
    o.problems.push_back(std::move(problem));
}

/** Check one run and count it. */
void
countRun(Outcome &o, const std::string &label, const RunResult &r)
{
    ++o.attempted;
    const std::string why = checkRun(r);
    if (!why.empty())
        fail(o, label + ": " + why, 1);
}

/**
 * Compare a workload fingerprint against the reference table; on a
 * mismatch the @p runs runs behind it count as failed.
 */
void
checkReference(Outcome &o, Workload w, std::uint64_t seed,
               const std::string &fp, const ReferenceTable &refs,
               std::uint64_t runs)
{
    auto it = refs.find({workloadName(w), seed});
    if (it == refs.end() || it->second == fp)
        return;
    fail(o,
         std::string(workloadName(w)) + " seed " + std::to_string(seed) +
             ": fingerprint " + fp + " != reference " + it->second,
         runs);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
overheadPct(double with, double bare)
{
    return bare > 0.0 ? 100.0 * (with / bare - 1.0) : 0.0;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "loft_uniform_16x16", "loft_neighbor_32x32", "dos_observed_8x8"};
    return names;
}

const char *
workloadName(Workload w)
{
    return workloadNames()[static_cast<std::size_t>(w)].c_str();
}

std::optional<Workload>
parseWorkload(const std::string &name)
{
    const auto &names = workloadNames();
    for (std::size_t i = 0; i < names.size(); ++i)
        if (names[i] == name)
            return static_cast<Workload>(i);
    return std::nullopt;
}

std::vector<RunSpec>
workloadRuns(Workload w, std::uint64_t seed)
{
    std::vector<RunSpec> runs;
    switch (w) {
      case Workload::LoftUniform16: {
        RunSpec s;
        s.label = "loft";
        s.config = baseConfig(NetKind::Loft, 16, kUniformWarmup,
                              kUniformMeasure, seed);
        // 256 random-destination flows reserve on every output port:
        // the frame covers maxFlows bookings, the buffer one frame.
        s.config.loft.frameSizeFlits = 1024;
        s.config.loft.centralBufferFlits = 1024;
        s.config.loft.specBufferFlits = 16;
        s.config.loft.maxFlows = 256;
        s.config.loft.sourceQueueFlits = 64;
        s.pattern = uniformPattern(Mesh2D(16, 16));
        setEqualSharesByMaxFlows(s.pattern.flows, 256);
        s.rates = uniformRates(s.pattern.flows.size(), 0.08);
        runs.push_back(std::move(s));
        break;
      }
      case Workload::LoftNeighbor32: {
        RunSpec s;
        s.label = "loft";
        s.config = baseConfig(NetKind::Loft, 32, kNeighborWarmup,
                              kNeighborMeasure, seed);
        s.config.loft.frameSizeFlits = 256;
        s.config.loft.centralBufferFlits = 256;
        s.config.loft.specBufferFlits = 16;
        s.config.loft.maxFlows = 64;
        s.config.loft.sourceQueueFlits = 64;
        s.pattern = neighborPattern(Mesh2D(32, 32));
        setEqualSharesByMaxFlows(s.pattern.flows, 64);
        s.rates = uniformRates(s.pattern.flows.size(), 0.05);
        runs.push_back(std::move(s));
        break;
      }
      case Workload::DosObserved8: {
        // Fig. 12 at top aggression: the victim is rate-regulated at
        // 0.2, the aggressors inject Bernoulli at 0.8; Table-1 params.
        const TrafficPattern p = dosPattern(Mesh2D(8, 8));
        std::vector<FlowRate> rates(3);
        rates[0].flitsPerCycle = 0.2;
        rates[0].process = InjectionProcess::Periodic;
        rates[1].flitsPerCycle = 0.8;
        rates[2].flitsPerCycle = 0.8;
        auto add = [&](NetKind kind, const char *label, Cycle warmup,
                       Cycle measure, std::uint64_t run_seed) {
            RunSpec s;
            s.label = label;
            s.config = baseConfig(kind, 8, warmup, measure, run_seed);
            s.config.loft.specBufferFlits = 12;
            s.config.audit = true;
            s.config.telemetry.enabled = true;
            s.config.telemetry.epochCycles = 500;
            s.config.telemetry.tracePackets = false;
            s.config.trace.enabled = true;
            s.config.trace.sampleRate = 0.05;
            s.pattern = p;
            s.rates = rates;
            runs.push_back(std::move(s));
        };
        for (std::uint64_t i = 0; i < kDosLoftSubSeeds; ++i)
            add(NetKind::Loft, "loft", kDosLoftWarmup, kDosLoftMeasure,
                mixSeed(seed, i));
        add(NetKind::Gsf, "gsf", kDosOtherWarmup, kDosOtherMeasure, seed);
        add(NetKind::Wormhole, "wormhole", kDosOtherWarmup,
            kDosOtherMeasure, seed);
        break;
      }
    }
    return runs;
}

EventCounts
operator-(const EventCounts &a, const EventCounts &b)
{
    EventCounts d;
    d.events = a.events - b.events;
    d.grants = a.grants - b.grants;
    d.creditReturns = a.creditReturns - b.creditReturns;
    d.localResets = a.localResets - b.localResets;
    d.skips = a.skips - b.skips;
    d.forwards = a.forwards - b.forwards;
    d.specForwards = a.specForwards - b.specForwards;
    return d;
}

int
SpanRecorder::open(std::string name)
{
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.startUs = nowUs();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    spans_.at(static_cast<std::size_t>(id)).durUs =
        nowUs() - spans_[static_cast<std::size_t>(id)].startUs;
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     origin_)
        .count();
}

bool
SpanRecorder::write(const std::string &path, std::uint32_t mesh_width,
                    std::uint32_t mesh_height) const
{
    ChromeTraceWriter w;
    w.metadata("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,"
               "\"args\":{\"name\":\"perfbench (host time)\"}}");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.durUs < 0.0)
            continue;
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":3,\"tid\":1,"
                      "\"args\":{\"id\":%zu,\"parent\":%d}}",
                      s.name.c_str(), s.startUs, s.durUs, i, s.parent);
        w.add(buf);
    }
    std::ofstream f(path);
    if (!f)
        return false;
    f << chromeTraceJson(w, mesh_width, mesh_height) << "\n";
    return static_cast<bool>(f);
}

ReplayResult
replayRun(const RunSpec &spec, const ReplayOptions &opt)
{
    const RunConfig &cfg = spec.config;
    SpanRecorder *sp = opt.spans;
    ScopedSpan whole(sp, "replay." + spec.label);
    ReplayResult out;

    CountingObserver counter;
    Mesh2D mesh(cfg.meshWidth, cfg.meshHeight);
    std::unique_ptr<Network> net;
    auto t0 = Clock::now();
    {
        ScopedSpan s(sp, "harness.buildNetwork");
        net = buildNetwork(cfg, mesh);
    }
    out.setup.buildNetwork = secondsSince(t0);
    net->metrics().setDeferredReserve(2 * mesh.numNodes() + 8);
    if (opt.countEvents)
        net->setObserver(&counter);

    t0 = Clock::now();
    {
        ScopedSpan s(sp, "net.registerFlows");
        net->registerFlows(spec.pattern.flows);
    }
    out.setup.registerFlows = secondsSince(t0);

    TrafficGenerator gen(*net, cfg.packetSizeFlits, cfg.seed);
    t0 = Clock::now();
    {
        ScopedSpan s(sp, "traffic.configure");
        gen.configure(spec.pattern.flows, spec.rates);
    }
    out.setup.configure = secondsSince(t0);

    Simulator sim;
    sim.add(&gen);
    t0 = Clock::now();
    {
        ScopedSpan s(sp, "net.attach");
        net->attach(sim);
    }
    out.setup.attach = secondsSince(t0);
    sim.setWorkers(opt.workers);
    if (opt.setupOnly)
        return out;

    t0 = Clock::now();
    {
        ScopedSpan s(sp, "sim.run.warmup");
        sim.run(cfg.warmupCycles);
    }
    out.warmupSeconds = secondsSince(t0);

    net->metrics().startMeasurement(sim.now());
    const EventCounts at_start = counter.counts;
    const std::uint64_t exec0 = sim.ticksExecuted();
    const std::uint64_t skip0 = sim.ticksSkipped();
    t0 = Clock::now();
    if (opt.chunkCycles == 0) {
        ScopedSpan s(sp, "sim.run.measure");
        sim.run(cfg.measureCycles);
        out.steadyAllocs = sim.lastRunHeapAllocs();
    } else {
        ScopedSpan s(sp, "sim.run.measure");
        for (Cycle done = 0; done < cfg.measureCycles;) {
            const Cycle n = std::min(opt.chunkCycles,
                                     cfg.measureCycles - done);
            const auto c0 = Clock::now();
            {
                ScopedSpan c(sp, "sim.run.chunk");
                sim.run(n);
            }
            out.chunkSeconds.push_back(secondsSince(c0));
            out.steadyAllocs += sim.lastRunHeapAllocs();
            out.activeComponents.push_back(
                static_cast<double>(sim.activeComponents()));
            done += n;
        }
    }
    out.measureSeconds = secondsSince(t0);
    out.ticksExecuted = sim.ticksExecuted() - exec0;
    out.ticksSkipped = sim.ticksSkipped() - skip0;
    out.measureEvents = counter.counts - at_start;
    out.runEvents = counter.counts.events;
    net->metrics().stopMeasurement(sim.now());

    out.result = collectResult(spec, *net, mesh, out.steadyAllocs);
    out.sched = schedTotals(*net);
    // The network must not publish to the counter once it is gone.
    net->setObserver(nullptr);
    return out;
}

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

std::string
workloadFingerprint(const std::vector<RunResult> &runs)
{
    std::string all;
    for (std::size_t i = 0; i < runs.size(); ++i)
        all += "#" + std::to_string(i) + " " + sweepFingerprint(runs[i]) +
               "\n";
    return fnv1aHex(all);
}

std::string
checkRun(const RunResult &r)
{
    if (r.auditHardViolations)
        return std::to_string(r.auditHardViolations) +
               " audit hard violations";
    if (r.auditWatchdogs)
        return std::to_string(r.auditWatchdogs) + " watchdog trips";
    if (r.anomalyViolations)
        return std::to_string(r.anomalyViolations) +
               " anomaly violations";
    if (r.traceSummary.enabled && r.traceSummary.decompositionMismatches)
        return std::to_string(r.traceSummary.decompositionMismatches) +
               " trace decomposition mismatches";
    if (r.totalPackets == 0)
        return "no packets delivered";
    return "";
}

double
groupZeroP99(const RunSpec &spec, const RunResult &r)
{
    const auto &groups = spec.pattern.groups;
    const auto n0 = std::count(groups.begin(), groups.end(), 0u);
    if (static_cast<std::size_t>(n0) == spec.pattern.flows.size())
        return r.p99PacketLatency;
    for (std::size_t i = 0; i < groups.size(); ++i)
        if (groups[i] == 0 && n0 == 1)
            return r.flowP99Latency.at(i);
    return -1.0; // several but not all flows: unsupported
}

ReferenceTable
loadReferences(const std::string &path)
{
    ReferenceTable refs;
    std::ifstream f(path);
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string name, fp;
        std::uint64_t seed = 0;
        if (is >> name >> seed >> fp)
            refs[{name, seed}] = fp;
    }
    return refs;
}

std::string
referenceLine(Workload w, std::uint64_t seed)
{
    std::vector<RunResult> results;
    for (const RunSpec &s : workloadRuns(w, seed))
        results.push_back(runExperiment(s.config, s.pattern, s.rates));
    return std::string(workloadName(w)) + " " + std::to_string(seed) +
           " " + workloadFingerprint(results);
}

const std::vector<std::string> &
endToEndMetricNames()
{
    static const std::vector<std::string> names = {
        "sim_cycles_per_s",       "setup_s",
        "peak_rss_mb",            "pkt_latency_p50_cycles",
        "pkt_latency_p99_cycles", "accepted_flits_per_node_cycle",
        "victim_p99_cycles",
    };
    return names;
}

const std::vector<std::string> &
perLayerMetricNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        const auto &e2e = endToEndMetricNames();
        for (const auto &[name, unit] : unitTable()) {
            (void)unit;
            if (std::find(e2e.begin(), e2e.end(), name) == e2e.end())
                v.push_back(name);
        }
        return v;
    }();
    return names;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank ? rank - 1 : 0)];
}

Outcome
measureEndToEnd(Workload w, std::uint64_t seed, double seconds,
                const ReferenceTable &refs)
{
    const std::vector<RunSpec> specs = workloadRuns(w, seed);
    Outcome o;
    std::vector<double> setup_samples, rate_samples;
    std::string fp0;
    std::vector<RunResult> first;

    ReplayOptions setup_only;
    setup_only.setupOnly = true;
    const auto start = Clock::now();
    for (int rep = 0; rep < kMaxReps; ++rep) {
        if (rep >= kMinReps && secondsSince(start) >= seconds)
            break;
        // Setup samples are spread over the whole run, a few before
        // each repetition, so host-load swings average out.
        for (int k = 0; k < kSetupsPerRep; ++k) {
            double st = 0.0;
            for (const RunSpec &s : specs)
                st += replayRun(s, setup_only).setup.total();
            setup_samples.push_back(st);
        }
        const double setup_per_run =
            median(setup_samples) / static_cast<double>(specs.size());
        double run_s = 0.0, cycles = 0.0;
        std::vector<RunResult> results;
        for (const RunSpec &s : specs) {
            if (observerFree(s.config)) {
                ReplayResult rr = replayRun(s, {});
                run_s += rr.warmupSeconds + rr.measureSeconds;
                results.push_back(std::move(rr.result));
            } else {
                // runExperiment builds its observers around the same
                // four setup calls; exclude their median cost.
                const auto t0 = Clock::now();
                results.push_back(
                    runExperiment(s.config, s.pattern, s.rates));
                run_s += std::max(0.0, secondsSince(t0) - setup_per_run);
            }
            cycles += static_cast<double>(s.cycles());
            countRun(o, s.label, results.back());
        }
        const std::string fp = workloadFingerprint(results);
        if (rep == 0) {
            fp0 = fp;
            first = std::move(results);
        } else if (fp != fp0) {
            fail(o,
                 "repetition " + std::to_string(rep) +
                     " diverged: fingerprint " + fp + " != " + fp0,
                 specs.size());
        }
        rate_samples.push_back(ratio(cycles, run_s));
    }
    // Every repetition reproduced fp0, so a mismatch fails them all.
    checkReference(o, w, seed, fp0, refs, o.attempted);

    MetricSet m;
    m.set("sim_cycles_per_s", median(rate_samples));
    m.set("setup_s", median(setup_samples));
    m.set("peak_rss_mb", peakRssMb());
    // Simulated metrics: mean over the runs of the first run's network
    // (a single run on uniform and neighbor, the LOFT sub-seeds on DoS).
    auto sim_mean = [&](auto metric) {
        double sum = 0.0, n = 0.0;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (specs[i].label != specs.front().label)
                continue;
            sum += metric(specs[i], first[i]);
            n += 1.0;
        }
        return ratio(sum, n);
    };
    m.set("pkt_latency_p50_cycles",
          sim_mean([](const RunSpec &, const RunResult &r) {
              return r.p50PacketLatency;
          }));
    m.set("pkt_latency_p99_cycles",
          sim_mean([](const RunSpec &, const RunResult &r) {
              return r.p99PacketLatency;
          }));
    m.set("accepted_flits_per_node_cycle",
          sim_mean([](const RunSpec &, const RunResult &r) {
              return r.networkThroughput;
          }));
    m.set("victim_p99_cycles", sim_mean(groupZeroP99));
    o.metrics = m.ordered(endToEndMetricNames());
    const double packets = sim_mean([](const RunSpec &, const RunResult &r) {
        return static_cast<double>(r.totalPackets);
    });
    std::printf("%s seed %llu: %zu repetitions, runs %llu, runs_failed "
                "%llu, packets delivered per %s run %.0f, fingerprint "
                "%s\n",
                workloadName(w), static_cast<unsigned long long>(seed),
                rate_samples.size(),
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed),
                specs.front().label.c_str(), packets, fp0.c_str());
    std::printf("sim_cycles_per_s by repetition:");
    for (double r : rate_samples)
        std::printf(" %.1f", r);
    std::printf("\nsetup_s samples:");
    for (double r : setup_samples)
        std::printf(" %.4f", r);
    std::printf("\n");
    return o;
}

Outcome
measurePerLayer(Workload w, std::uint64_t seed, double seconds,
                const ReferenceTable &refs, const std::string &span_path)
{
    const std::vector<RunSpec> specs = workloadRuns(w, seed);
    const RunSpec &main = specs.front();
    const RunConfig &mc = main.config;
    Outcome o;
    MetricSet m;
    SpanRecorder spans;
    const auto start = Clock::now();
    const int root = spans.open(std::string("perfbench.") +
                                workloadName(w));

    // Untraced baseline, then the traced replay of the same run.
    const ReplayResult base = replayRun(main, {});
    countRun(o, main.label + " untraced", base.result);
    ReplayOptions traced;
    traced.chunkCycles = std::max<Cycle>(1, mc.measureCycles / kTraceChunks);
    traced.countEvents = true;
    traced.spans = &spans;
    const ReplayResult tr = replayRun(main, traced);
    countRun(o, main.label + " traced", tr.result);
    const std::string base_fp = workloadFingerprint({base.result});
    if (workloadFingerprint({tr.result}) != base_fp)
        fail(o, "traced replay changed the simulated result", 1);
    if (specs.size() == 1)
        checkReference(o, w, seed, base_fp, refs, o.attempted);

    m.set("harness.build_network_s", tr.setup.buildNetwork);
    m.set("net.register_flows_s", tr.setup.registerFlows);
    m.set("traffic.configure_s", tr.setup.configure);
    m.set("sim.attach_s", tr.setup.attach);
    m.set("sim.warmup_s", tr.warmupSeconds);
    m.set("sim.measure_s", tr.measureSeconds);
    m.set("sim.ticks_executed", static_cast<double>(tr.ticksExecuted));
    m.set("sim.ticks_skipped", static_cast<double>(tr.ticksSkipped));
    m.set("sim.tick_useful_ratio",
          ratio(static_cast<double>(tr.ticksExecuted),
                static_cast<double>(tr.ticksExecuted + tr.ticksSkipped)));
    m.set("sim.host_ns_per_executed_tick",
          1e9 * ratio(base.measureSeconds,
                      static_cast<double>(tr.ticksExecuted)));
    m.set("sim.active_components_p50", percentile(tr.activeComponents, 0.5));
    m.set("sim.active_components_p99",
          percentile(tr.activeComponents, 0.99));
    std::vector<double> chunk_ms;
    for (double s : tr.chunkSeconds)
        chunk_ms.push_back(1e3 * s);
    m.set("sim.chunk_ms_p50", percentile(chunk_ms, 0.5));
    m.set("sim.chunk_ms_p99", percentile(chunk_ms, 0.99));
    m.set("sim.chunk_samples", static_cast<double>(chunk_ms.size()));
    // From the untraced run: every chunk boundary re-enters the run loop.
    m.set("sim.steady_heap_allocs", static_cast<double>(base.steadyAllocs));
    const double base_run_s = base.warmupSeconds + base.measureSeconds;
    m.set("perfbench.trace_overhead_pct",
          overheadPct(tr.warmupSeconds + tr.measureSeconds, base_run_s));

    // The same run partitioned over two intra-run workers.
    {
        ScopedSpan s(&spans, "replay.partitioned2");
        ReplayOptions p2opt;
        p2opt.workers = 2;
        const ReplayResult p2 = replayRun(main, p2opt);
        countRun(o, main.label + " partitioned2", p2.result);
        if (workloadFingerprint({p2.result}) != base_fp)
            fail(o, "2-worker run differs from the serial run", 1);
        const double p2_s = p2.warmupSeconds + p2.measureSeconds;
        m.set("sim.partitioned2_cycles_per_s",
              ratio(static_cast<double>(main.cycles()), p2_s));
        m.set("sim.partitioned2_speedup", ratio(base_run_s, p2_s));
    }

    // LOFT output-scheduler work in the measure window, and its cost
    // from the stand-alone timing loop at this workload's geometry.
    const EventCounts &ev = tr.measureEvents;
    m.set("core.sched_grants", static_cast<double>(ev.grants));
    m.set("core.sched_throttles", static_cast<double>(tr.sched.throttles));
    m.set("core.sched_grant_ratio",
          ratio(static_cast<double>(tr.sched.grants),
                static_cast<double>(tr.sched.grants + tr.sched.throttles)));
    m.set("core.sched_credit_returns",
          static_cast<double>(ev.creditReturns));
    m.set("core.sched_local_resets", static_cast<double>(ev.localResets));
    m.set("core.sched_skips", static_cast<double>(ev.skips));
    m.set("core.spec_forward_ratio",
          ratio(static_cast<double>(ev.specForwards),
                static_cast<double>(ev.forwards)));
    m.set("core.missed_slots", static_cast<double>(tr.result.missedSlots));
    m.set("core.anomaly_violations",
          static_cast<double>(tr.result.anomalyViolations));
    m.set("net.observer_events_per_cycle",
          ratio(static_cast<double>(ev.events),
                static_cast<double>(mc.measureCycles)));
    {
        ScopedSpan s(&spans, "core.OutputScheduler.timing");
        const double share =
            main.pattern.flows.empty() ? 0.0
                                       : main.pattern.flows[0].bwShare;
        const auto res_flits = static_cast<std::uint32_t>(
            std::lround(share * mc.loft.frameSizeFlits));
        const std::uint32_t r_slots = std::max<std::uint32_t>(
            1, res_flits / mc.loft.quantumFlits);
        const std::uint32_t port_flows =
            std::max<std::uint32_t>(1, tr.sched.maxReservedSlots / r_slots);
        const SchedCost c = timeOutputScheduler(
            mc.loft, port_flows, res_flits, std::min(1.0, seconds / 10.0));
        m.set("core.sched_ns_per_grant", c.nsPerGrant);
        m.set("core.sched_ns_per_credit_return", c.nsPerCreditReturn);
        m.set("core.sched_ns_per_local_reset", c.nsPerLocalReset);
        m.set("core.sched_ns_per_advance", c.nsPerAdvance);
        // Every active scheduler recycles one frame per F cycles.
        const double recycles =
            static_cast<double>(tr.sched.activeSchedulers) *
            static_cast<double>(mc.measureCycles) / mc.loft.frameSizeFlits;
        const double sched_ns =
            static_cast<double>(ev.grants) * c.nsPerGrant +
            static_cast<double>(ev.creditReturns) * c.nsPerCreditReturn +
            static_cast<double>(ev.localResets) * c.nsPerLocalReset +
            recycles * c.nsPerAdvance;
        m.set("core.sched_share_est",
              ratio(sched_ns, 1e9 * base.measureSeconds));
        std::printf("scheduler timing loop: %u flows/port, window %u slots; "
                    "core.sched_share_est %.3f (ROADMAP gprof split: "
                    "book 35%% + onCreditReturn 34%% + localReset 14%% "
                    "= 0.83 on the 16x16 uniform config)\n",
                    port_flows, mc.loft.windowSlots(),
                    ratio(sched_ns, 1e9 * base.measureSeconds));
    }

    if (w == Workload::DosObserved8) {
        // Observer cost: each network bare, with each observer alone,
        // and with all of them (the workload's own configuration).
        struct Variant
        {
            const char *name;
            bool audit, telemetry, trace;
        };
        const Variant variants[] = {{"bare", false, false, false},
                                    {"audit", true, false, false},
                                    {"telemetry", false, true, false},
                                    {"trace", false, false, true},
                                    {"all", true, true, true}};
        std::map<std::string, double> wall; // variant -> seconds
        // network -> variant -> seconds
        std::map<std::string, std::map<std::string, double>> net_wall;
        std::vector<RunResult> all_results;
        for (const RunSpec &s : specs) {
            // The first run of each network times every variant; the
            // other LOFT sub-seeds run as configured, for the reference.
            const bool timed = !net_wall.count(s.label);
            for (const Variant &v : variants) {
                const bool is_all = std::string(v.name) == "all";
                if (!timed && !is_all)
                    continue;
                RunConfig c = s.config;
                c.audit = v.audit;
                c.telemetry.enabled = v.telemetry;
                c.trace.enabled = v.trace;
                ScopedSpan span(&spans, "harness.runExperiment." +
                                            s.label + "." + v.name);
                const auto t0 = Clock::now();
                RunResult r = runExperiment(c, s.pattern, s.rates);
                const double t = secondsSince(t0);
                countRun(o, s.label + "." + v.name, r);
                if (timed) {
                    wall[v.name] += t;
                    net_wall[s.label][v.name] = t;
                }
                if (s.label == "gsf" && is_all)
                    m.set("gsf.frame_recycles",
                          static_cast<double>(r.frameRecycles));
                if (is_all)
                    all_results.push_back(std::move(r));
            }
        }
        checkReference(o, w, seed, workloadFingerprint(all_results), refs,
                       all_results.size());
        if (workloadFingerprint({all_results.front()}) != base_fp)
            fail(o, "observers changed the simulated LOFT result", 1);
        auto &loft_wall = net_wall["loft"];
        m.set("audit.overhead_pct", overheadPct(wall["audit"], wall["bare"]));
        m.set("telemetry.overhead_pct",
              overheadPct(wall["telemetry"], wall["bare"]));
        m.set("trace.overhead_pct", overheadPct(wall["trace"], wall["bare"]));
        m.set("observers.all_overhead_pct",
              overheadPct(wall["all"], wall["bare"]));
        m.set("core.dos_run_s", loft_wall["all"]);
        m.set("gsf.dos_run_s", net_wall["gsf"]["all"]);
        m.set("router.dos_run_s", net_wall["wormhole"]["all"]);
        // All-observer cost per LOFT event (the counter saw them all).
        m.set("net.observer_ns_per_event",
              1e9 * ratio(loft_wall["all"] - loft_wall["bare"],
                          static_cast<double>(tr.runEvents)));
    } else {
        // No harness observers: the counting observer's own cost.
        m.set("net.observer_ns_per_event",
              1e9 * ratio(tr.measureSeconds - base.measureSeconds,
                          static_cast<double>(ev.events)));
    }

    spans.close(root);
    if (!span_path.empty() &&
        !spans.write(span_path, mc.meshWidth, mc.meshHeight))
        fail(o, "cannot write span file " + span_path, 0);
    o.metrics = m.ordered(perLayerMetricNames());
    std::printf("%s seed %llu traced: %zu spans, %.1f s host, runs %llu, "
                "runs_failed %llu\n",
                workloadName(w), static_cast<unsigned long long>(seed),
                spans.size(), secondsSince(start),
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed));
    return o;
}

std::string
resultJson(const Outcome &o)
{
    std::string s = "{\"correct\": ";
    s += o.correct() ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(o.attempted);
    s += ", \"failed\": " + std::to_string(o.failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < o.metrics.size(); ++i) {
        const Metric &mt = o.metrics[i];
        s += i ? ", " : "";
        s += "\"" + mt.name + "\": {\"value\": " + fmt(mt.value) +
             ", \"unit\": \"" + mt.unit + "\"}";
    }
    return s + "}}";
}

} // namespace perfbench
