/**
 * @file
 * Experiment harness shared by benches, examples and integration
 * tests: builds one of the three networks, drives a traffic pattern,
 * and collects the metrics the paper reports.
 */

#ifndef NOC_HARNESS_EXPERIMENT_HH
#define NOC_HARNESS_EXPERIMENT_HH

#include <array>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/loft_network.hh"
#include "faults/fault_plan.hh"
#include "gsf/gsf_network.hh"
#include "router/wormhole_network.hh"
#include "telemetry/telemetry.hh"
#include "trace/trace.hh"
#include "traffic/generator.hh"
#include "traffic/pattern.hh"

namespace noc
{

/** Which network architecture to simulate. */
enum class NetKind
{
    Loft,
    Gsf,
    Wormhole,
};

/** "loft", "gsf" or "wormhole": bench JSON keys and trace dumps. */
const char *netKindName(NetKind kind);

/** gtest value printer: parameterized test names show netKindName. */
void PrintTo(NetKind kind, std::ostream *os);

struct RunConfig
{
    NetKind kind = NetKind::Loft;
    std::uint32_t meshWidth = 8;
    std::uint32_t meshHeight = 8;
    std::uint32_t packetSizeFlits = 4;
    Cycle warmupCycles = 20000;
    Cycle measureCycles = 30000;
    std::uint64_t seed = 1;

    LoftParams loft;
    GsfParams gsf;
    WormholeParams wormhole;

    /**
     * Worker threads advancing the mesh inside this single run
     * (spatial partitioning; see docs/PARALLEL.md). 1 = serial
     * (default), 0 = hardware concurrency. Results are bit-identical
     * to a serial run for any worker count, fault plans included.
     */
    unsigned intraRunWorkers = 1;

    /**
     * Attach a NetworkAuditor for the run (src/audit). Default on so
     * every experiment doubles as an invariant check.
     */
    bool audit = true;

    /**
     * Attach a TelemetryCollector (src/telemetry) for the run. Off by
     * default; set telemetry.enabled = true to turn it on. Composable
     * with `audit` — the harness fans the observer hook out through an
     * ObserverMux when both are requested. The per-flow QoS classes of
     * the collector are taken from the traffic pattern's group labels.
     */
    TelemetryConfig telemetry;

    /**
     * Attach a TraceCollector (src/trace) for the run: causal latency
     * decomposition, blame attribution, and the black-box flight
     * recorder. Off by default; set trace.enabled = true to arm it.
     * Passive — the sweep fingerprint and all metrics are bit-identical
     * with tracing on or off, for any worker count. When an auditor is
     * also attached its violations trigger automatic flight-recorder
     * dumps (trace.dumpDir). Packet sampling hashes the run seed.
     */
    TraceConfig trace;

    /**
     * Deterministic fault-injection schedule (src/faults). Inert by
     * default; set faults.enabled plus at least one non-zero rate to
     * arm it. With an active plan the harness offers every channel of
     * the network to the injector, which faults a wire with the
     * classes its message type can carry (look-ahead drops and credit
     * loss/corruption exist only on LOFT wires); for LOFT it also
     * enables loft.recovery. A FaultMonitor is attached when at least
     * one wire was faulted.
     */
    FaultPlan faults;

    /**
     * Honour the LOFT_SIM_SCALE environment variable (a positive float
     * multiplying warmup/measure cycles) for quick smoke runs.
     */
    void applyEnvScale();
};

struct RunResult
{
    double avgPacketLatency = 0.0;
    double maxPacketLatency = 0.0;
    /** 50th / 95th / 99th percentile packet latency (cycles). */
    double p50PacketLatency = 0.0;
    double p95PacketLatency = 0.0;
    double p99PacketLatency = 0.0;
    /** Accepted network throughput in flits/cycle/node. */
    double networkThroughput = 0.0;
    std::vector<double> flowThroughput;
    std::vector<double> flowAvgLatency;
    std::vector<double> flowMaxLatency;
    /** Per-flow tail latency (99th percentile, cycles). */
    std::vector<double> flowP99Latency;
    std::uint64_t totalFlits = 0;
    std::uint64_t totalPackets = 0;

    /**
     * Heap allocations performed during the measurement phase (the
     * warm-up run is the model's allocation ramp). 0 in steady state by
     * design — asserted by the scale bench and the soak tests. NOT part
     * of sweepFingerprint: it reflects the allocator census, not model
     * behaviour.
     */
    std::uint64_t steadyStateHeapAllocs = 0;

    /// @name LOFT-specific diagnostics (zero for other networks)
    /// @{
    std::uint64_t localResets = 0;
    std::uint64_t speculativeForwards = 0;
    std::uint64_t emergentForwards = 0;
    std::uint64_t anomalyViolations = 0;
    std::uint64_t missedSlots = 0;
    /// @}

    /// @name GSF-specific diagnostics
    /// @{
    std::uint64_t frameRecycles = 0;
    /// @}

    /**
     * LOFT only: per-link utilization over the measurement window,
     * node-major / port-minor (see LoftNetwork::linkUtilization).
     */
    std::vector<double> linkUtilization;

    /// @name Invariant audit (zero when auditing is off)
    /// @{
    /** Hard violations (everything except the soft watchdog). */
    std::uint64_t auditHardViolations = 0;
    /** Watchdog (deadlock/starvation) trips. */
    std::uint64_t auditWatchdogs = 0;
    /** Text report; empty when the run was clean. */
    std::string auditReport;
    /// @}

    /// @name Fault injection (all zero unless the plan was active)
    /// @{
    /** Events by kind; index with static_cast<size_t>(FaultKind). */
    std::array<std::uint64_t, kNumFaultKinds> faultsInjected{};
    std::array<std::uint64_t, kNumFaultKinds> faultsDetected{};
    std::array<std::uint64_t, kNumFaultKinds> faultsRecovered{};
    /** Data flits retired by recovery give-up. */
    std::uint64_t faultFlitsDropped = 0;
    /** Look-ahead flits re-synthesized after a reservation timeout. */
    std::uint64_t lookaheadReissues = 0;
    /** Stale scheduled records reclaimed by the table scrub. */
    std::uint64_t quantaScrubbed = 0;
    /** Delivered / accepted packets over the whole run (1.0 clean). */
    double packetSurvivalRate = 1.0;
    /** p99 cycles from injection to detection / recovery. */
    double faultDetectionP99 = 0.0;
    double faultRecoveryP99 = 0.0;
    /// @}

    /**
     * The run's telemetry collector (null unless
     * RunConfig::telemetry.enabled). Epochs are closed and ready for
     * export when runExperiment returns.
     */
    std::shared_ptr<TelemetryCollector> telemetry;

    /**
     * The run's trace collector (null unless RunConfig::trace.enabled).
     * finish() has been called; dumps and span export are ready. NOT
     * serialized into sweepFingerprint — tracing stays invisible to
     * determinism identities.
     */
    std::shared_ptr<TraceCollector> trace;
    /** Rollup of the trace collector (enabled == false when absent). */
    TraceSummary traceSummary;
};

/**
 * Build the network selected by @p config on @p mesh. @p mesh must
 * outlive the returned network; so must @p faults when given (its
 * sites are referenced by the network's channels).
 */
std::unique_ptr<Network> buildNetwork(const RunConfig &config,
                                      const Mesh2D &mesh,
                                      FaultInjector *faults = nullptr);

/**
 * Build the configured network, register the pattern's flows, warm up,
 * measure, and report. @p rates is parallel to pattern.flows.
 */
RunResult runExperiment(const RunConfig &config,
                        const TrafficPattern &pattern,
                        const std::vector<FlowRate> &rates);

/** Convenience: run with a single Bernoulli rate for all flows. */
RunResult runExperiment(const RunConfig &config,
                        const TrafficPattern &pattern,
                        double flits_per_cycle);

/** Build rate vectors. */
std::vector<FlowRate> uniformRates(std::size_t num_flows,
                                   double flits_per_cycle);

} // namespace noc

#endif // NOC_HARNESS_EXPERIMENT_HH
