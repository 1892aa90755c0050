/**
 * @file
 * In-network telemetry: a passive NetObserver + Clocked collector that
 * turns the instrumentation event stream (net/instrument.hh) into
 *
 *  - per-router-port time-series counters sampled on a configurable
 *    epoch: link utilization (data flits forwarded), speculative-switch
 *    hits (early forwards) and misses (missed switching slots),
 *    look-ahead admissions into the input reservation tables, LSF slot
 *    grants, virtual-credit returns, FRS skipped(i) yields, local
 *    status resets, and reservation-table / input-buffer occupancy
 *    gauges;
 *  - per-QoS-class packet-latency histograms (log-bucketed,
 *    p50/p90/p99/max) gated to the same measurement window as
 *    MetricsCollector, which owns the per-flow and network-wide
 *    window statistics;
 *  - a Chrome trace-event JSON (loadable in Perfetto / about:tracing)
 *    of packet lifecycle spans keyed by packet id;
 *  - CSV exports: the epoch time series and a width x height
 *    link-utilization heatmap.
 *
 * Like the auditor, the collector only observes — an instrumented run
 * is cycle-for-cycle identical to a bare one. See docs/TELEMETRY.md
 * for the export schemas.
 */

#ifndef NOC_TELEMETRY_TELEMETRY_HH
#define NOC_TELEMETRY_TELEMETRY_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/metrics.hh"
#include "net/network.hh"
#include "sim/clocked.hh"
#include "telemetry/chrome_trace.hh"
#include "sim/report.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace noc
{

/** Knobs of the telemetry collector (harness: RunConfig::telemetry). */
struct TelemetryConfig
{
    /** Attach a TelemetryCollector to the run (harness flag). */
    bool enabled = false;
    /** Sampling period of the time-series counters, in cycles. */
    Cycle epochCycles = 1000;
    /** Emit packet lifecycle spans into the Chrome trace. */
    bool tracePackets = true;
};

/**
 * Counters of one (router, lane) pair accumulated over one epoch.
 * Lanes 0..kNumPorts-1 are the router's ports; lane kNiLane is the
 * node's network interface (its source scheduler and injection link).
 * Forward-side counters are keyed by the *output* port of the event;
 * lookaheadAdmits is keyed by the *input* port it arrived on.
 */
struct LaneCounters
{
    std::uint64_t flitsForwarded = 0; ///< data flits sent out the lane
    std::uint64_t specForwards = 0;   ///< thereof speculative (early)
    std::uint64_t missedSlots = 0;    ///< scheduled slots missed
    std::uint64_t lookaheadAdmits = 0;
    std::uint64_t grants = 0;         ///< LSF slot grants
    std::uint64_t creditReturns = 0;  ///< virtual credits returned
    std::uint64_t skippedQuanta = 0;  ///< FRS skipped(i) yields
    std::uint64_t localResets = 0;
    /** Live bookings in the lane's output reservation table, sampled
     *  at the epoch close (a gauge, not a delta). */
    std::uint64_t tableOccupancy = 0;

    bool operator==(const LaneCounters &) const = default;
};

/** Node-level values of one epoch. */
struct NodeCounters
{
    /** Data flits buffered in the router, sampled at the epoch close. */
    std::uint64_t bufferOccupancy = 0;
    std::uint64_t flitsEjected = 0;   ///< delta over the epoch
    std::uint64_t packetsDelivered = 0;
    /** Fault-injection events at the node (deltas; all kinds summed). */
    std::uint64_t faultsInjected = 0;
    std::uint64_t faultsDetected = 0;
    std::uint64_t faultsRecovered = 0;

    bool operator==(const NodeCounters &) const = default;
};

/**
 * One closed sampling epoch: [start, end) in cycles. Most lanes of a
 * mesh are idle in most epochs, so only the lanes and nodes with a
 * nonzero counter are stored; lane() and node() read zero for the
 * rest.
 */
struct TelemetryEpoch
{
    Cycle start = 0;
    Cycle end = 0;
    /** (node * kNumLanes + lane, counters), ascending index. */
    std::vector<std::pair<std::uint32_t, LaneCounters>> lanes;
    /** (node, counters), ascending node. */
    std::vector<std::pair<std::uint32_t, NodeCounters>> nodes;

    /** Counters of lane index @p i (node-major, lane-minor). */
    const LaneCounters &lane(std::size_t i) const;
    /** Node-level values of node @p n. */
    const NodeCounters &node(std::size_t n) const;
};

// Hooks the collector leaves at NetObserver's empty defaults, and why:
//  - onQuantumScheduled: grant counters come from onSchedGrant; the
//    router-side echo would double-count.
//  - onNiQuantumScheduled: same, for the NI.
//  - onSchedFlowRegistered: static setup, not a time-series event.
//  - onSchedBookingCleared: table occupancy is sampled as a gauge each
//    epoch, not replayed from events.
//  - onSchedCreditNegative: anomaly counting is the auditor's job;
//    telemetry reports the scheduler's own counter.
//  - onSourceThrottled: stall attribution is the trace subsystem's job
//    (src/trace); the time series already reflects back-pressure
//    through the utilization counters.
// loft-tidy: phase-serial — keyless: ticked in the serial epilogue and
//     fed through the ObserverMux merge, never inside the partitioned
//     phase of a run with two or more domains.
class TelemetryCollector final : public NetObserver, public Clocked
{
  public:
    /**
     * @param mesh     topology (dimensions are baked into exports).
     * @param config   sampling / tracing knobs.
     * @param class_of QoS class per FlowId (index = flow id); flows
     *                 beyond the vector fall into class 0.
     * @param class_names printable names parallel to the class ids
     *                 (missing entries are synthesized as "class<i>").
     */
    TelemetryCollector(const Mesh2D &mesh, TelemetryConfig config = {},
                       std::vector<std::uint32_t> class_of = {},
                       std::vector<std::string> class_names = {});

    /** Install on @p net (directly or behind an ObserverMux). */
    const TelemetryConfig &config() const { return cfg_; }

    /// @name Measurement window (mirrors MetricsCollector)
    /// @{
    void startMeasurement(Cycle now);
    void stopMeasurement(Cycle now);
    /// @}

    /** Close the trailing partial epoch; call once after the run.
     *  Later events and ticks are ignored. */
    void finish(Cycle now);

    /** Drops every event once finish() has run. Takes a packet's
     *  delivery (latency sample and closing span) straight from the
     *  event. */
    void consume(const NetEvent &e) override;

    /// @name Results
    /// @{
    const std::vector<TelemetryEpoch> &epochs() const { return epochs_; }
    std::size_t numNodes() const { return numNodes_; }
    std::uint32_t meshWidth() const { return width_; }
    std::uint32_t meshHeight() const { return height_; }

    /** Full-run cumulative counters of one lane. */
    const LaneCounters &lane(NodeId node, std::size_t lane) const;

    /**
     * In-window latency distribution of one QoS class. Per-flow and
     * whole-network window statistics live in the MetricsCollector.
     */
    const LogHistogram &classLatency(std::uint32_t cls) const;
    std::size_t numClasses() const { return classHist_.size(); }
    const std::string &className(std::uint32_t cls) const
    {
        return classNames_.at(cls);
    }

    std::uint64_t traceEventsDropped() const { return trace_.dropped(); }
    std::uint64_t traceEventsRecorded() const { return trace_.size(); }
    /** The raw span buffer, for merged exports (chromeTraceJson()). */
    const ChromeTraceWriter &traceWriter() const { return trace_; }
    /// @}

    /// @name Exports (see docs/TELEMETRY.md for the schemas)
    /// @{

    /** Epoch time series, one row per (epoch, node, lane). */
    std::string timeSeriesCsv() const;

    /** Chrome trace-event JSON (Perfetto / about:tracing loadable). */
    std::string chromeTraceJson() const;

    /**
     * width x height grid of per-node output-link utilization in
     * [0, 1]: flits forwarded over all router output ports divided by
     * (active ports x cycles observed). Row 0 is y = 0.
     */
    std::string heatmapCsv() const;

    /** Per-QoS-class latency summary (p50/p90/p99/max/mean). */
    ReportTable classLatencyTable() const;

    /** The @p n busiest (node, lane) pairs by flits forwarded. */
    ReportTable hotLinksTable(std::size_t n = 10) const;
    /// @}

    // Clocked: closes sampling epochs.
    void tick(Cycle now) override;

  protected:
    // NetObserver
    void onPacketAccepted(NodeId node, const Packet &pkt,
                          Cycle now) override;
    void onFlitSourced(NodeId node, const Flit &flit, bool spec,
                       Cycle now) override;
    void onFlitArrived(NodeId node, Port in, const Flit &flit, bool spec,
                       Cycle now) override;
    void onFlitForwarded(NodeId node, Port out, const Flit &flit,
                         bool spec, Cycle now) override;
    void onFlitEjected(NodeId node, const Flit &flit, Cycle now) override;
    void onFlitDropped(NodeId node, const Flit &flit, Cycle now) override;
    void onLookaheadAdmitted(NodeId node, Port in, const LookaheadFlit &la,
                             Cycle now) override;
    void onMissedSlot(NodeId node, Port out, Cycle now) override;
    void onSchedGrant(const OutputScheduler &sched, FlowId flow,
                      std::uint64_t quantum_no, Slot abs_slot,
                      std::uint64_t frame, Cycle now) override;
    void onSchedSkipped(const OutputScheduler &sched, FlowId flow,
                        std::uint32_t quanta, std::uint64_t frame,
                        Cycle now) override;
    void onSchedCreditReturn(const OutputScheduler &sched,
                             Slot abs_slot) override;
    void onSchedLocalReset(const OutputScheduler &sched,
                           Cycle now) override;
    void onFaultInjected(FaultKind kind, NodeId node, Cycle now) override;
    void onFaultDetected(FaultKind kind, NodeId node, Cycle injected_at,
                         Cycle now) override;
    void onFaultRecovered(FaultKind kind, NodeId node, Cycle injected_at,
                          Cycle now) override;

  private:
    LaneCounters &laneRef(NodeId node, std::size_t lane)
    {
        return cur_[laneIndex(node, lane)];
    }

    /** The lane index of @p sched's site; remembers the scheduler
     *  for the occupancy gauge. */
    std::size_t schedLane(const OutputScheduler &sched);

    std::uint32_t classOfFlow(FlowId flow) const;
    void closeEpoch(Cycle end);
    void traceEvent(std::string json);

    std::uint32_t width_;
    std::uint32_t height_;
    std::size_t numNodes_;
    TelemetryConfig cfg_;

    /// Cumulative (full-run) counters; epochs snapshot deltas.
    std::vector<LaneCounters> cur_;
    std::vector<LaneCounters> lastLanes_;
    std::vector<std::uint64_t> buffered_;       ///< per-node gauge
    std::vector<std::uint64_t> ejected_;        ///< per-node cumulative
    std::vector<std::uint64_t> delivered_;      ///< per-node cumulative
    std::vector<std::uint64_t> lastEjected_;
    std::vector<std::uint64_t> lastDelivered_;
    std::vector<std::uint64_t> faultsInjected_; ///< per-node cumulative
    std::vector<std::uint64_t> faultsDetected_;
    std::vector<std::uint64_t> faultsRecovered_;
    std::vector<std::uint64_t> lastFaultsInjected_;
    std::vector<std::uint64_t> lastFaultsDetected_;
    std::vector<std::uint64_t> lastFaultsRecovered_;
    std::vector<TelemetryEpoch> epochs_;
    Cycle epochStart_ = 0;
    bool finished_ = false;

    /// The scheduler at each lane index, once it has sent an event.
    std::vector<const OutputScheduler *> schedOfLane_;

    /// Measurement window state (per-class latency).
    bool measuring_ = false;
    std::vector<std::uint32_t> classOf_;
    std::vector<std::string> classNames_;
    std::vector<LogHistogram> classHist_;

    ChromeTraceWriter trace_; ///< complete JSON event objects
};

} // namespace noc

#endif // NOC_TELEMETRY_TELEMETRY_HH
