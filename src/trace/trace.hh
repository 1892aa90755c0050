/**
 * @file
 * Causal packet tracing, tail-latency blame attribution, and a
 * black-box flight recorder over the NetObserver hook surface.
 *
 * The TraceCollector follows every packet's head flit through its full
 * lifecycle and decomposes the end-to-end latency into named stages
 * that sum EXACTLY to the measured latency (delivered - accepted):
 *
 *   src_queue        source-queue wait until the NI schedules (LOFT:
 *                    the head quantum's NI grant; others: until the
 *                    head flit is sourced)
 *   src_reservation  NI grant -> head flit on the wire (LOFT only)
 *   link             wire traversal between consecutive hop events
 *   lookahead_wait   per hop: head arrival -> scheduling decision
 *   reservation_wait per hop: decision -> booked slot start
 *   switch_stall     per hop: residual switch/arbitration stall
 *   spec_savings     per hop: cycles saved by forwarding BEFORE the
 *                    booked slot (speculative switching; subtracted)
 *   sink_reassembly  head flit ejected -> packet fully delivered
 *
 * The per-hop identity (lookahead_wait + reservation_wait +
 * switch_stall - spec_savings == forward - arrive) holds for every
 * ordering of arrival, decision and booked slot, so the full
 * decomposition telescopes with no remainder. On fabrics without a
 * reservation protocol (wormhole, GSF) the per-hop residency lands
 * entirely in switch_stall, which keeps blame comparable across all
 * three NetKinds.
 *
 * For every stall cycle the collector attributes *blame* to the
 * competing flow that held the output port during the wait window
 * (bounded per-(router,port) rings of recent forwards), producing a
 * flow x flow interference matrix plus full per-hop exemplar traces
 * for sampled packets and the largest-latency (tail) packets.
 *
 * Independently of sampling, a bounded per-router ring buffer (the
 * flight recorder) keeps the last N observer events per node and is
 * dumped automatically on deadlock-watchdog trips / audit violations
 * (via NetworkAuditor::setPostmortem) and fault-recovery give-up
 * (onFlitDropped).
 *
 * The collector is passive (it never mutates network state, uses no
 * RNG stream — sampling is a mixSeed hash of the packet id — and
 * sits downstream of the ObserverMux merge), so results and
 * dumps are bit-identical for any worker count, and runs are
 * cycle-identical with tracing on or off. See docs/TRACING.md.
 */

#ifndef NOC_TRACE_TRACE_HH
#define NOC_TRACE_TRACE_HH

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/flit.hh"
#include "net/instrument.hh"
#include "net/packet.hh"
#include "net/topology.hh"
#include "sim/types.hh"
#include "telemetry/chrome_trace.hh"

namespace noc
{

/** Knobs of the trace collector (harness: RunConfig::trace). */
struct TraceConfig
{
    /** Attach a TraceCollector to the run (harness flag). */
    bool enabled = false;
    /** Probability that a packet's full exemplar trace is retained
     *  (aggregates and blame always cover every packet). Sampling is
     *  a mixSeed hash of (run seed, flow, packet id) — no RNG stream. */
    double sampleRate = 0.05;
    /** Full exemplar traces kept for the K largest-latency packets
     *  regardless of sampling (the >= p99 tail of any run with
     *  >= 100/K packets per flow). */
    std::uint32_t tailExemplars = 8;
    /** Cap on buffered Chrome trace span events. */
    std::size_t maxSpanEvents = 100000;
    /** Directory for automatic postmortem / end-of-run dump files
     *  (empty disables file output; dumpJson() always works). */
    std::string dumpDir;
};

/** The exactly-summing latency stages (see file header). */
enum class TraceStage : std::uint8_t
{
    SrcQueue,
    SrcReservation,
    Link,
    LookaheadWait,
    ReservationWait,
    SwitchStall,
    SpecSavings, ///< subtracted, not added
    SinkReassembly,
};

constexpr std::size_t kNumTraceStages = 8;

/** Stable snake_case stage name ("src_queue", ...). */
const char *traceStageName(TraceStage stage);

/** One interference-matrix entry: @p aggressor held slots/ports while
 *  @p victim waited, for @p cycles attributed stall cycles. */
struct TraceInterference
{
    FlowId victim = kInvalidFlow;
    FlowId aggressor = kInvalidFlow;
    std::uint64_t cycles = 0;
};

/** Per-run rollup surfaced on RunResult (and consolidated by the
 *  sweep engine). NOT part of sweepFingerprint: tracing must be
 *  invisible to the determinism identity. */
struct TraceSummary
{
    bool enabled = false;
    std::uint64_t packetsTraced = 0;  ///< delivered with a full timeline
    std::uint64_t packetsSampled = 0; ///< thereof exemplar-retained
    /** Packets whose stage sum failed to match measured latency
     *  (always 0; asserted by tests/test_tracing.cc). */
    std::uint64_t decompositionMismatches = 0;
    /** Sum of end-to-end latencies of traced packets, in cycles. */
    std::uint64_t totalLatencyCycles = 0;
    std::array<std::uint64_t, kNumTraceStages> stageCycles{};
    /** Stall cycles blamed on a specific competing flow. */
    std::uint64_t blameAttributed = 0;
    /** Stall cycles with no competing forward in the ring window. */
    std::uint64_t blameUnattributed = 0;
    /** Largest interference pairs, descending by cycles (then by
     *  victim, aggressor), capped at 64 entries. */
    std::vector<TraceInterference> topInterference;
};

/** Merge stage totals and interference matrices of several runs
 *  (submission order; deterministic). */
TraceSummary mergeTraceSummaries(const std::vector<TraceSummary> &parts);

// Hooks the collector leaves at NetObserver's empty defaults, and why:
//  - onSchedFlowRegistered: static setup; the blame windows come from
//    the forward/sourced events.
//  - onSchedGrant: the router-side onQuantumScheduled echo carries the
//    packet identity the trace needs; raw grants do not name a packet.
//  - onSchedSkipped: FRS bookkeeping, not a packet-lifecycle event.
//  - onSchedBookingCleared: booking teardown; the decomposition only
//    needs the grant-time slot.
//  - onSchedCreditReturn: credit plumbing, audited elsewhere;
//    irrelevant to latency attribution.
//  - onSchedCreditNegative: anomaly counting is the auditor's job.
//  - onSchedLocalReset: rebases scheduler slot origins; per-packet
//    timelines are unaffected.
//  - onFaultInjected, onFaultDetected, onFaultRecovered: fault
//    accounting lives in FaultMonitor; the flight recorder captures
//    the consequences (drops, stalls) at flit granularity.
class TraceCollector final : public NetObserver
{
  public:
    /**
     * @param mesh            topology (dumps bake the dimensions in).
     * @param config          sampling / span / dump knobs.
     * @param kind_name       NetKind label for dumps ("loft", ...).
     * @param cycles_per_slot LOFT quantum slot length in cycles; 0 on
     *                        fabrics without slot reservations, which
     *                        routes all hop residency to switch_stall.
     * @param seed            the run seed, folded into the sampling hash.
     */
    TraceCollector(const Mesh2D &mesh, TraceConfig config,
                   std::string kind_name, std::uint32_t cycles_per_slot,
                   std::uint64_t seed);

    const TraceConfig &config() const { return cfg_; }

    /** Close the run: emits the end-of-run dump file ("blame") when
     *  dumpDir is configured, then frees the blame rings and the
     *  packets still in flight, which no export reads. Events that
     *  arrive afterwards are ignored. Call once after the simulation. */
    void finish(Cycle now);

    /** Drops every event once finish() has run. */
    void consume(const NetEvent &e) override;

    /// @name Results
    /// @{

    TraceSummary summary() const;

    std::uint64_t packetsTraced() const { return packetsTraced_; }
    std::uint64_t packetsSampled() const { return packetsSampled_; }
    std::uint64_t decompositionMismatches() const
    {
        return decompositionMismatches_;
    }

    /** Full dump document (schema "loft-trace-dump/1"): stage
     *  decomposition, per-flow breakdown, interference matrix,
     *  exemplar traces with per-hop blame, flight-recorder rings.
     *  Byte-identical across worker counts. */
    std::string dumpJson(const std::string &reason, Cycle now) const;

    /**
     * Write dumpJson() to `<dumpDir>/trace_<reason>.json`. Only the
     * FIRST dump per reason is written (a deadlocked run may record
     * hundreds of violations); returns the path, or "" when dumpDir
     * is unset / the reason already dumped / the write failed.
     * Suitable directly as a NetworkAuditor postmortem callback body.
     */
    std::string dumpToFile(const std::string &reason, Cycle now);

    /** Chrome trace spans (pid 2) of sampled packets; merge with the
     *  telemetry writer via chromeTraceJson({...}). Built on the first
     *  call from the sampled exemplars, in delivery order and under
     *  the maxSpanEvents cap, so call it after finish(); later calls
     *  return the same writer. */
    const ChromeTraceWriter &spanWriter() const;
    /// @}

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
    void onPacketDelivered(NodeId node, FlowId flow, PacketId pkt,
                           Cycle now) override;
    void onLookaheadAdmitted(NodeId node, Port in, const LookaheadFlit &la,
                             Cycle now) override;
    void onQuantumScheduled(NodeId node, Port out, const LookaheadFlit &la,
                            Slot granted, Cycle now) override;
    void onNiQuantumScheduled(NodeId node, const LookaheadFlit &la,
                              Slot granted, Cycle now) override;
    void onMissedSlot(NodeId node, Port out, Cycle now) override;
    void onFlitDropped(NodeId node, const Flit &flit, Cycle now) override;
    void onSourceThrottled(NodeId node, FlowId flow, StallReason reason,
                           Cycle now) override;

  private:
    /** The stage values of one closed hop. */
    struct HopStages
    {
        std::uint64_t lookaheadWait = 0;
        std::uint64_t reservationWait = 0;
        std::uint64_t switchStall = 0;
        std::uint64_t specSavings = 0;
        std::uint64_t link = 0; ///< wire cycles INTO this hop
    };

    /** One completed hop of a packet's head flit (exemplar detail). */
    struct HopRecord
    {
        NodeId node = kInvalidNode;
        Port out = Port::Local;
        Cycle arrive = 0;
        Cycle forward = 0;
        Cycle decision = kNeverCycle; ///< onQuantumScheduled cycle
        Slot booked = 0;
        bool hasBooking = false;
        HopStages stages;
        /** Per-hop blame: (aggressor flow, cycles), ascending flow. */
        std::vector<std::pair<FlowId, std::uint64_t>> blame;
    };

    /** A scheduling decision observed before the head flit arrived. */
    struct PendingDecision
    {
        NodeId node = kInvalidNode;
        Cycle cycle = 0;
        Slot booked = 0;
    };

    /** A packet between leaving its source queue and delivery. */
    struct LivePacket
    {
        FlowId flow = kInvalidFlow;
        NodeId src = kInvalidNode;
        NodeId dst = kInvalidNode;
        Cycle accepted = 0;          ///< NI enqueue cycle
        Cycle niSched = kNeverCycle; ///< head-quantum NI grant (LOFT)
        Cycle sourced = kNeverCycle; ///< head flit on the wire
        Cycle ejected = kNeverCycle; ///< head flit consumed by the sink
        std::uint64_t headQuantum = 0;
        bool hopOpen = false;
        HopRecord curHop;
        std::vector<PendingDecision> pendingDecisions;
        std::vector<HopRecord> hops;
        std::array<std::uint64_t, kNumTraceStages> stages{};
        std::vector<std::pair<FlowId, std::uint64_t>> srcBlame;
    };

    /** Aggregates of one flow over all its delivered packets. */
    struct FlowAgg
    {
        std::uint64_t packets = 0;
        std::uint64_t totalLatency = 0;
        std::uint64_t maxLatency = 0;
        std::array<std::uint64_t, kNumTraceStages> stages{};
        std::array<std::uint64_t, kNumStallReasons> throttled{};
    };

    /** A retained full packet trace. */
    struct Exemplar
    {
        PacketId id = 0;
        FlowId flow = kInvalidFlow;
        NodeId src = kInvalidNode;
        NodeId dst = kInvalidNode;
        Cycle accepted = 0;
        Cycle delivered = 0;
        std::uint64_t latency = 0;
        bool sampled = false;
        std::array<std::uint64_t, kNumTraceStages> stages{};
        std::vector<std::pair<FlowId, std::uint64_t>> srcBlame;
        std::vector<HopRecord> hops;
    };

    /** Bounded ring of (cycle, flow) forwards through one lane. */
    struct BlameRing
    {
        std::vector<std::pair<Cycle, FlowId>> buf;
        std::size_t head = 0; ///< next overwrite position once full
    };

    /** One flight-recorder entry (generic observer event). */
    struct FlightEvent
    {
        Cycle cycle = 0;
        std::uint8_t kind = 0; ///< flightEventName() index
        FlowId flow = kInvalidFlow;
        std::uint8_t lane = 0; ///< port index, or kNiLane
        bool spec = false;
        std::uint64_t a = 0; ///< kind-dependent (slot, reason, ...)
    };

    struct FlightRing
    {
        std::vector<FlightEvent> buf;
        std::size_t head = 0;
    };

    bool isSampled(FlowId flow, PacketId id) const;
    Cycle slotStart(Slot slot) const
    {
        return static_cast<Cycle>(slot) * cyclesPerSlot_;
    }

    void notePortBusy(NodeId node, std::size_t lane, FlowId flow,
                      Cycle now);
    void noteFlight(NodeId node, std::uint8_t kind, FlowId flow,
                    std::size_t lane, bool spec, std::uint64_t a,
                    Cycle now);

    /** Other-flow forwards through (node, lane) in [from, to), counts
     *  per aggressor flow, ascending flow id. */
    std::vector<std::pair<FlowId, std::uint64_t>>
    scanBlame(NodeId node, std::size_t lane, FlowId victim, Cycle from,
              Cycle to) const;

    /** Cap @p blame at @p attributable cycles and fold it into the
     *  interference matrix / attribution totals for @p victim. */
    void chargeBlame(FlowId victim,
                     std::vector<std::pair<FlowId, std::uint64_t>> &blame,
                     std::uint64_t attributable);

    /** The record of packet @p id, opened with the given fields when
     *  the packet leaves its source queue (first NI grant on LOFT,
     *  head flit sourced elsewhere). */
    LivePacket &openPacket(PacketId id, FlowId flow, NodeId src,
                           NodeId dst, Cycle accepted,
                           std::uint64_t head_quantum);

    /** Close the open hop of @p lp at @p now (head flit forwarded
     *  through @p out). */
    void closeHop(LivePacket &lp, Port out, Cycle now);

    void finalizePacket(PacketId id, LivePacket &lp, NodeId node,
                        Cycle now);
    void emitSpans(const Exemplar &ex) const;

    std::uint32_t width_;
    std::uint32_t height_;
    std::size_t numNodes_;
    TraceConfig cfg_;
    std::string kindName_;
    std::uint32_t cyclesPerSlot_;
    std::uint64_t seed_;

    /// Lookup-only (never iterated: results would depend on hash
    /// order); every export walks std::map / vector state instead.
    std::unordered_map<PacketId, LivePacket> live_;

    std::map<FlowId, FlowAgg> flows_;
    std::map<std::pair<FlowId, FlowId>, std::uint64_t> interference_;
    std::uint64_t blameAttributed_ = 0;
    std::uint64_t blameUnattributed_ = 0;

    std::uint64_t packetsTraced_ = 0;
    std::uint64_t packetsSampled_ = 0;
    std::uint64_t decompositionMismatches_ = 0;
    std::uint64_t totalLatency_ = 0;
    std::array<std::uint64_t, kNumTraceStages> stageCycles_{};

    std::map<PacketId, Exemplar> exemplars_;
    /** Sampled packets in delivery order: their exemplars are never
     *  evicted, and spanWriter() emits them in this order. */
    std::vector<PacketId> sampledOrder_;
    /** The K largest latencies among delivered packets: latency ->
     *  packet id (the tail set exported with `"tail": true`). */
    std::multimap<std::uint64_t, PacketId> tailRank_;

    std::vector<BlameRing> blameRings_; ///< numNodes * kNumLanes
    std::vector<FlightRing> flight_;    ///< per node

    mutable ChromeTraceWriter spans_;
    mutable std::once_flag spansBuilt_;
    std::set<std::string> dumpedReasons_;
    bool finished_ = false;
};

} // namespace noc

#endif // NOC_TRACE_TRACE_HH
