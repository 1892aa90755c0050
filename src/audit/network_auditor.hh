/**
 * @file
 * NetworkAuditor: a passive, cycle-driven invariant checker that plugs
 * into any Network through the NetObserver hooks.
 *
 * It maintains:
 *  - a flit-conservation ledger keyed (flow, flitNo): every flit must
 *    be sourced once, alternate wire/buffer states hop by hop, and be
 *    ejected exactly once at its destination;
 *  - the set of look-ahead reservations per (node, flow, quantum), so
 *    every non-speculative data arrival can be matched against a prior
 *    look-ahead admission (speculative forwards are exempt by design);
 *  - a shadow copy of every LSF output scheduler's reservation table
 *    (bookings, per-frame/flow grant counts, frame totals) replayed
 *    from grant/clear/reset events, indexed by the scheduler's
 *    (node, lane) site;
 *  - a deadlock/starvation watchdog over flit movement.
 *
 * Every per-event table is a FlatTable (sim/flat_table.hh), so once
 * the live populations plateau the auditor stops allocating, and a
 * scheduler's local reset drops its shadow in O(1).
 *
 * Cheap checks run inline on each event. Once per deep-audit period
 * (one data frame by default) the auditor cross-checks shadow state
 * against the live schedulers — forEachBooking() contents, window
 * virtual credits — so corrupted component state is reported within
 * one frame window of the corruption becoming visible.
 *
 * The auditor only observes: it never mutates network state, so an
 * audited run is cycle-for-cycle identical to an unaudited one.
 */

#ifndef NOC_AUDIT_NETWORK_AUDITOR_HH
#define NOC_AUDIT_NETWORK_AUDITOR_HH

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "audit/audit.hh"
#include "core/output_scheduler.hh"
#include "net/flit.hh"
#include "net/instrument.hh"
#include "net/network.hh"
#include "sim/clocked.hh"
#include "sim/flat_table.hh"
#include "sim/simulator.hh"

namespace noc
{

// Hooks the auditor leaves at NetObserver's empty defaults, and why:
//  - onQuantumScheduled: grants are audited at the scheduler via
//    onSchedGrant; the router-side echo adds no ledger information.
//  - onMissedSlot: a missed switching slot is a performance event, not
//    a conservation violation.
//  - onSchedSkipped: skipped(i) capacity redistribution is Algorithm-1
//    bookkeeping, audited indirectly through the credit ledger.
//  - onSchedCreditReturn: credit returns are cross-checked against
//    bookings in onSchedBookingCleared.
//  - onSourceThrottled: source back-pressure is a performance event;
//    liveness is watched through the flit movement hooks the watchdog
//    already consumes.
//  - onPacketDelivered: packet completion is accounted by the sinks'
//    MetricsCollector; the ledger retires each flit at onFlitEjected.
//  - onFaultInjected, onFaultDetected, onFaultRecovered: FaultMonitor
//    counts fault events for RunResult; faults reach the ledger only
//    as dropped flits (onFlitDropped).
// loft-tidy: phase-serial — keyless: ticked in the serial epilogue and
//     fed through the ObserverMux merge, never inside the partitioned
//     phase of a run with two or more domains.
class NetworkAuditor final : public NetObserver, public Clocked
{
  public:
    /** Construct and install as @p net's observer. */
    explicit NetworkAuditor(Network &net, AuditConfig config = {});

    /** Register with the simulator driving @p net. */
    void attach(Simulator &sim) { sim.add(this); }

    /// @name Results
    /// @{

    /** All violations, including soft (watchdog) ones. */
    std::uint64_t violationCount() const;
    /** Violations excluding the Watchdog kind. */
    std::uint64_t hardViolationCount() const;
    std::uint64_t countOf(AuditKind kind) const;
    const std::vector<AuditViolation> &violations() const
    {
        return recorded_;
    }
    /** Multi-line text summary for logs / failure messages. */
    std::string report() const;

    /**
     * Install a postmortem callback invoked once per recorded
     * violation (e.g. the trace subsystem's flight-recorder dump).
     * A non-empty return value — typically the dump path — is
     * appended to the violation's detail string.
     */
    void setPostmortem(std::function<std::string(AuditKind, Cycle)> fn)
    {
        postmortem_ = std::move(fn);
    }

    /**
     * End-of-run check: with the network drained, the ledger must be
     * empty (every sourced flit ejected). Call after the simulation
     * has been run to quiescence.
     */
    void finalCheck(Cycle now);

    /** Flits sourced but not yet ejected or dropped. */
    std::uint64_t flitsInLedger() const { return ledger_.size(); }

    /// @}

    // Clocked
    void tick(Cycle now) override;

  protected:
    // NetObserver
    void onFlitSourced(NodeId node, const Flit &flit, bool spec,
                       Cycle now) override;
    void onFlitArrived(NodeId node, Port in, const Flit &flit, bool spec,
                       Cycle now) override;
    void onFlitForwarded(NodeId node, Port out, const Flit &flit,
                         bool spec, Cycle now) override;
    void onFlitEjected(NodeId node, const Flit &flit, Cycle now) override;
    void onLookaheadAdmitted(NodeId node, Port in, const LookaheadFlit &la,
                             Cycle now) override;
    void onNiQuantumScheduled(NodeId node, const LookaheadFlit &la,
                              Slot granted, Cycle now) override;
    void onSchedFlowRegistered(const OutputScheduler &sched, FlowId flow,
                               std::uint32_t quanta) override;
    void onSchedGrant(const OutputScheduler &sched, FlowId flow,
                      std::uint64_t quantum_no, Slot abs_slot,
                      std::uint64_t frame, Cycle now) override;
    void onSchedBookingCleared(const OutputScheduler &sched,
                               Slot abs_slot) override;
    void onSchedCreditNegative(const OutputScheduler &sched,
                               Cycle now) override;
    void onSchedLocalReset(const OutputScheduler &sched,
                           Cycle now) override;
    void onFlitDropped(NodeId node, const Flit &flit, Cycle now) override;

  private:
    /** Ledger key: one flit. Ordered (flow, flitNo). */
    struct FlitKey
    {
        FlowId flow = kInvalidFlow;
        std::uint64_t flitNo = 0;

        auto operator<=>(const FlitKey &) const = default;
        std::uint64_t
        hash() const
        {
            return mixHash(flitNo + 0x9e3779b97f4a7c15ull * flow);
        }
    };

    /** Ledger state of one live flit. */
    struct FlitState
    {
        NodeId at = kInvalidNode; ///< last node (source or buffer)
        bool inFlight = false;    ///< on a wire (vs buffered at `at`)
    };

    /** A look-ahead reservation's key. Ordered (node, flow, quantum). */
    struct QuantumKey
    {
        NodeId node = kInvalidNode;
        FlowId flow = kInvalidFlow;
        std::uint64_t quantum = 0;

        auto operator<=>(const QuantumKey &) const = default;
        std::uint64_t
        hash() const
        {
            return mixHash(quantum + 0x9e3779b97f4a7c15ull * flow +
                           0xc2b2ae3d27d4eb4full * node);
        }
    };

    /** A non-spec arrival awaiting a (slightly late) reservation. */
    struct Suspicion
    {
        QuantumKey key;
        Cycle arrived = 0;
    };

    /**
     * Key of the shadow tables: a scheduler's site, the generation of
     * its shadow, and a slot or frame (`at`) and a flow as each table
     * needs them.
     */
    struct ShadowKey
    {
        std::uint32_t site = 0;
        std::uint32_t gen = 0;
        std::uint64_t at = 0;
        FlowId flow = 0;

        bool operator==(const ShadowKey &) const = default;
        std::uint64_t
        hash() const
        {
            return mixHash(at + 0x9e3779b97f4a7c15ull * flow +
                           0xc2b2ae3d27d4eb4full *
                               ((std::uint64_t(site) << 32) | gen));
        }
    };

    /** Shadow of one output scheduler, replayed from events. */
    struct SchedShadow
    {
        const OutputScheduler *sched = nullptr; ///< null until seen
        /** Local resets so far: a reset starts a new generation, and
         *  the entries of older ones are dead. */
        std::uint32_t gen = 0;
        /// Prune marks from the last deep audit.
        Slot windowStart = 0;
        std::uint64_t headFrame = 0;
    };

    void record(AuditKind kind, Cycle now, std::string detail);
    /** Site index of @p sched; registers its shadow on first sight. */
    std::uint32_t siteOf(const OutputScheduler &sched);
    Cycle deepAuditPeriod() const;
    void deepAudit(Cycle now);
    void auditScheduler(std::uint32_t site, Cycle now);
    /** Drop dead generations and what the schedulers moved past. */
    void pruneShadows();
    void matureSuspicions(Cycle now);
    void runWatchdog(Cycle now);
    void noteMovement(NodeId node, FlowId flow, Cycle now);

    Network *net_;
    AuditConfig cfg_;

    FlatTable<FlitKey, FlitState> ledger_;
    /** Reserved quanta by the cycle their look-ahead was admitted. */
    FlatTable<QuantumKey, Cycle> expected_;
    /** Sorted by key: matureSuspicions reports in that order. */
    std::vector<Suspicion> suspicions_;
    /** One shadow per (node, lane) site of the network's mesh. */
    std::vector<SchedShadow> shadows_;
    /** Sites in first-seen order: deep audits walk them in this
     *  order, so violations are recorded run-stably. */
    std::vector<std::uint32_t> seenSites_;
    /// The shadows' tables, shared by all sites: their summed
    /// population plateaus in warm-up where one site's would not.
    /// Reservations r (quanta/frame) by (site, flow); they survive
    /// resets, so their generation is always 0.
    FlatTable<ShadowKey, std::uint32_t> reservations_;
    /** Bookings by (site, gen, abs slot). */
    FlatTable<ShadowKey, SlotBooking> bookings_;
    /** Grants by (site, gen, injection frame, flow); bounded by r. */
    FlatTable<ShadowKey, std::uint32_t> frameGrants_;
    /** Grants by (site, gen, injection frame); bounded by frameSlots. */
    FlatTable<ShadowKey, std::uint32_t> frameTotals_;

    std::array<std::uint64_t, kNumAuditKinds> counts_{};
    std::vector<AuditViolation> recorded_;

    bool loftProtocol_ = false; ///< look-ahead events seen
    Cycle frameCycles_ = 0;     ///< cycles per data frame (from params)
    Cycle nextDeepAudit_ = 0;
    Cycle lastMovement_ = 0;
    FlatTable<FlowId, Cycle> flowLastMovement_;
    FlatTable<NodeId, Cycle> nodeLastMovement_;
    std::function<std::string(AuditKind, Cycle)> postmortem_;
};

} // namespace noc

#endif // NOC_AUDIT_NETWORK_AUDITOR_HH
