/**
 * @file
 * The map-based NetworkAuditor, kept only as a test oracle. It is the
 * straightforward formulation of the checks: std::map ledgers keyed by
 * pairs and tuples, scheduler shadows found through a pointer-keyed
 * index, and std::map shadow tables. The production auditor
 * (src/audit/network_auditor.*) replaces them with flat tables and
 * site-indexed shadows; tests/test_audit_oracle.cc feeds both one
 * event stream and requires their violations, counts and ledger sizes
 * to agree. Only what that comparison reads is kept.
 */

#ifndef NOC_TESTS_REFERENCE_NETWORK_AUDITOR_HH
#define NOC_TESTS_REFERENCE_NETWORK_AUDITOR_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "audit/audit.hh"
#include "core/output_scheduler.hh"
#include "net/flit.hh"
#include "net/instrument.hh"
#include "net/network.hh"
#include "sim/clocked.hh"

namespace noc
{

class ReferenceNetworkAuditor final : public NetObserver, public Clocked
{
  public:
    /** Construct beside @p net without installing as its observer:
     *  the caller routes events to it (an ObserverMux). */
    explicit ReferenceNetworkAuditor(Network &net,
                                     AuditConfig config = {});

    /// @name Results
    /// @{

    std::uint64_t countOf(AuditKind kind) const;
    const std::vector<AuditViolation> &violations() const
    {
        return recorded_;
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
    /** Ledger state of one live flit. */
    struct FlitState
    {
        NodeId at = kInvalidNode; ///< last node (source or buffer)
        bool inFlight = false;    ///< on a wire (vs buffered at `at`)
        bool spec = false;
        Cycle since = 0;
    };

    /** A look-ahead reservation the data plane may redeem. */
    struct ExpectedQuantum
    {
        std::uint32_t flits = 0;
        Cycle admitted = 0;
    };

    /** Shadow of one output scheduler, replayed from events. */
    struct SchedShadow
    {
        const OutputScheduler *sched = nullptr;
        std::map<FlowId, std::uint32_t> reservations; ///< r (quanta/frame)
        std::map<Slot, SlotBooking> bookings;         ///< abs slot keyed
        /** Grants per (injection frame, flow); bounded by r. */
        std::map<std::pair<std::uint64_t, FlowId>, std::uint32_t>
            frameGrants;
        /** Grants per injection frame; bounded by frameSlots. */
        std::map<std::uint64_t, std::uint32_t> frameTotals;
    };

    using QuantumKey = std::tuple<NodeId, FlowId, std::uint64_t>;
    using LedgerKey = std::pair<FlowId, std::uint64_t>;

    void record(AuditKind kind, Cycle now, std::string detail);
    SchedShadow &shadowOf(const OutputScheduler &sched);
    Cycle deepAuditPeriod() const;
    void deepAudit(Cycle now);
    void auditScheduler(SchedShadow &sh, Cycle now);
    void matureSuspicions(Cycle now);
    void runWatchdog(Cycle now);
    void noteMovement(NodeId node, FlowId flow, Cycle now);

    Network *net_;
    AuditConfig cfg_;

    std::map<LedgerKey, FlitState> ledger_;
    std::map<QuantumKey, ExpectedQuantum> expected_;
    /** Non-spec arrivals awaiting a (slightly late) reservation. */
    std::map<QuantumKey, Cycle> suspicions_;
    /** Scheduler shadows in first-seen order: deep audits walk them in
     *  this order, so violations are recorded run-stably. */
    std::vector<SchedShadow> shadows_;
    /** Lookup only (pointer order is heap order); never iterated. */
    std::unordered_map<const OutputScheduler *, std::size_t> shadowIndex_;

    std::array<std::uint64_t, kNumAuditKinds> counts_{};
    std::vector<AuditViolation> recorded_;

    bool loftProtocol_ = false; ///< look-ahead events seen
    Cycle frameCycles_ = 0;     ///< cycles per data frame (from params)
    Cycle nextDeepAudit_ = 0;
    Cycle lastMovement_ = 0;
    std::map<FlowId, Cycle> flowLastMovement_;
    std::map<NodeId, Cycle> nodeLastMovement_;
};

} // namespace noc

#endif // NOC_TESTS_REFERENCE_NETWORK_AUDITOR_HH
