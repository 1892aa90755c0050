/**
 * @file
 * Network instrumentation: a passive observer interface that every
 * network implementation (LOFT, GSF, wormhole) publishes its
 * micro-architectural events to, plus the hook macro that announces
 * them.
 *
 * An event is one NetEvent record: a kind tag plus the fields of that
 * kind. Components hold a `NetObserver *` (null by default) and
 * announce each event as a designated initializer,
 *
 *     NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::FlitEjected,
 *                             .node = node_, .flit = flit, .now = now});
 *
 * which hands the record to NetObserver::consume(). With no observer
 * attached the hook costs one null-pointer check.
 *
 * The observer sees five groups of events:
 *  - flit life cycle: sourced at an NI, arrived at a router input,
 *    forwarded through a router output, ejected at a sink;
 *  - packet life cycle: accepted by an NI, fully delivered at a sink;
 *  - LOFT reservation protocol: look-ahead admission into the input
 *    reservation table and quantum output-scheduling decisions;
 *  - LSF output-scheduler state transitions: flow registration, slot
 *    grants, booking clears, virtual-credit returns, negative-credit
 *    (anomaly) occurrences, and local status resets;
 *  - faults and source back-pressure: injection, detection, recovery,
 *    drops, and the reason a source NI stalled.
 *
 * consume() is the only way in. Its default body decodes the record
 * into the matching protected on* hook; the hooks have empty bodies,
 * so a sink overrides only what it cares about. A transport that
 * passes records on whole (ObserverMux) overrides consume() and never
 * looks at the kind.
 */

#ifndef NOC_NET_INSTRUMENT_HH
#define NOC_NET_INSTRUMENT_HH

#include "net/flit.hh"
#include "net/packet.hh"
#include "net/topology.hh"
#include "sim/types.hh"

#define NOC_OBSERVE(obs, ...)                                           \
    do {                                                                \
        if (obs)                                                        \
            (obs)->consume(::noc::NetEvent __VA_ARGS__);                \
    } while (0)

namespace noc
{

class OutputScheduler;

/**
 * The injectable fault classes (src/faults). Also the vocabulary of the
 * onFault* observer hooks, so detectors (sinks, credit receivers, the
 * recovery logic) and the FaultMonitor agree on labels.
 */
enum class FaultKind : std::uint8_t
{
    LookaheadDrop, ///< look-ahead flit silently dropped on a link
    CreditLoss,    ///< credit message lost (resynchronized late)
    CreditCorrupt, ///< credit message corrupted (discarded by CRC)
    DataCorrupt,   ///< data-flit payload bit-flip
    LinkStall,     ///< link stuck for K cycles
};

constexpr std::size_t kNumFaultKinds = 5;

/** Human-readable fault-kind name ("lookahead_drop", ...). */
inline const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::LookaheadDrop:
        return "lookahead_drop";
      case FaultKind::CreditLoss:
        return "credit_loss";
      case FaultKind::CreditCorrupt:
        return "credit_corrupt";
      case FaultKind::DataCorrupt:
        return "data_corrupt";
      case FaultKind::LinkStall:
        return "link_stall";
    }
    return "unknown";
}

/**
 * Why a source NI could not make forward progress this cycle. The
 * vocabulary of the onSourceThrottled hook; tracing uses it to label
 * source-side stall cycles, and it is deliberately comparable across
 * the three NetKinds (wormhole sources emit NoVc/NoCredit, GSF adds
 * FrameQuota, LOFT adds the look-ahead/scheduler/credit reasons).
 */
enum class StallReason : std::uint8_t
{
    NoVc,            ///< no virtual channel available for a new packet
    NoCredit,        ///< downstream buffer credits exhausted
    FrameQuota,      ///< GSF per-frame injection quota exhausted
    NoLaCredit,      ///< LOFT look-ahead network credit exhausted
    SchedThrottle,   ///< LOFT NI scheduler denied a slot this cycle
    NoSpecCredit,    ///< LOFT speculative data buffer credit exhausted
    NoNonspecCredit, ///< LOFT non-speculative data buffer credit gone
};

constexpr std::size_t kNumStallReasons = 7;

/** Human-readable stall-reason name ("no_vc", ...). */
inline const char *
stallReasonName(StallReason reason)
{
    switch (reason) {
      case StallReason::NoVc:
        return "no_vc";
      case StallReason::NoCredit:
        return "no_credit";
      case StallReason::FrameQuota:
        return "frame_quota";
      case StallReason::NoLaCredit:
        return "no_la_credit";
      case StallReason::SchedThrottle:
        return "sched_throttle";
      case StallReason::NoSpecCredit:
        return "no_spec_credit";
      case StallReason::NoNonspecCredit:
        return "no_nonspec_credit";
    }
    return "unknown";
}

/**
 * One observer event. The kind names the NetObserver hook it decodes
 * into; the other fields are that hook's arguments, and fields a kind
 * does not use keep their defaults. Fields are declared in the order
 * the hooks take their arguments, so a designated initializer at a
 * hook site lists them in hook order.
 */
struct NetEvent
{
    enum class Kind : std::uint8_t
    {
        PacketAccepted,
        FlitSourced,
        FlitArrived,
        FlitForwarded,
        FlitEjected,
        PacketDelivered,
        LookaheadAdmitted,
        QuantumScheduled,
        NiQuantumScheduled,
        MissedSlot,
        SchedFlowRegistered,
        SchedGrant,
        SchedSkipped,
        SchedBookingCleared,
        SchedCreditReturn,
        SchedCreditNegative,
        SchedLocalReset,
        FaultInjected,
        FaultDetected,
        FaultRecovered,
        FlitDropped,
        SourceThrottled,
    };

    Kind kind = Kind::PacketAccepted;
    /** The emitting scheduler (Sched* kinds). */
    const OutputScheduler *sched = nullptr;
    FaultKind fault = FaultKind::LookaheadDrop;
    NodeId node = kInvalidNode;
    /** Router input (arrivals, admissions) or output port. */
    Port port{};
    FlowId flow = kInvalidFlow;
    Packet pkt{};
    /** The flit moved; on PacketDelivered, the one that completed it. */
    Flit flit{};
    LookaheadFlit la{};
    /** The flit uses the speculative path. */
    bool spec = false;
    std::uint64_t quantumNo = 0;
    /** Reserved slots per frame, or reserved slots yielded. */
    std::uint32_t quanta = 0;
    /** Absolute slot granted, cleared or returned. */
    Slot slot = 0;
    std::uint64_t frame = 0;
    /** The delivered packet (PacketDelivered). */
    PacketId packet = 0;
    /** When the detected or recovered fault was injected. */
    Cycle injectedAt = 0;
    StallReason reason = StallReason::NoVc;
    Cycle now = 0;
};

class NetObserver
{
  public:
    virtual ~NetObserver() = default;

    /**
     * Receive @p e. The default body calls the hook that @p e's kind
     * names; the switch has no default, so -Wswitch flags a kind that
     * reaches no hook.
     */
    virtual void consume(const NetEvent &e);

  protected:
    /// @name Packet / flit life cycle (all networks)
    /// @{

    /** An NI accepted @p pkt into its source queue. */
    virtual void onPacketAccepted(NodeId node, const Packet &pkt,
                                  Cycle now)
    {
        (void)node;
        (void)pkt;
        (void)now;
    }

    /** An NI put @p flit on the wire towards its local router. */
    virtual void onFlitSourced(NodeId node, const Flit &flit, bool spec,
                               Cycle now)
    {
        (void)node;
        (void)flit;
        (void)spec;
        (void)now;
    }

    /** A router buffered @p flit from input port @p in. */
    virtual void onFlitArrived(NodeId node, Port in, const Flit &flit,
                               bool spec, Cycle now)
    {
        (void)node;
        (void)in;
        (void)flit;
        (void)spec;
        (void)now;
    }

    /** A router transmitted @p flit through output port @p out. */
    virtual void onFlitForwarded(NodeId node, Port out, const Flit &flit,
                                 bool spec, Cycle now)
    {
        (void)node;
        (void)out;
        (void)flit;
        (void)spec;
        (void)now;
    }

    /** A sink consumed @p flit. */
    virtual void onFlitEjected(NodeId node, const Flit &flit, Cycle now)
    {
        (void)node;
        (void)flit;
        (void)now;
    }

    /** All flits of packet @p pkt of @p flow have been consumed. */
    virtual void onPacketDelivered(NodeId node, FlowId flow,
                                   PacketId pkt, Cycle now)
    {
        (void)node;
        (void)flow;
        (void)pkt;
        (void)now;
    }

    /// @}
    /// @name LOFT reservation protocol
    /// @{

    /** A look-ahead flit was admitted into the input reservation table
     *  of router @p node on port @p in. */
    virtual void onLookaheadAdmitted(NodeId node, Port in,
                                     const LookaheadFlit &la, Cycle now)
    {
        (void)node;
        (void)in;
        (void)la;
        (void)now;
    }

    /** Router @p node scheduled quantum @p la to depart through
     *  @p out at absolute slot @p granted (Local = to the sink). */
    virtual void onQuantumScheduled(NodeId node, Port out,
                                    const LookaheadFlit &la,
                                    Slot granted, Cycle now)
    {
        (void)node;
        (void)out;
        (void)la;
        (void)granted;
        (void)now;
    }

    /** The NI of @p node scheduled quantum @p la over its local link
     *  (the data will arrive at the node's own router). */
    virtual void onNiQuantumScheduled(NodeId node, const LookaheadFlit &la,
                                      Slot granted, Cycle now)
    {
        (void)node;
        (void)la;
        (void)granted;
        (void)now;
    }

    /** Router @p node missed a scheduled switching slot on @p out. */
    virtual void onMissedSlot(NodeId node, Port out, Cycle now)
    {
        (void)node;
        (void)out;
        (void)now;
    }

    /// @}
    /// @name LSF output-scheduler state transitions
    /// @{

    /** @p flow was registered with reservation @p quanta slots/frame. */
    virtual void onSchedFlowRegistered(const OutputScheduler &sched,
                                       FlowId flow, std::uint32_t quanta)
    {
        (void)sched;
        (void)flow;
        (void)quanta;
    }

    /** A slot grant: @p flow books @p abs_slot in frame @p frame. */
    virtual void onSchedGrant(const OutputScheduler &sched, FlowId flow,
                              std::uint64_t quantum_no, Slot abs_slot,
                              std::uint64_t frame, Cycle now)
    {
        (void)sched;
        (void)flow;
        (void)quantum_no;
        (void)abs_slot;
        (void)frame;
        (void)now;
    }

    /** @p flow advanced its injection frame past @p frame and yielded
     *  @p quanta unused reserved slots (the skipped(i) bookkeeping of
     *  Algorithm 1; FRS redistributes the capacity). */
    virtual void onSchedSkipped(const OutputScheduler &sched, FlowId flow,
                                std::uint32_t quanta, std::uint64_t frame,
                                Cycle now)
    {
        (void)sched;
        (void)flow;
        (void)quanta;
        (void)frame;
        (void)now;
    }

    /** The booking at @p abs_slot was cleared (quantum fully sent). */
    virtual void onSchedBookingCleared(const OutputScheduler &sched,
                                       Slot abs_slot)
    {
        (void)sched;
        (void)abs_slot;
    }

    /** A virtual credit stamped with @p abs_slot returned. */
    virtual void onSchedCreditReturn(const OutputScheduler &sched,
                                     Slot abs_slot)
    {
        (void)sched;
        (void)abs_slot;
    }

    /** A booking drove some slot's virtual credit negative (the
     *  Section 4.2 anomaly; expected only with the guard disabled). */
    virtual void onSchedCreditNegative(const OutputScheduler &sched,
                                       Cycle now)
    {
        (void)sched;
        (void)now;
    }

    /** The scheduler performed a local status reset (Section 4.3.2). */
    virtual void onSchedLocalReset(const OutputScheduler &sched,
                                   Cycle now)
    {
        (void)sched;
        (void)now;
    }

    /// @}
    /// @name Fault injection & recovery (src/faults)
    /// @{

    /** The injector applied a fault of @p kind on a link whose receiver
     *  is @p node. */
    virtual void onFaultInjected(FaultKind kind, NodeId node, Cycle now)
    {
        (void)kind;
        (void)node;
        (void)now;
    }

    /** A protocol-level detector (timeout, CRC, payload check, link
     *  monitor) noticed the fault injected at @p injectedAt. */
    virtual void onFaultDetected(FaultKind kind, NodeId node,
                                 Cycle injectedAt, Cycle now)
    {
        (void)kind;
        (void)node;
        (void)injectedAt;
        (void)now;
    }

    /** The fault injected at @p injectedAt was repaired (look-ahead
     *  re-issued, credit resynchronized, ...). */
    virtual void onFaultRecovered(FaultKind kind, NodeId node,
                                  Cycle injectedAt, Cycle now)
    {
        (void)kind;
        (void)node;
        (void)injectedAt;
        (void)now;
    }

    /** Recovery gave up on @p flit and dropped it at @p node; the flit
     *  leaves the network unaccounted by the sinks. */
    virtual void onFlitDropped(NodeId node, const Flit &flit, Cycle now)
    {
        (void)node;
        (void)flit;
        (void)now;
    }

    /// @}
    /// @name Source back-pressure (all networks)
    /// @{

    /** The source NI of @p node had pending work for @p flow this
     *  cycle but could not advance it for @p reason. Fires at most
     *  once per (source, reason) per cycle. */
    virtual void onSourceThrottled(NodeId node, FlowId flow,
                                   StallReason reason, Cycle now)
    {
        (void)node;
        (void)flow;
        (void)reason;
        (void)now;
    }

    /// @}
};

} // namespace noc

#endif // NOC_NET_INSTRUMENT_HH
