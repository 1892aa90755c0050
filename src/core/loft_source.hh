/**
 * @file
 * The LOFT network interface (NI). Packets are segmented into quanta;
 * for every quantum a look-ahead flit is injected into the look-ahead
 * network after the quantum's departure over the local link has been
 * scheduled on the NI's own LSF output scheduler. Data flits follow at
 * their scheduled slots (or earlier, under speculative switching).
 *
 * Source-side throttling emerges naturally: when a flow has exhausted
 * its reservations in the local link's frame window, trySchedule fails
 * and the NI simply retries next cycle.
 */

#ifndef NOC_CORE_LOFT_SOURCE_HH
#define NOC_CORE_LOFT_SOURCE_HH

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/messages.hh"
#include "core/output_scheduler.hh"
#include "net/channel.hh"
#include "net/packet.hh"
#include "router/arbiter.hh"
#include "sim/clocked.hh"
#include "sim/ring_deque.hh"

namespace noc
{

class LoftSourceUnit final : public Clocked
{
  public:
    LoftSourceUnit(NodeId node, const LoftParams &params);

    /** Wiring: data plane to the router's Local input port. */
    void connectData(Channel<DataWireFlit> *data_out,
                     Channel<ActualCreditMsg> *actual_credit_in,
                     Channel<VirtualCreditMsg> *virtual_credit_in);

    /** Wiring: look-ahead plane to the LA router's Local input port. */
    void connectLookahead(Channel<LaWireFlit> *la_out,
                          Channel<LaCredit> *la_credit_in);

    /** Register a flow originating here (R in flits per frame). */
    void registerFlow(FlowId flow, std::uint32_t reservation_flits);

    /** Attach an event observer to the NI and its scheduler. */
    void
    setObserver(NetObserver *obs)
    {
        observer_ = obs;
        sched_.setObserver(obs);
    }

    bool enqueue(const Packet &pkt);

    void tick(Cycle now) override;

    bool quiescent() const override;

    NodeId node() const { return node_; }
    std::uint64_t queuedFlits() const { return queuedFlits_; }
    OutputScheduler &scheduler() { return sched_; }

  private:
    /**
     * A quantum cut from the head packet: awaiting scheduling, then
     * departing over the local link flit by flit. Its flits are built
     * as they are sent (flitOf).
     */
    struct Quantum
    {
        /** Its look-ahead flit; departureSlot is set once scheduled. */
        LookaheadFlit la;
        std::uint32_t pktSize = 0;
        /** Offset of the quantum's first flit within its packet. */
        std::uint32_t pktOffset = 0;
        std::uint32_t sent = 0;
        /** Sticky buffer choice, decided at the first flit. */
        bool sendSpec = false;
    };

    /** Flit @p i of quantum @p q. */
    static Flit flitOf(const Quantum &q, std::uint32_t i);

    /// @name Mail-word bits (Clocked::mail), in receive order.
    /// @{
    static constexpr unsigned kActualCreditPort = 0;
    static constexpr unsigned kVirtualCreditPort = 1;
    static constexpr unsigned kLaCreditPort = 2;
    /// @}

    void receiveCredits(Cycle now);
    void buildNextQuantum(Cycle now);
    void emitLookahead(Cycle now);
    void forwardData(Cycle now);
    void maybeLocalReset(Cycle now);

    NodeId node_;
    LoftParams params_;
    OutputScheduler sched_;
    /**
     * The scheduler's next frame-recycle slot as read after tick()
     * last advanced it; tick() advances it only from then on (see
     * LoftDataRouter::OutputPort::recycleDue).
     */
    Slot recycleDue_ = 0;

    Channel<DataWireFlit> *dataOut_ = nullptr;
    Channel<ActualCreditMsg> *actualCreditIn_ = nullptr;
    Channel<VirtualCreditMsg> *virtualCreditIn_ = nullptr;
    Channel<LaWireFlit> *laOut_ = nullptr;
    Channel<LaCredit> *laCreditIn_ = nullptr;

    RingDeque<Packet> queue_;
    std::uint64_t queuedFlits_ = 0;

    /** Segmentation cursor within the head packet. */
    std::uint32_t headPacketOffset_ = 0;

    std::optional<Quantum> pending_;

    /**
     * Scheduled-but-not-fully-sent quanta, sorted by departure slot.
     * Reserved at construction; grows only past its high-water mark.
     */
    std::vector<Quantum> outbound_;

    /** Downstream (router local input) buffer space, flit granular. */
    std::uint32_t dnNonspecFree_;
    std::uint32_t dnSpecFree_;

    std::vector<std::uint32_t> laCredits_;
    RoundRobinArbiter laVcPick_;

    struct FlowCounters
    {
        std::uint64_t nextFlitNo = 0;
        std::uint64_t nextQuantumNo = 0;
    };
    std::unordered_map<FlowId, FlowCounters> counters_;

    std::size_t queueCapacityFlits_;
    // loft-tidy: deferred-endpoint(ObserverMux)
    NetObserver *observer_ = nullptr;
};

} // namespace noc

#endif // NOC_CORE_LOFT_SOURCE_HH
