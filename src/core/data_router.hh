/**
 * @file
 * The LOFT data-network router (Fig. 4, right): no routing or
 * arbitration logic for data flits. Movement is dictated by the input
 * and output reservation tables programmed by the look-ahead flits; the
 * only run-time decision is the output arbitration among ready
 * candidates, with emergent candidates (scheduled to depart this slot)
 * guaranteed to win (Section 4.3.1).
 *
 * Each input port holds a central (non-speculative) buffer plus a
 * speculative buffer for out-of-order forwarded flits (Fig. 9); one
 * InputTable holds the quantum records of all five inputs (the input
 * reservation table). Each output port owns an LSF OutputScheduler
 * (the framed output reservation table) plus the actual-credit view of
 * the downstream buffers.
 */

#ifndef NOC_CORE_DATA_ROUTER_HH
#define NOC_CORE_DATA_ROUTER_HH

#include <array>
#include <limits>
#include <memory>
#include <vector>

#include "core/input_table.hh"
#include "core/messages.hh"
#include "core/output_scheduler.hh"
#include "net/channel.hh"
#include "net/routing.hh"
#include "net/topology.hh"
#include "router/arbiter.hh"
#include "sim/clocked.hh"

namespace noc
{

class LoftDataRouter final : public Clocked
{
  public:
    LoftDataRouter(NodeId id, const Mesh2D &mesh,
                   const LoftParams &params);

    NodeId id() const { return id_; }

    /// @name Wiring (input side: data in, credits returned upstream)
    /// @{
    void connectInput(Port p, Channel<DataWireFlit> *data_in,
                      Channel<ActualCreditMsg> *actual_credit_out,
                      Channel<VirtualCreditMsg> *virtual_credit_out);
    /// @}

    /// @name Wiring (output side: data out, credits from downstream)
    /// @{
    void connectOutput(Port p, Channel<DataWireFlit> *data_out,
                       Channel<ActualCreditMsg> *actual_credit_in,
                       Channel<VirtualCreditMsg> *virtual_credit_in);
    /// @}

    OutputScheduler &scheduler(Port p)
    {
        return *outputs_[portIndex(p)].sched;
    }

    /** Attach an event observer to the router and its schedulers. */
    void setObserver(NetObserver *obs);

    /**
     * Step 1 of the FRS procedure: a look-ahead flit arrived on input
     * port @p in; record the data flits it leads in the input
     * reservation table (buffers are allocated lazily on data arrival)
     * and queue it for output scheduling.
     *
     * @return false (and no state change) if the input reservation
     *         table is full; the look-ahead flit then waits in its
     *         virtual channel (back-pressure).
     */
    bool admitLookahead(Port in, const LookaheadFlit &la, Cycle now,
                        Cycle schedulable_at);

    /**
     * Steps 3-4: the input schedulers request output scheduling for
     * the pending (admitted, unscheduled) quanta routed to output
     * @p outp, serving flows round-robin. On success the reservation
     * tables are updated, a virtual credit is returned upstream, and
     * the onward look-ahead flit (departure slot filled in) is handed
     * back for transmission on the look-ahead plane.
     *
     * @param onward receives the look-ahead flit to forward.
     * @param terminal set if this router is the quantum's destination
     *        (no onward look-ahead flit is needed).
     * @return false if no pending quantum could be scheduled.
     */
    bool schedulePending(Port outp, Cycle now, LookaheadFlit &onward,
                         bool &terminal);

    /**
     * Recovery sweep for quanta whose leading look-ahead flit was lost
     * (fault injection): any complete quantum staged unclaimed past the
     * look-ahead timeout gets a locally synthesized look-ahead flit
     * re-admitted through the normal FRS path, with bounded retries and
     * exponential backoff; a quantum that exhausts its retries is
     * dropped and its buffer space and upstream credits released.
     * Driven by the co-located look-ahead router's tick (the re-issue
     * logically happens on the look-ahead plane). No-op unless
     * params().recovery.
     */
    void recoverLostLookaheads(Cycle now);

    /**
     * Bind the co-located look-ahead router. It sleeps on this router's
     * pending and unclaimed quanta; of those, this router's tick only
     * stages unclaimed ones, and wakes it when that matters (recovery).
     */
    void pairLookahead(Clocked *lookahead) { lookahead_ = lookahead; }

    void tick(Cycle now) override;

    bool quiescent() const override;

    /** True if any output port has admitted-but-unscheduled quanta
     *  (the co-located look-ahead router polls this to sleep). */
    bool
    hasPendingQuanta() const
    {
        for (const auto &p : pending_)
            if (!p.empty())
                return true;
        return false;
    }

    /** True if any input port stages flits without a reservation (the
     *  look-ahead router polls this to keep the re-issue timer alive). */
    bool hasUnclaimedQuanta() const { return table_.anyUnclaimed(); }

    /// @name Stats / introspection
    /// @{
    std::uint64_t bufferedFlits() const;
    std::uint64_t emergentForwards() const { return emergentForwards_; }
    std::uint64_t speculativeForwards() const { return specForwards_; }
    std::uint64_t missedSlots() const { return missedSlots_; }
    std::uint64_t anomalyViolations() const;
    /** Look-ahead flits re-synthesized after a timeout (recovery). */
    std::uint64_t lookaheadReissues() const { return laReissues_; }
    /** Stale scheduled records reclaimed by the table scrub. */
    std::uint64_t quantaScrubbed() const { return quantaScrubbed_; }
    /** Flits transmitted through output port @p p so far. */
    std::uint64_t portFlitsForwarded(Port p) const
    {
        return outputs_[portIndex(p)].flitsForwarded;
    }
    /// @}

  private:
    using Handle = InputTable::Handle;
    using QuantumRecord = InputTable::Record;

    /** A pending quantum, its flow beside its record so that the
     *  round-robin walk over flows dereferences only flow heads. */
    struct PendingEntry
    {
        FlowId flow;
        Handle rec;
    };

    struct InputPort
    {
        Channel<DataWireFlit> *dataIn = nullptr;
        Channel<ActualCreditMsg> *actualCreditOut = nullptr;
        Channel<VirtualCreditMsg> *virtualCreditOut = nullptr;
        std::uint32_t nonspecUsed = 0;
        std::uint32_t specUsed = 0;
    };

    struct OutputPort
    {
        std::unique_ptr<OutputScheduler> sched;
        /**
         * Absolute slot of the scheduler's next frame recycle, as read
         * after this router last advanced it: tick() calls advanceTo
         * only from then on. Anything else that moves the deadline
         * (trySchedule's own advance, a local reset) only moves it
         * later, so the copy can lag low but never high. Unconnected
         * outputs never advance.
         */
        Slot recycleDue = std::numeric_limits<Slot>::max();
        /**
         * Scheduled records routed here from every input, sorted by
         * departure slot. The scheduler grants each slot once, so the
         * slots are distinct.
         */
        std::vector<Handle> scheduled;
        Channel<DataWireFlit> *dataOut = nullptr;
        Channel<ActualCreditMsg> *actualCreditIn = nullptr;
        Channel<VirtualCreditMsg> *virtualCreditIn = nullptr;
        /** Actual free space in the downstream buffers (flits). */
        std::uint32_t dnNonspecFree = 0;
        std::uint32_t dnSpecFree = 0;
        /** Flits ever transmitted on this link. */
        std::uint64_t flitsForwarded = 0;
        RoundRobinArbiter arb{kNumPorts};
    };

    /// @name Mail-word bits (Clocked::mail)
    /// Data input p is bit p; output p's actual and virtual credit
    /// inputs are bits kNumPorts + 2p and kNumPorts + 2p + 1, so an
    /// ascending walk takes each output's credits in port order.
    /// @{
    static constexpr std::uint32_t kDataMail = (1u << kNumPorts) - 1;
    static constexpr std::uint32_t kCreditMail =
        ((1u << 2 * kNumPorts) - 1) << kNumPorts;
    /// @}

    void receiveCredits(Cycle now);
    /** Advance the output schedulers whose frame recycle is due. */
    void advanceSchedulers(Cycle now);
    void receiveData(Cycle now);
    void switchOutputs(Cycle now);
    void maybeLocalReset(Cycle now);
    /** Reclaim scheduled records whose data never arrived (recovery). */
    void scrubStaleRecords(Cycle now);
    /** Give up on an unclaimed quantum: free its buffers and record,
     *  return upstream credits. */
    void dropQuantum(Handle h, Cycle now);

    /** Forward one flit of record @p h through output @p out. */
    void forwardFlit(Handle h, std::size_t out, Cycle now, bool emergent);

    /**
     * A new input-table record; the index lists grow with the arena,
     * which bounds them, so inserting into them never allocates.
     */
    Handle addRecord(Port in, FlowId flow, std::uint64_t quantum,
                     InputTable::State st);
    /** Size every index list to the arena's capacity. */
    void reserveLists();
    void eraseRecord(Handle h);
    /** First entry of output @p out's scheduled list whose slot is
     *  not below @p slot. */
    std::vector<Handle>::iterator slotPosition(std::size_t out, Slot slot);

    NodeId id_;
    const Mesh2D &mesh_;
    LoftParams params_;

    /** Every live quantum of the five inputs (input reservation table). */
    InputTable table_;

    std::array<InputPort, kNumPorts> inputs_;
    std::array<OutputPort, kNumPorts> outputs_;

    /**
     * Admitted-but-unscheduled quanta per output port, sorted by
     * (flow, quantum number) for round-robin service over flows. A
     * record leaves only when scheduled, before eraseRecord can see it.
     */
    std::array<std::vector<PendingEntry>, kNumPorts> pending_;
    /** Round-robin pointer over flows, per output port. */
    std::array<FlowId, kNumPorts> flowPointer_{};

    /** Scratch handle list for the recovery sweeps (avoids allocation). */
    std::vector<Handle> sweepScratch_;

    std::uint64_t emergentForwards_ = 0;
    std::uint64_t specForwards_ = 0;
    std::uint64_t missedSlots_ = 0;
    std::uint64_t laReissues_ = 0;
    std::uint64_t quantaScrubbed_ = 0;
    Cycle nextScrubAt_ = 0;
    /** Co-located look-ahead router (null when driven without one). */
    Clocked *lookahead_ = nullptr;
    // loft-tidy: deferred-endpoint(ObserverMux)
    NetObserver *observer_ = nullptr;
};

} // namespace noc

#endif // NOC_CORE_DATA_ROUTER_HH
