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
 * speculative buffer for out-of-order forwarded flits (Fig. 9), and the
 * input reservation table (quantum records). Each output port owns an
 * LSF OutputScheduler (the framed output reservation table) plus the
 * actual-credit view of the downstream buffers.
 */

#ifndef NOC_CORE_DATA_ROUTER_HH
#define NOC_CORE_DATA_ROUTER_HH

#include <array>
#include <memory>

#include "core/messages.hh"
#include "core/output_scheduler.hh"
#include "net/channel.hh"
#include "net/routing.hh"
#include "net/topology.hh"
#include "router/arbiter.hh"
#include "sim/clocked.hh"
#include "sim/pool.hh"

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
     * params().recovery.enabled.
     */
    void recoverLostLookaheads(Cycle now);

    /**
     * Bind the co-located look-ahead router, which this router's tick
     * wakes (it sleeps on this router's pending and unclaimed quanta).
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
    bool
    hasUnclaimedQuanta() const
    {
        for (const auto &ip : inputs_)
            if (!ip.unclaimed.empty())
                return true;
        return false;
    }

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
    /** A buffered data flit and which physical buffer holds it. */
    struct BufferedFlit
    {
        Flit flit;
        bool spec;
    };

    /**
     * FIFO of one quantum's buffered flits, pool-backed. A quantum
     * holds at most quantumFlits flits, so a consumed head index over
     * a pooled vector beats a deque: the single backing allocation is
     * recycled through the router's Pool when the record dies, and the
     * per-cycle push/pop path never touches the heap.
     */
    struct FlitFifo
    {
        PoolVec<BufferedFlit> flits;
        std::uint32_t head = 0;

        explicit FlitFifo(Pool *pool = nullptr)
            : flits(PoolAlloc<BufferedFlit>(pool))
        {
        }

        bool empty() const { return head == flits.size(); }
        std::size_t size() const { return flits.size() - head; }
        BufferedFlit &front() { return flits[head]; }
        const BufferedFlit &front() const { return flits[head]; }
        const BufferedFlit &back() const { return flits.back(); }
        void push_back(const BufferedFlit &bf) { flits.push_back(bf); }
        void pop_front() { ++head; }

        void
        clear()
        {
            flits.clear();
            head = 0;
        }

        auto begin() { return flits.begin() + head; }
        auto end() { return flits.end(); }
    };

    /** Input reservation table entry: one quantum led by one LA flit. */
    struct QuantumRecord
    {
        explicit QuantumRecord(Pool *pool = nullptr) : buffered(pool) {}

        FlowId flow = kInvalidFlow;
        std::uint64_t quantumNo = 0;
        std::uint32_t expectedFlits = 0;
        NodeId dst = kInvalidNode;
        /** The leading look-ahead flit (forwarded once scheduled). */
        LookaheadFlit la;
        /** First cycle the look-ahead may request output scheduling
         *  (after the look-ahead router pipeline). */
        Cycle schedulableAt = 0;
        Port inPort = Port::Local;
        Port outPort = Port::Local;
        Slot arrivalSlot = 0;
        Slot departSlot = kNeverCycle;
        bool scheduled = false;
        std::uint32_t forwardedFlits = 0;
        /**
         * Downstream buffer choice, decided when the first flit is
         * forwarded and sticky for the whole quantum (the quantum is
         * the scheduling unit): started at its slot -> non-speculative,
         * started early -> speculative.
         */
        bool sendSpec = false;
        FlitFifo buffered;
    };

    /**
     * Flits staged while their look-ahead is missing, plus the
     * recovery bookkeeping for re-issuing that look-ahead if it never
     * shows up (lost to a fault).
     */
    struct UnclaimedQuantum
    {
        explicit UnclaimedQuantum(Pool *pool = nullptr) : flits(pool) {}

        FlitFifo flits;
        Cycle firstArrival = 0;
        std::uint32_t reissues = 0;
        /** Timeout already reported as a detected look-ahead loss. */
        bool detected = false;
        /** Next recovery attempt (first: firstArrival + timeout). */
        Cycle nextReissueAt = kNeverCycle;
    };

    struct InputPort
    {
        Channel<DataWireFlit> *dataIn = nullptr;
        Channel<ActualCreditMsg> *actualCreditOut = nullptr;
        Channel<VirtualCreditMsg> *virtualCreditOut = nullptr;
        /** Pool-backed and pre-sized in the router constructor: node
         *  churn recycles through the pool, and the reserve() makes
         *  mid-run rehashing impossible (key population is bounded by
         *  the table capacity). */
        PoolUMap<std::uint64_t, QuantumRecord> records;
        /**
         * Flits that arrived while their look-ahead still waits for a
         * free input-table entry (the data plane can outrun a
         * back-pressured look-ahead admission by a few cycles).
         */
        PoolUMap<std::uint64_t, UnclaimedQuantum> unclaimed;
        std::uint32_t nonspecUsed = 0;
        std::uint32_t specUsed = 0;
    };

    struct OutputPort
    {
        std::unique_ptr<OutputScheduler> sched;
        /**
         * Scheduled records routed here from every input, sorted by
         * departure slot. The scheduler grants each slot once, so the
         * slots are distinct. Entries are the records themselves:
         * `records` is node-based, so an entry's address is stable
         * until eraseRecord removes it from here.
         */
        PoolVec<QuantumRecord *> scheduled;
        Channel<DataWireFlit> *dataOut = nullptr;
        Channel<ActualCreditMsg> *actualCreditIn = nullptr;
        Channel<VirtualCreditMsg> *virtualCreditIn = nullptr;
        /** Actual free space in the downstream buffers (flits). */
        std::uint32_t dnNonspecFree = 0;
        std::uint32_t dnSpecFree = 0;
        /** Cycle of the most recent flit transmission on this link. */
        Cycle lastForward = 0;
        /** Flits ever transmitted on this link. */
        std::uint64_t flitsForwarded = 0;
        RoundRobinArbiter arb{kNumPorts};
    };

    /**
     * Key of a live input-table entry. The flow id occupies the full
     * upper 32 bits (FlowId is 32-bit; the previous `flow << 44`
     * packing overflowed for flows >= 2^20 and collided across flows
     * once quanta passed 2^44). The quantum number is taken modulo
     * 2^32, which is unique among LIVE entries: a port holds at most
     * windowSlots() quanta of a flow at once, far below 2^32. Keys
     * sort identically to (flow, quantumNo) for live entries, which
     * the sorted recovery/scrub sweeps rely on.
     */
    static std::uint64_t recordKey(FlowId f, std::uint64_t q)
    {
        return (static_cast<std::uint64_t>(f) << 32) |
               (q & 0xffffffffull);
    }

    void receiveCredits(Cycle now);
    void receiveData(Cycle now);
    void switchOutputs(Cycle now);
    void maybeLocalReset(Cycle now);
    /** Reclaim scheduled records whose data never arrived (recovery). */
    void scrubStaleRecords(Cycle now);
    /** Give up on a quantum: free buffers, return upstream credits. */
    void dropQuantumFlits(std::size_t in, FlitFifo &flits, Cycle now);

    /** Forward one flit of @p rec through output @p out. */
    void forwardFlit(std::size_t in, QuantumRecord &rec, std::size_t out,
                     Cycle now, bool emergent);

    void eraseRecord(std::size_t in, QuantumRecord &rec);

    NodeId id_;
    const Mesh2D &mesh_;
    LoftParams params_;

    /**
     * Backing pool for every node-churning container of this router
     * (reservation tables, staging maps, scheduler bookings, buffered
     * flit FIFOs). Declared before them: members are destroyed in
     * reverse order, so the pool outlives its containers.
     */
    Pool pool_;

    std::array<InputPort, kNumPorts> inputs_;
    std::array<OutputPort, kNumPorts> outputs_;

    /**
     * Admitted-but-unscheduled quanta per output port, sorted by
     * (flow, quantum number) for round-robin service over flows. A
     * record leaves only when scheduled, before eraseRecord can see it.
     */
    std::array<PoolVec<QuantumRecord *>, kNumPorts> pending_;
    /** Round-robin pointer over flows, per output port. */
    std::array<FlowId, kNumPorts> flowPointer_{};

    /** Scratch for schedulePending's per-flow head positions (kept as
     *  a member so the hot path does not allocate every cycle). */
    std::vector<std::size_t> headsScratch_;

    /** Scratch key list for the recovery sweeps (avoids allocation). */
    std::vector<std::uint64_t> recoveryScratch_;

    std::uint64_t emergentForwards_ = 0;
    std::uint64_t specForwards_ = 0;
    std::uint64_t missedSlots_ = 0;
    std::uint64_t laReissues_ = 0;
    std::uint64_t quantaScrubbed_ = 0;
    Cycle nextScrubAt_ = 0;
    /** Co-located look-ahead router (null when driven without one). */
    Clocked *lookahead_ = nullptr;
    // loft-tidy: deferred-endpoint(DeferredObserver)
    NetObserver *observer_ = nullptr;
};

} // namespace noc

#endif // NOC_CORE_DATA_ROUTER_HH
