/**
 * @file
 * The LSF output scheduler: one per output link. It owns the framed
 * output reservation table (busy flags + cumulative virtual credits,
 * Fig. 7), the per-flow injection state (IF_ij, C_ij, R_ij), the
 * skipped() counters, and implements Algorithms 1-3 of the paper with
 * condition (1) guarding against the output scheduling anomaly
 * (Section 4.2, Theorem I).
 *
 * Time is measured in slots (one quantum of link time). Wire-visible
 * slots are absolute (derived from the global cycle counter); the
 * scheduler keeps its own local origin so that a local status reset
 * (Section 4.3.2) can restart CP/HF at zero without global agreement.
 *
 * Virtual credits follow the cumulative semantics of appendix
 * equation (3): scheduling a quantum to depart at slot s decrements
 * credits of every slot >= s; a credit returned by the downstream input
 * scheduler with departure slot s' increments every slot >= s'.
 *
 * The reservation table is a ring of WF frames holding local slot s at
 * index s mod WT. The frame window starts on a frame boundary of the
 * ring and wraps at most once, so a walk from any window slot to the
 * window end covers at most two contiguous runs of the ring and a frame
 * is always one run: no walk divides per slot.
 */

#ifndef NOC_CORE_OUTPUT_SCHEDULER_HH
#define NOC_CORE_OUTPUT_SCHEDULER_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/loft_params.hh"
#include "net/instrument.hh"
#include "sim/pool.hh"
#include "sim/types.hh"

namespace noc
{

/** Identity of a scheduled quantum (the busy-flag payload). */
struct SlotBooking
{
    FlowId flow = kInvalidFlow;
    std::uint64_t quantumNo = 0;
};

// loft-tidy: phase-pure — not Clocked itself, but every method runs
//     inside LoftDataRouter::tick and so inside the partitioned phase;
//     writes must stay within the owning router's component state or
//     go through a deferred seam.
class OutputScheduler
{
  public:
    /**
     * @param pool optional backing pool for the per-quantum booking /
     *        credit-return maps (node churn recycles through it). The
     *        pool must outlive the scheduler; null keeps the maps on
     *        the global heap (unit tests).
     */
    OutputScheduler(const LoftParams &params, std::string name,
                    Pool *pool = nullptr);

    /**
     * Register a contending flow with reservation R_ij given in flits
     * per frame. Enforces sum(R_ij) <= F.
     */
    void registerFlow(FlowId flow, std::uint32_t reservation_flits);

    bool
    hasFlow(FlowId flow) const
    {
        return flowIndex(flow) != flows_.size();
    }

    /**
     * Advance CP/HF to the frame containing @p now, recycling expired
     * frames (Algorithm 3). Must be called every cycle before any
     * scheduling request; @p now never decreases.
     */
    void advanceTo(Cycle now);

    /**
     * Algorithms 1 + 2: attempt to schedule one quantum of @p flow.
     * @param earliest_abs earliest permissible departure slot
     *        (absolute), e.g. the quantum's arrival slot at this router.
     * @param granted_abs receives the granted absolute slot.
     * @return true on success; on failure the flow is throttled until
     *         the head frame advances (per-flow state persists).
     */
    bool trySchedule(FlowId flow, Cycle now, std::uint64_t quantum_no,
                     Slot earliest_abs, Slot &granted_abs);

    /** Virtual credit returned by the downstream input scheduler. */
    void onCreditReturn(Slot abs_slot);

    /**
     * The quantum booked at @p abs_slot finished forwarding (possibly
     * early, under speculative switching): clear its busy flag.
     */
    void clearBooking(Slot abs_slot);

    /** Booking stored at an absolute slot, if any. */
    std::optional<SlotBooking> bookingAt(Slot abs_slot) const;

    /** The earliest still-booked absolute slot (for in-order checks). */
    std::optional<Slot> earliestBookedSlot() const;

    /** Visit every live booking as (absolute slot, booking). */
    template <typename Fn>
    void
    forEachBooking(Fn &&fn) const
    {
        for (const auto &[local, booking] : bookings_)
            fn(toAbs(local), booking);
    }

    /** True if the table is empty and no virtual credit is owed. */
    bool canLocalReset() const;

    /**
     * True if deferring advanceTo() is externally invisible, letting
     * the owning component skip its tick. Requires no live bookings,
     * no owed virtual credits and no banked beyond-window returns, so
     * every credit word sits at the buffer ceiling and frame recycling
     * is pure renumbering; the catch-up loop in advanceTo() replays
     * the deferred recycles identically on the next request. With
     * local status resets enabled we additionally require the reset to
     * have happened (!dirty()): a post-reset scheduler is pristine, so
     * sleeping cannot diverge from the reset-every-frame idle baseline.
     */
    bool
    quiescent() const
    {
        return bookings_.empty() && outstanding_ == 0 &&
               futureReturns_.empty() &&
               (!dirty_ || !params_.localStatusReset);
    }

    /** True if a reset would change anything (grants or frame drift). */
    bool dirty() const { return dirty_; }

    /** Perform a local status reset (Section 4.3.2). */
    void localReset(Cycle now);

    /// @name Introspection (tests / stats)
    /// @{
    std::int32_t virtualCreditAt(Slot abs_slot) const;
    std::uint64_t headFrame() const { return headFrame_; }
    std::uint64_t outstandingCredits() const { return outstanding_; }
    std::uint64_t grants() const { return grants_; }
    std::uint64_t throttles() const { return throttles_; }
    std::uint64_t resets() const { return resets_; }
    /** Bookings that drove any slot's virtual credit negative. */
    std::uint64_t anomalyViolations() const { return violations_; }
    std::uint32_t reservedSlotsTotal() const { return totalReserved_; }
    std::uint32_t flowRemaining(FlowId f) const { return flowAt(f).c; }
    std::uint64_t flowInjectFrame(FlowId f) const
    {
        return flowAt(f).injFrame;
    }
    std::uint32_t skippedAt(std::uint64_t frame) const
    {
        return skipped_[frame % windowFrames_];
    }
    const std::string &name() const { return name_; }
    const LoftParams &params() const { return params_; }
    /** First absolute slot of the current frame window. */
    Slot windowStartAbsSlot() const { return toAbs(windowStartSlot()); }
    /** One past the last absolute slot of the frame window. */
    Slot windowEndAbsSlot() const { return toAbs(windowEndSlotEx()); }
    /// @}

    /** Attach an event observer (null detaches). */
    void setObserver(NetObserver *obs) { observer_ = obs; }

    /// @name Fault injection (tests only)
    /// Deliberately corrupt internal state so the liveness of external
    /// auditors can be proven. Never called by the simulator itself.
    /// @{

    /** Flip the flow id of the booking at @p abs_slot (no-op if the
     *  slot is free). Models a bit error in the reservation table. */
    void debugCorruptBookingFlow(Slot abs_slot);

    /** Add @p delta to the virtual-credit word of @p abs_slot only
     *  (not cumulative). Models a bit error in a credit counter. */
    void debugAdjustCredit(Slot abs_slot, std::int32_t delta);

    /// @}

  private:
    struct FlowState
    {
        FlowId id = kInvalidFlow;   ///< the flow (flow-table sort key)
        std::uint32_t r = 0;        ///< reservation per frame (quanta)
        std::uint32_t c = 0;        ///< remaining reservation C_ij
        std::uint64_t injFrame = 0; ///< injection frame IF_ij (local)
    };

    /** First flow-table entry whose id is not below @p flow. */
    std::vector<FlowState>::const_iterator
    flowLowerBound(FlowId flow) const;
    /** Index of @p flow in the flow table, or the table size if absent. */
    std::size_t flowIndex(FlowId flow) const;
    /** State of a registered flow; panics on an unknown id. */
    const FlowState &flowAt(FlowId flow) const;

    /** Local slot of an absolute slot. */
    std::uint64_t toLocal(Slot abs) const;
    Slot toAbs(std::uint64_t local) const { return local + originSlot_; }

    std::uint64_t windowStartSlot() const { return headFrame_ * frameSlots_; }
    std::uint64_t
    windowEndSlotEx() const
    {
        return windowStartSlot() + windowSlots_;
    }
    /** Ring index of local slot @p s, which must lie in the window. */
    std::size_t ringSlot(std::uint64_t s) const;

    void recycleHeadFrame();
    void book(std::uint64_t local_slot, FlowId flow,
              std::uint64_t quantum_no);
    bool conditionOneHolds(const FlowState &st) const;
    bool tryScheduleInFrame(const FlowState &st, std::uint64_t l_now,
                            std::uint64_t earliest_local,
                            std::uint64_t &found_local) const;

    LoftParams params_;
    std::string name_;
    /// Cached from params_: F and WT in slots, WF, and the credit
    /// ceiling (the downstream buffer in quanta).
    std::uint32_t frameSlots_;
    std::uint32_t windowFrames_;
    std::uint32_t windowSlots_;
    std::int32_t bufferQuanta_;

    Slot originSlot_ = 0;
    std::uint64_t headFrame_ = 0;
    /** Ring frame holding the head frame (headFrame_ mod WF). */
    std::uint32_t headIdx_ = 0;

    std::vector<std::uint8_t> busy_;
    std::vector<std::int32_t> credit_;
    std::vector<std::uint32_t> skipped_;
    /** Booked quanta keyed by local slot (ordered for earliest lookup). */
    PoolMap<std::uint64_t, SlotBooking> bookings_;
    /** Credit returns for slots beyond the current window. */
    PoolMap<std::uint64_t, std::uint32_t> futureReturns_;

    /// Flow table sorted by flow id: frame-recycle and reset sweeps
    /// visit flows in flow-id order regardless of registration history
    /// (fingerprint-stable).
    std::vector<FlowState> flows_;
    std::uint32_t totalReserved_ = 0;

    std::uint64_t outstanding_ = 0;
    std::uint64_t grants_ = 0;
    std::uint64_t throttles_ = 0;
    std::uint64_t resets_ = 0;
    std::uint64_t violations_ = 0;
    bool dirty_ = false;
    Cycle lastAdvance_ = 0;
    // loft-tidy: deferred-endpoint(DeferredObserver)
    NetObserver *observer_ = nullptr;
};

} // namespace noc

#endif // NOC_CORE_OUTPUT_SCHEDULER_HH
