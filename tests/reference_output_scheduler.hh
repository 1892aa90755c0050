/**
 * @file
 * Slow reference model of the LSF output scheduler, kept only as a test
 * oracle. It is the straightforward formulation of Algorithms 1-3: a
 * std::map flow table and per-slot walks over the circular credit /
 * busy arrays with a modulo on every slot. The production
 * OutputScheduler (src/core/output_scheduler.*) replaces both with flat
 * structures; tests/test_scheduler_oracle.cc drives the two in lockstep
 * and requires every public observable to agree.
 *
 * Observer hooks, debug tracing and fault-injection entry points are
 * omitted: they do not influence scheduling state.
 */

#ifndef NOC_TESTS_REFERENCE_OUTPUT_SCHEDULER_HH
#define NOC_TESTS_REFERENCE_OUTPUT_SCHEDULER_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/loft_params.hh"
#include "core/output_scheduler.hh"
#include "sim/types.hh"

namespace noc
{

class ReferenceOutputScheduler
{
  public:
    ReferenceOutputScheduler(const LoftParams &params, std::string name);

    void registerFlow(FlowId flow, std::uint32_t reservation_flits);
    bool hasFlow(FlowId flow) const { return flows_.count(flow) != 0; }

    void advanceTo(Cycle now);
    bool trySchedule(FlowId flow, Cycle now, std::uint64_t quantum_no,
                     Slot earliest_abs, Slot &granted_abs);
    void onCreditReturn(Slot abs_slot);
    void clearBooking(Slot abs_slot);

    std::optional<SlotBooking> bookingAt(Slot abs_slot) const;
    std::optional<Slot> earliestBookedSlot() const;

    bool canLocalReset() const { return bookings_.empty(); }
    bool
    quiescent() const
    {
        return bookings_.empty() && outstanding_ == 0 &&
               futureReturns_.empty() &&
               (!dirty_ || !params_.localStatusReset);
    }
    bool dirty() const { return dirty_; }
    void localReset(Cycle now);

    std::int32_t virtualCreditAt(Slot abs_slot) const;
    std::uint64_t headFrame() const { return headFrame_; }
    std::uint64_t outstandingCredits() const { return outstanding_; }
    std::uint64_t grants() const { return grants_; }
    std::uint64_t throttles() const { return throttles_; }
    std::uint64_t resets() const { return resets_; }
    std::uint64_t anomalyViolations() const { return violations_; }
    std::uint32_t reservedSlotsTotal() const { return totalReserved_; }
    std::uint32_t flowRemaining(FlowId f) const { return flows_.at(f).c; }
    std::uint64_t flowInjectFrame(FlowId f) const
    {
        return flows_.at(f).injFrame;
    }
    std::uint32_t skippedAt(std::uint64_t frame) const
    {
        return skipped_[frame % params_.windowFrames];
    }
    Slot windowStartAbsSlot() const { return toAbs(windowStartSlot()); }
    Slot windowEndAbsSlot() const { return toAbs(windowEndSlotEx()); }

  private:
    struct FlowState
    {
        std::uint32_t r = 0;
        std::uint32_t c = 0;
        std::uint64_t injFrame = 0;
    };

    std::uint64_t toLocal(Slot abs) const;
    Slot toAbs(std::uint64_t local) const { return local + originSlot_; }

    std::uint64_t windowStartSlot() const;
    std::uint64_t windowEndSlotEx() const;

    std::int32_t &creditRef(std::uint64_t local_slot);
    std::int32_t creditVal(std::uint64_t local_slot) const;

    void recycleHeadFrame();
    void book(std::uint64_t local_slot, FlowId flow,
              std::uint64_t quantum_no);
    bool conditionOneHolds(const FlowState &st) const;
    bool tryScheduleInFrame(const FlowState &st, std::uint64_t l_now,
                            std::uint64_t earliest_local,
                            std::uint64_t &found_local) const;

    LoftParams params_;
    std::string name_;

    Slot originSlot_ = 0;
    std::uint64_t headFrame_ = 0;

    std::vector<std::uint8_t> busy_;
    std::vector<std::int32_t> credit_;
    std::int32_t creditBeforeWindow_;
    std::vector<std::uint32_t> skipped_;
    std::map<std::uint64_t, SlotBooking> bookings_;
    std::map<std::uint64_t, std::uint32_t> futureReturns_;

    std::map<FlowId, FlowState> flows_;
    std::uint32_t totalReserved_ = 0;

    std::uint64_t outstanding_ = 0;
    std::uint64_t grants_ = 0;
    std::uint64_t throttles_ = 0;
    std::uint64_t resets_ = 0;
    std::uint64_t violations_ = 0;
    bool dirty_ = false;
};

} // namespace noc

#endif // NOC_TESTS_REFERENCE_OUTPUT_SCHEDULER_HH
