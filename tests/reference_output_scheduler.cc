/**
 * @file
 * The reference scheduler of reference_output_scheduler.hh: Algorithms
 * 1-3 with per-slot modulo walks and a std::map flow table. Keep this
 * file slow and obvious; its value is being easy to check against the
 * paper, not speed.
 */

#include "reference_output_scheduler.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace noc
{

ReferenceOutputScheduler::ReferenceOutputScheduler(const LoftParams &params,
                                                   std::string name)
    : params_(params), name_(std::move(name)),
      busy_(params.windowSlots(), 0),
      credit_(params.windowSlots(),
              static_cast<std::int32_t>(params.bufferQuanta())),
      creditBeforeWindow_(static_cast<std::int32_t>(params.bufferQuanta())),
      skipped_(params.windowFrames, 0)
{
    params_.validate();
}

void
ReferenceOutputScheduler::registerFlow(FlowId flow,
                                       std::uint32_t reservation_flits)
{
    if (flows_.count(flow))
        fatal("%s: flow %u registered twice", name_.c_str(), flow);
    if (flows_.size() >= params_.maxFlows)
        fatal("%s: more than %u contending flows", name_.c_str(),
              params_.maxFlows);
    const std::uint32_t r = std::max<std::uint32_t>(
        1, reservation_flits / params_.quantumFlits);
    if (totalReserved_ + r > params_.frameSlots())
        fatal("%s: reservations exceed the frame (sum R > F): "
              "%u + %u > %u slots", name_.c_str(), totalReserved_, r,
              params_.frameSlots());
    totalReserved_ += r;

    FlowState st;
    st.r = r;
    st.c = r;
    st.injFrame = headFrame_;
    flows_[flow] = st;
}

std::uint64_t
ReferenceOutputScheduler::toLocal(Slot abs) const
{
    if (abs < originSlot_)
        panic("%s: absolute slot %llu precedes local origin %llu",
              name_.c_str(), static_cast<unsigned long long>(abs),
              static_cast<unsigned long long>(originSlot_));
    return abs - originSlot_;
}

std::uint64_t
ReferenceOutputScheduler::windowStartSlot() const
{
    return headFrame_ * params_.frameSlots();
}

std::uint64_t
ReferenceOutputScheduler::windowEndSlotEx() const
{
    return (headFrame_ + params_.windowFrames) * params_.frameSlots();
}

std::int32_t &
ReferenceOutputScheduler::creditRef(std::uint64_t local_slot)
{
    return credit_[local_slot % params_.windowSlots()];
}

std::int32_t
ReferenceOutputScheduler::creditVal(std::uint64_t local_slot) const
{
    return credit_[local_slot % params_.windowSlots()];
}

void
ReferenceOutputScheduler::advanceTo(Cycle now)
{
    const std::uint64_t l_now = toLocal(params_.slotOf(now));
    const std::uint64_t target_frame = l_now / params_.frameSlots();
    while (headFrame_ < target_frame)
        recycleHeadFrame();
}

void
ReferenceOutputScheduler::recycleHeadFrame()
{
    const std::uint64_t k = headFrame_;
    const std::uint32_t fs = params_.frameSlots();
    const std::uint32_t wf = params_.windowFrames;

    creditBeforeWindow_ = creditVal((k + 1) * fs - 1);

    // Frame k's storage is recycled as frame k + WF, seeded slot by
    // slot from the previously newest frame plus banked future returns.
    const auto bn = static_cast<std::int32_t>(params_.bufferQuanta());
    std::int32_t running = creditVal((k + wf) * fs - 1);
    for (std::uint64_t j = (k + wf) * fs; j < (k + wf + 1) * fs; ++j) {
        auto fr = futureReturns_.find(j);
        if (fr != futureReturns_.end()) {
            running += static_cast<std::int32_t>(fr->second);
            running = std::min(running, bn);
            futureReturns_.erase(fr);
        }
        creditRef(j) = running;
        busy_[j % params_.windowSlots()] = 0;
    }
    const std::uint64_t old_start = k * fs;
    for (auto it = bookings_.begin();
         it != bookings_.end() && it->first < old_start + fs;) {
        it = bookings_.erase(it);
    }
    skipped_[(k + wf) % wf] = 0;

    // Algorithm 3.
    for (auto &[flow, st] : flows_) {
        (void)flow;
        if (st.injFrame == k) {
            st.injFrame = k + 1;
            st.c = std::min(st.r, st.c + st.r);
        }
    }
    ++headFrame_;
    dirty_ = true;
}

bool
ReferenceOutputScheduler::conditionOneHolds(const FlowState &st) const
{
    if (!params_.anomalyGuard)
        return true;
    if (st.injFrame == headFrame_)
        return true;
    const std::uint32_t fs = params_.frameSlots();
    const std::int32_t prior = creditVal(st.injFrame * fs - 1);
    const std::int32_t lhs = static_cast<std::int32_t>(fs) -
        static_cast<std::int32_t>(
            skipped_[st.injFrame % params_.windowFrames]);
    return lhs <= prior;
}

bool
ReferenceOutputScheduler::tryScheduleInFrame(
    const FlowState &st, std::uint64_t l_now, std::uint64_t earliest_local,
    std::uint64_t &found_local) const
{
    const std::uint32_t fs = params_.frameSlots();
    std::uint64_t start = st.injFrame == headFrame_
        ? l_now + 1 : st.injFrame * fs;
    start = std::max(start, earliest_local);
    const std::uint64_t end_ex = (st.injFrame + 1) * fs;
    for (std::uint64_t s = start; s < end_ex; ++s) {
        if (!busy_[s % params_.windowSlots()] && creditVal(s) > 0) {
            found_local = s;
            return true;
        }
    }
    return false;
}

bool
ReferenceOutputScheduler::trySchedule(FlowId flow, Cycle now,
                                      std::uint64_t quantum_no,
                                      Slot earliest_abs, Slot &granted_abs)
{
    advanceTo(now);
    auto it = flows_.find(flow);
    if (it == flows_.end())
        panic("%s: scheduling request from unregistered flow %u",
              name_.c_str(), flow);
    FlowState &st = it->second;
    if (st.injFrame < headFrame_)
        panic("%s: flow %u injection frame fell behind the head frame",
              name_.c_str(), flow);

    const std::uint64_t l_now = toLocal(params_.slotOf(now));
    const std::uint64_t earliest_local =
        earliest_abs > originSlot_ ? earliest_abs - originSlot_ : 0;

    // Algorithm 1.
    for (;;) {
        if (st.c > 0 && conditionOneHolds(st)) {
            std::uint64_t found;
            if (tryScheduleInFrame(st, l_now, earliest_local, found)) {
                --st.c;
                book(found, flow, quantum_no);
                granted_abs = toAbs(found);
                ++grants_;
                dirty_ = true;
                return true;
            }
        }
        if (st.injFrame + 1 <= headFrame_ + params_.windowFrames - 1) {
            skipped_[st.injFrame % params_.windowFrames] += st.c;
            st.c = std::min(st.r, st.c + st.r);
            ++st.injFrame;
        } else {
            ++throttles_;
            return false;
        }
    }
}

void
ReferenceOutputScheduler::book(std::uint64_t local_slot, FlowId flow,
                               std::uint64_t quantum_no)
{
    busy_[local_slot % params_.windowSlots()] = 1;
    bookings_[local_slot] = SlotBooking{flow, quantum_no};
    bool negative = false;
    for (std::uint64_t j = local_slot; j < windowEndSlotEx(); ++j) {
        std::int32_t &c = creditRef(j);
        --c;
        if (c < 0)
            negative = true;
    }
    if (negative)
        ++violations_;
    ++outstanding_;
}

void
ReferenceOutputScheduler::onCreditReturn(Slot abs_slot)
{
    if (outstanding_ != 0)
        --outstanding_;
    const auto bn = static_cast<std::int32_t>(params_.bufferQuanta());
    const std::uint64_t s =
        abs_slot > originSlot_ ? abs_slot - originSlot_ : 0;
    const std::uint64_t w_start = windowStartSlot();
    const std::uint64_t w_end = windowEndSlotEx();
    if (s >= w_end) {
        ++futureReturns_[s];
        return;
    }
    if (s < w_start)
        creditBeforeWindow_ = std::min(creditBeforeWindow_ + 1, bn);
    for (std::uint64_t j = std::max(s, w_start); j < w_end; ++j) {
        std::int32_t &c = creditRef(j);
        c = std::min(c + 1, bn);
    }
}

void
ReferenceOutputScheduler::clearBooking(Slot abs_slot)
{
    if (abs_slot < originSlot_)
        return;
    const std::uint64_t s = abs_slot - originSlot_;
    auto it = bookings_.find(s);
    if (it == bookings_.end())
        return;
    busy_[s % params_.windowSlots()] = 0;
    bookings_.erase(it);
}

std::optional<SlotBooking>
ReferenceOutputScheduler::bookingAt(Slot abs_slot) const
{
    if (abs_slot < originSlot_)
        return std::nullopt;
    auto it = bookings_.find(abs_slot - originSlot_);
    if (it == bookings_.end())
        return std::nullopt;
    return it->second;
}

std::optional<Slot>
ReferenceOutputScheduler::earliestBookedSlot() const
{
    if (bookings_.empty())
        return std::nullopt;
    return toAbs(bookings_.begin()->first);
}

void
ReferenceOutputScheduler::localReset(Cycle now)
{
    if (!canLocalReset())
        panic("%s: local reset with outstanding state", name_.c_str());
    originSlot_ = params_.slotOf(now);
    headFrame_ = 0;
    std::fill(busy_.begin(), busy_.end(), 0);
    const auto bn = static_cast<std::int32_t>(params_.bufferQuanta());
    std::fill(credit_.begin(), credit_.end(), bn);
    creditBeforeWindow_ = bn;
    std::fill(skipped_.begin(), skipped_.end(), 0);
    futureReturns_.clear();
    outstanding_ = 0;
    for (auto &[flow, st] : flows_) {
        (void)flow;
        st.injFrame = 0;
        st.c = st.r;
    }
    dirty_ = false;
    ++resets_;
}

std::int32_t
ReferenceOutputScheduler::virtualCreditAt(Slot abs_slot) const
{
    return creditVal(toLocal(abs_slot));
}

} // namespace noc
