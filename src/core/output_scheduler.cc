#include "core/output_scheduler.hh"

#include <algorithm>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace noc
{

namespace
{

/**
 * Call @p fn(first, last) on the words of @p ring holding the @p n
 * entries from index @p at onward: one contiguous run, or two when the
 * range wraps past the end of the ring.
 */
template <typename Fn>
void
forEachRun(std::vector<std::int32_t> &ring, std::size_t at, std::size_t n,
           Fn &&fn)
{
    std::int32_t *words = ring.data();
    if (at + n <= ring.size()) {
        fn(words + at, words + at + n);
    } else {
        fn(words + at, words + ring.size());
        fn(words, words + (at + n - ring.size()));
    }
}

} // namespace

OutputScheduler::OutputScheduler(const LoftParams &params,
                                 std::string name, Pool *pool)
    : params_(params), name_(std::move(name)),
      frameSlots_(params.frameSlots()),
      windowFrames_(params.windowFrames),
      windowSlots_(params.windowSlots()),
      bufferQuanta_(static_cast<std::int32_t>(params.bufferQuanta())),
      busy_(windowSlots_, 0), credit_(windowSlots_, bufferQuanta_),
      skipped_(windowFrames_, 0),
      bookings_(PoolAlloc<std::pair<const std::uint64_t, SlotBooking>>(
          pool)),
      futureReturns_(
          PoolAlloc<std::pair<const std::uint64_t, std::uint32_t>>(pool))
{
    params_.validate();
}

void
OutputScheduler::registerFlow(FlowId flow, std::uint32_t reservation_flits)
{
    const auto pos = flowLowerBound(flow);
    if (pos != flows_.end() && pos->id == flow)
        fatal("%s: flow %u registered twice", name_.c_str(), flow);
    if (flows_.size() >= params_.maxFlows)
        fatal("%s: more than %u contending flows", name_.c_str(),
              params_.maxFlows);
    const std::uint32_t r = std::max<std::uint32_t>(
        1, reservation_flits / params_.quantumFlits);
    if (totalReserved_ + r > frameSlots_)
        fatal("%s: reservations exceed the frame (sum R > F): "
              "%u + %u > %u slots", name_.c_str(), totalReserved_, r,
              frameSlots_);
    totalReserved_ += r;

    FlowState st;
    st.id = flow;
    st.r = r;
    st.c = r;
    st.injFrame = headFrame_;
    flows_.insert(pos, st);
    NOC_OBSERVE(observer_, onSchedFlowRegistered(*this, flow, r));
}

std::vector<OutputScheduler::FlowState>::const_iterator
OutputScheduler::flowLowerBound(FlowId flow) const
{
    return std::lower_bound(
        flows_.begin(), flows_.end(), flow,
        [](const FlowState &st, FlowId id) { return st.id < id; });
}

std::size_t
OutputScheduler::flowIndex(FlowId flow) const
{
    const auto it = flowLowerBound(flow);
    if (it == flows_.end() || it->id != flow)
        return flows_.size();
    return static_cast<std::size_t>(it - flows_.begin());
}

const OutputScheduler::FlowState &
OutputScheduler::flowAt(FlowId flow) const
{
    const std::size_t i = flowIndex(flow);
    if (i == flows_.size())
        panic("%s: query for unregistered flow %u", name_.c_str(), flow);
    return flows_[i];
}

std::uint64_t
OutputScheduler::toLocal(Slot abs) const
{
    if (abs < originSlot_)
        panic("%s: absolute slot %llu precedes local origin %llu",
              name_.c_str(), static_cast<unsigned long long>(abs),
              static_cast<unsigned long long>(originSlot_));
    return abs - originSlot_;
}

std::size_t
OutputScheduler::ringSlot(std::uint64_t s) const
{
    const std::uint64_t i = std::uint64_t{headIdx_} * frameSlots_ +
        (s - windowStartSlot());
    return static_cast<std::size_t>(i < windowSlots_ ? i
                                                     : i - windowSlots_);
}

void
OutputScheduler::advanceTo(Cycle now)
{
    lastAdvance_ = now;
    const std::uint64_t l_now = toLocal(params_.slotOf(now));
    // Recycle every frame that ended at or before the current slot.
    while (windowStartSlot() + frameSlots_ <= l_now)
        recycleHeadFrame();
}

// loft-tidy: steady-state-hot
void
OutputScheduler::recycleHeadFrame()
{
    const std::uint64_t k = headFrame_;
    const std::uint64_t old_end = windowStartSlot() + frameSlots_;
    const std::uint64_t new_start = windowEndSlotEx();

    // Frame k is one aligned run of the ring, recycled in place as frame
    // k + WF. Seed each new slot's cumulative credit from the last slot
    // of the previously newest frame (the ring slot just before the
    // run), then roll in credit returns that had been recorded for
    // beyond-window slots. Every banked return lies at or beyond the
    // old window end, so the new frame's are a prefix of futureReturns_:
    // fill the runs between them.
    const std::size_t head = std::size_t{headIdx_} * frameSlots_;
    std::int32_t *credit = credit_.data() + head;
    std::int32_t running =
        credit_[head == 0 ? windowSlots_ - 1 : head - 1];
    std::size_t filled = 0;
    auto fr = futureReturns_.begin();
    for (; fr != futureReturns_.end() &&
           fr->first < new_start + frameSlots_;
         ++fr) {
        const auto at = static_cast<std::size_t>(fr->first - new_start);
        std::fill(credit + filled, credit + at, running);
        running = std::min(
            running + static_cast<std::int32_t>(fr->second), bufferQuanta_);
        filled = at;
    }
    std::fill(credit + filled, credit + frameSlots_, running);
    futureReturns_.erase(futureReturns_.begin(), fr);
    std::uint8_t *busy = busy_.data() + head;
    std::fill(busy, busy + frameSlots_, std::uint8_t{0});

    // Bookings left in the expiring frame are stale (their data was
    // forwarded as emergent long ago or lost); drop them.
    bookings_.erase(bookings_.begin(), bookings_.lower_bound(old_end));
    skipped_[headIdx_] = 0;

    // Algorithm 3: flows stuck at the old head frame move on and
    // accumulate reservation (capped at R).
    for (FlowState &st : flows_) {
        if (st.injFrame == k) {
            st.injFrame = k + 1;
            st.c = std::min(st.r, st.c + st.r);
        }
    }
    ++headFrame_;
    headIdx_ = headIdx_ + 1 == windowFrames_ ? 0 : headIdx_ + 1;
    dirty_ = true;
}

bool
OutputScheduler::conditionOneHolds(const FlowState &st) const
{
    if (!params_.anomalyGuard)
        return true;
    // Head-frame injection is always permitted (Section 4.1: injection
    // to the head frame is allowed because the head frame is recycled
    // every F cycles). The output scheduling anomaly arises only from
    // out-of-order bookings into *future* frames, which is where
    // condition (1) applies.
    if (st.injFrame == headFrame_)
        return true;
    const std::int32_t prior =
        credit_[ringSlot(st.injFrame * frameSlots_ - 1)];
    const std::int32_t lhs = static_cast<std::int32_t>(frameSlots_) -
        static_cast<std::int32_t>(skipped_[st.injFrame % windowFrames_]);
    return lhs <= prior;
}

// loft-tidy: steady-state-hot
bool
OutputScheduler::tryScheduleInFrame(const FlowState &st,
                                    std::uint64_t l_now,
                                    std::uint64_t earliest_local,
                                    std::uint64_t &found_local) const
{
    std::uint64_t start = st.injFrame == headFrame_
        ? l_now + 1 : st.injFrame * frameSlots_;
    start = std::max(start, earliest_local);
    const std::uint64_t end_ex = (st.injFrame + 1) * frameSlots_;
    if (start >= end_ex)
        return false;
    // A frame is one aligned run of the ring: scan it without wrapping.
    const std::size_t at = ringSlot(start);
    const auto n = static_cast<std::size_t>(end_ex - start);
    const std::uint8_t *busy = busy_.data() + at;
    const std::int32_t *credit = credit_.data() + at;
    for (std::size_t i = 0; i < n; ++i) {
        if (!busy[i] && credit[i] > 0) {
            found_local = start + i;
            return true;
        }
    }
    return false;
}

bool
OutputScheduler::trySchedule(FlowId flow, Cycle now,
                             std::uint64_t quantum_no, Slot earliest_abs,
                             Slot &granted_abs)
{
    advanceTo(now);
    const std::size_t idx = flowIndex(flow);
    if (idx == flows_.size())
        panic("%s: scheduling request from unregistered flow %u",
              name_.c_str(), flow);
    FlowState &st = flows_[idx];
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
                NOC_OBSERVE(observer_,
                            onSchedGrant(*this, flow, quantum_no,
                                         granted_abs, st.injFrame, now));
                DPRINTF(Sched, now, "%s: flow %u quantum %llu -> "
                        "slot %llu (frame %llu)", name_.c_str(), flow,
                        static_cast<unsigned long long>(quantum_no),
                        static_cast<unsigned long long>(granted_abs),
                        static_cast<unsigned long long>(st.injFrame));
                return true;
            }
        }
        if (st.injFrame + 1 <= headFrame_ + windowFrames_ - 1) {
            // Advance the injection frame; the unused reservation is
            // voluntarily yielded (skipped).
            skipped_[st.injFrame % windowFrames_] += st.c;
            if (st.c > 0)
                NOC_OBSERVE(observer_,
                            onSchedSkipped(*this, flow, st.c,
                                           st.injFrame, now));
            st.c = std::min(st.r, st.c + st.r);
            ++st.injFrame;
        } else {
            ++throttles_;
            DPRINTF(Sched, now, "%s: flow %u throttled (C=%u IF=%llu "
                    "HF=%llu)", name_.c_str(), flow, st.c,
                    static_cast<unsigned long long>(st.injFrame),
                    static_cast<unsigned long long>(headFrame_));
            return false;
        }
    }
}

// loft-tidy: steady-state-hot
void
OutputScheduler::book(std::uint64_t local_slot, FlowId flow,
                      std::uint64_t quantum_no)
{
    const std::size_t at = ringSlot(local_slot);
    busy_[at] = 1;
    // loft-tidy: pooled(map nodes recycle through the router's Pool)
    bookings_[local_slot] = SlotBooking{flow, quantum_no};
    // Every slot from the booking to the window end loses a credit; a
    // negative result is the buffer overbooking of Section 4.2.
    std::int32_t lowest = 0;
    forEachRun(credit_, at, windowEndSlotEx() - local_slot,
               [&lowest](std::int32_t *c, std::int32_t *end) {
                   std::int32_t lo = lowest;
                   for (; c != end; ++c) {
                       --*c;
                       lo = std::min(lo, *c);
                   }
                   lowest = lo;
               });
    if (lowest < 0) {
        ++violations_;
        NOC_OBSERVE(observer_, onSchedCreditNegative(*this, lastAdvance_));
    }
    ++outstanding_;
}

// loft-tidy: steady-state-hot
void
OutputScheduler::onCreditReturn(Slot abs_slot)
{
    NOC_OBSERVE(observer_, onSchedCreditReturn(*this, abs_slot));
    // A return for a booking that predates a local status reset finds
    // nothing outstanding. Credits are capped at the buffer size, so
    // applying it below is harmless.
    if (outstanding_ != 0)
        --outstanding_;
    const std::uint64_t s =
        abs_slot > originSlot_ ? abs_slot - originSlot_ : 0;
    const std::uint64_t w_end = windowEndSlotEx();
    if (s >= w_end) {
        // loft-tidy: pooled(map nodes recycle through the router's Pool)
        ++futureReturns_[s];
        return;
    }
    const std::uint64_t from = std::max(s, windowStartSlot());
    const std::int32_t cap = bufferQuanta_;
    forEachRun(credit_, ringSlot(from), w_end - from,
               [cap](std::int32_t *c, std::int32_t *end) {
                   for (; c != end; ++c)
                       *c = std::min(*c + 1, cap);
               });
}

void
OutputScheduler::clearBooking(Slot abs_slot)
{
    if (abs_slot < originSlot_)
        return; // booking predates a local reset; long gone
    const std::uint64_t s = abs_slot - originSlot_;
    auto it = bookings_.find(s);
    if (it == bookings_.end())
        return; // dropped as stale by frame recycling
    busy_[ringSlot(s)] = 0;
    bookings_.erase(it);
    NOC_OBSERVE(observer_, onSchedBookingCleared(*this, abs_slot));
}

std::optional<SlotBooking>
OutputScheduler::bookingAt(Slot abs_slot) const
{
    if (abs_slot < originSlot_)
        return std::nullopt;
    auto it = bookings_.find(abs_slot - originSlot_);
    if (it == bookings_.end())
        return std::nullopt;
    return it->second;
}

std::optional<Slot>
OutputScheduler::earliestBookedSlot() const
{
    if (bookings_.empty())
        return std::nullopt;
    return toAbs(bookings_.begin()->first);
}

bool
OutputScheduler::canLocalReset() const
{
    // The paper's safety conditions are: all busy flags false (early
    // transfers clear their entries) and the downstream non-speculative
    // buffer empty (checked by the caller). Virtual-credit returns
    // still in flight are tolerated because credits are capped at the
    // buffer size.
    return bookings_.empty();
}

// loft-tidy: steady-state-hot
void
OutputScheduler::localReset(Cycle now)
{
    if (!canLocalReset())
        panic("%s: local reset with outstanding state", name_.c_str());
    DPRINTF(Reset, now, "%s: local status reset (HF was %llu)",
            name_.c_str(),
            static_cast<unsigned long long>(headFrame_));
    originSlot_ = params_.slotOf(now);
    headFrame_ = 0;
    headIdx_ = 0;
    std::fill(busy_.begin(), busy_.end(), 0);
    std::fill(credit_.begin(), credit_.end(), bufferQuanta_);
    std::fill(skipped_.begin(), skipped_.end(), 0);
    futureReturns_.clear();
    outstanding_ = 0; // returns for pre-reset bookings become stale
    for (FlowState &st : flows_) {
        st.injFrame = 0;
        st.c = st.r;
    }
    dirty_ = false;
    ++resets_;
    NOC_OBSERVE(observer_, onSchedLocalReset(*this, now));
}

void
OutputScheduler::debugCorruptBookingFlow(Slot abs_slot)
{
    if (abs_slot < originSlot_)
        return;
    auto it = bookings_.find(abs_slot - originSlot_);
    if (it == bookings_.end())
        return;
    it->second.flow = ~it->second.flow;
}

void
OutputScheduler::debugAdjustCredit(Slot abs_slot, std::int32_t delta)
{
    credit_[toLocal(abs_slot) % windowSlots_] += delta;
}

std::int32_t
OutputScheduler::virtualCreditAt(Slot abs_slot) const
{
    return credit_[toLocal(abs_slot) % windowSlots_];
}

} // namespace noc
