#include "core/output_scheduler.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace noc
{

namespace
{

/** log2 of the slots per credit block, a power of two near sqrt(WT). */
std::uint32_t
blockShiftFor(std::uint32_t window_slots)
{
    return static_cast<std::uint32_t>(std::bit_width(window_slots)) / 2;
}

/**
 * Bookings and banked credit returns a scheduler has room for from the
 * start. On perfbench's workloads one scheduler holds at most 10
 * bookings on uniform traffic, 3 on neighbor traffic and 67 on DoS,
 * and banks returns only on DoS (at most 11). DoS hot spots pass 32
 * bookings only after their warm-up, so a smaller reserve would grow
 * in the measure window.
 */
constexpr std::size_t kBookingReserve = 64;
constexpr std::size_t kBankedReserve = 16;

/** First entry of the slot-sorted list @p v whose slot is not below
 *  @p s. */
template <typename List>
auto
slotLowerBound(List &v, std::uint64_t s)
{
    return std::lower_bound(
        v.begin(), v.end(), s,
        [](const auto &e, std::uint64_t x) { return e.first < x; });
}

} // namespace

OutputScheduler::OutputScheduler(const LoftParams &params,
                                 std::string name, SchedSite site)
    : params_(params), name_(std::move(name)),
      frameSlots_(params.frameSlots()),
      windowFrames_(params.windowFrames),
      windowSlots_(params.windowSlots()),
      bufferQuanta_(static_cast<std::int32_t>(params.bufferQuanta())),
      blockShift_(blockShiftFor(windowSlots_)), busy_(windowSlots_, 0),
      credit_(windowSlots_, bufferQuanta_),
      blocks_(((windowSlots_ - 1) >> blockShift_) + 1,
              CreditBlock{0, kNoCap, bufferQuanta_}),
      skipped_(windowFrames_, 0), site_(site)
{
    params_.validate();
    bookings_.reserve(kBookingReserve);
    futureReturns_.reserve(kBankedReserve);
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
    st.epoch = static_cast<std::uint32_t>(resets_);
    st.injFrame = headFrame_;
    flows_.insert(pos, st);
    NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::SchedFlowRegistered,
                            .sched = this, .flow = flow, .quanta = r});
}

void
OutputScheduler::registerFlows(
    const std::vector<std::pair<FlowId, std::uint32_t>> &flows)
{
    flows_.reserve(flows_.size() + flows.size());
    for (const auto &[flow, reservation_flits] : flows)
        registerFlow(flow, reservation_flits);
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
    // A table holding ids 0..n-1 keeps flow f at index f.
    if (!flows_.empty()) {
        const std::size_t guess =
            std::min<std::size_t>(flow, flows_.size() - 1);
        if (flows_[guess].id == flow)
            return guess;
    }
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

OutputScheduler::FlowState
OutputScheduler::upToDate(FlowState st) const
{
    // A local reset restarted every flow at (0, R).
    if (st.epoch != static_cast<std::uint32_t>(resets_)) {
        st.epoch = static_cast<std::uint32_t>(resets_);
        st.injFrame = 0;
        st.c = st.r;
    }
    // Algorithm 3 moved a flow stuck at each recycled head frame on to
    // the next with C = min(R, C + R) = R (C never exceeds R).
    if (st.injFrame < headFrame_) {
        st.injFrame = headFrame_;
        st.c = st.r;
    }
    return st;
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

std::int32_t
OutputScheduler::shiftWords(std::size_t b, std::size_t first,
                            std::size_t last, std::int32_t d,
                            std::int32_t e)
{
    CreditBlock &blk = blocks_[b];
    std::int32_t *w = credit_.data();
    const std::size_t begin = b << blockShift_;
    const std::size_t end = blockEnd(b);
    std::int32_t lo = kNoCap;
    std::int32_t lowest = kNoCap;
    for (std::size_t i = begin; i < first; ++i) {
        w[i] = std::min(w[i] + blk.add, blk.cap);
        lo = std::min(lo, w[i]);
    }
    for (std::size_t i = std::max(first, begin); i < last; ++i) {
        w[i] = std::min(std::min(w[i] + blk.add, blk.cap) + d, e);
        lowest = std::min(lowest, w[i]);
    }
    for (std::size_t i = std::max(last, begin); i < end; ++i) {
        w[i] = std::min(w[i] + blk.add, blk.cap);
        lo = std::min(lo, w[i]);
    }
    blk = CreditBlock{0, kNoCap, std::min(lo, lowest)};
    return lowest;
}

// loft-tidy: steady-state-hot
std::int32_t
OutputScheduler::shiftRun(std::size_t first, std::size_t last,
                          std::int32_t d, std::int32_t e)
{
    std::size_t b = first >> blockShift_;
    std::size_t whole_end = ((last - 1) >> blockShift_) + 1;
    std::int32_t lowest = kNoCap;
    // Blocks the run cuts (at most its first and last) get their words
    // rewritten; the ones it covers are retagged.
    if (first != b << blockShift_ || last < blockEnd(b)) {
        lowest = shiftWords(b, first, std::min(last, blockEnd(b)), d, e);
        ++b;
    }
    if (b < whole_end && last < blockEnd(whole_end - 1)) {
        --whole_end;
        lowest = std::min(lowest, shiftWords(whole_end, 0, last, d, e));
    }
    for (; b < whole_end; ++b) {
        // min(min(w + a, m) + d, e) = min(w + (a + d), min(m + d, e));
        // an add beyond cap - lo only lifts words that read the cap.
        CreditBlock &blk = blocks_[b];
        blk.cap = std::min(blk.cap + d, e);
        blk.add = std::min(blk.add + d, blk.cap - blk.lo);
        lowest = std::min(lowest, blk.lo + blk.add);
    }
    return lowest;
}

std::int32_t
OutputScheduler::shiftToWindowEnd(std::uint64_t s, std::int32_t d,
                                  std::int32_t e)
{
    const std::size_t at = ringSlot(s);
    const auto n = static_cast<std::size_t>(windowEndSlotEx() - s);
    if (at + n <= windowSlots_)
        return shiftRun(at, at + n, d, e);
    return std::min(shiftRun(at, windowSlots_, d, e),
                    shiftRun(0, at + n - windowSlots_, d, e));
}

// loft-tidy: steady-state-hot
void
OutputScheduler::recycleHeadFrame()
{
    const std::uint64_t old_end = windowStartSlot() + frameSlots_;
    const std::uint64_t new_start = windowEndSlotEx();

    // Frame k is one aligned run of the ring, recycled in place as frame
    // k + WF. Seed each new slot's cumulative credit from the last slot
    // of the previously newest frame (the ring slot just before the
    // run), then roll in credit returns that had been recorded for
    // beyond-window slots. Every banked return lies at or beyond the
    // old window end, so the new frame's are a prefix of futureReturns_:
    // fill the runs between them. The frame's raw words are rewritten,
    // so the blocks wholly inside it drop their tags and take their
    // minima from the fills; a block it shares with a neighbouring frame
    // folds its tag in before and is rescanned (by a no-op fold) after.
    const std::size_t head = std::size_t{headIdx_} * frameSlots_;
    const std::size_t tail = head + frameSlots_;
    std::int32_t running =
        creditOf(head == 0 ? windowSlots_ - 1 : head - 1);
    const std::size_t b_first = head >> blockShift_;
    const std::size_t b_end = ((tail - 1) >> blockShift_) + 1;
    auto shared = [&](std::size_t b) {
        return b << blockShift_ < head || blockEnd(b) > tail;
    };
    for (std::size_t b = b_first; b < b_end; ++b) {
        if (shared(b))
            pushDown(b);
        else
            blocks_[b] = CreditBlock{0, kNoCap, kNoCap};
    }
    auto fill = [&](std::size_t from, std::size_t to, std::int32_t v) {
        if (from == to)
            return;
        std::fill(credit_.data() + from, credit_.data() + to, v);
        for (std::size_t b = from >> blockShift_;
             b <= (to - 1) >> blockShift_; ++b)
            blocks_[b].lo = std::min(blocks_[b].lo, v);
    };
    std::size_t filled = head;
    auto fr = futureReturns_.begin();
    for (; fr != futureReturns_.end() &&
           fr->first < new_start + frameSlots_;
         ++fr) {
        const std::size_t at = head + (fr->first - new_start);
        fill(filled, at, running);
        running = std::min(
            running + static_cast<std::int32_t>(fr->second), bufferQuanta_);
        filled = at;
    }
    fill(filled, tail, running);
    futureReturns_.erase(futureReturns_.begin(), fr);
    for (const std::size_t b : {b_first, b_end - 1})
        if (shared(b))
            pushDown(b);
    std::uint8_t *busy = busy_.data() + head;
    std::fill(busy, busy + frameSlots_, std::uint8_t{0});

    // Bookings left in the expiring frame are stale (their data was
    // forwarded as emergent long ago or lost); drop them.
    bookings_.erase(bookings_.begin(), slotLowerBound(bookings_, old_end));
    skipped_[headIdx_] = 0;

    // Algorithm 3 moves the flows stuck at the old head frame on when
    // they are next read (upToDate).
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
        creditOf(ringSlot(st.injFrame * frameSlots_ - 1));
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
    // A frame is one aligned run of the ring: scan it without wrapping,
    // one credit block at a time. A slot has credit when its word
    // exceeds -add and the block's cap is positive.
    const std::size_t at = ringSlot(start);
    const std::size_t stop = at + static_cast<std::size_t>(end_ex - start);
    const std::uint8_t *busy = busy_.data();
    const std::int32_t *credit = credit_.data();
    for (std::size_t i = at; i < stop;) {
        const CreditBlock &blk = blocks_[i >> blockShift_];
        const std::size_t seg_end =
            std::min(blockEnd(i >> blockShift_), stop);
        if (blk.cap > 0) {
            for (; i < seg_end; ++i) {
                if (!busy[i] && credit[i] > -blk.add) {
                    found_local = start + (i - at);
                    return true;
                }
            }
        }
        i = seg_end;
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
    st = upToDate(st);

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
                            {.kind = NetEvent::Kind::SchedGrant,
                             .sched = this, .flow = flow,
                             .quantumNo = quantum_no,
                             .slot = granted_abs, .frame = st.injFrame,
                             .now = now});
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
                            {.kind = NetEvent::Kind::SchedSkipped,
                             .sched = this, .flow = flow, .quanta = st.c,
                             .frame = st.injFrame, .now = now});
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
    // The slot was free, so it holds no booking yet.
    // loft-tidy: pooled(reserved at construction; grows past its peak)
    bookings_.insert(slotLowerBound(bookings_, local_slot),
                     {local_slot, SlotBooking{flow, quantum_no}});
    // Every slot from the booking to the window end loses a credit; a
    // negative result is the buffer overbooking of Section 4.2.
    if (shiftToWindowEnd(local_slot, -1, kNoCap) < 0) {
        ++violations_;
        NOC_OBSERVE(observer_,
                    {.kind = NetEvent::Kind::SchedCreditNegative,
                     .sched = this, .now = lastAdvance_});
    }
    ++outstanding_;
}

// loft-tidy: steady-state-hot
void
OutputScheduler::onCreditReturn(Slot abs_slot)
{
    NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::SchedCreditReturn,
                            .sched = this, .slot = abs_slot});
    // A return for a booking that predates a local status reset finds
    // nothing outstanding. Credits are capped at the buffer size, so
    // applying it below is harmless.
    if (outstanding_ != 0)
        --outstanding_;
    const std::uint64_t s =
        abs_slot > originSlot_ ? abs_slot - originSlot_ : 0;
    const std::uint64_t w_end = windowEndSlotEx();
    if (s >= w_end) {
        auto it = slotLowerBound(futureReturns_, s);
        if (it == futureReturns_.end() || it->first != s)
            // loft-tidy: pooled(reserved at construction; grows past its peak)
            it = futureReturns_.insert(it, {s, 0});
        ++it->second;
        return;
    }
    shiftToWindowEnd(std::max(s, windowStartSlot()), 1, bufferQuanta_);
}

void
OutputScheduler::clearBooking(Slot abs_slot)
{
    if (abs_slot < originSlot_)
        return; // booking predates a local reset; long gone
    const std::uint64_t s = abs_slot - originSlot_;
    const auto it = slotLowerBound(bookings_, s);
    if (it == bookings_.end() || it->first != s)
        return; // dropped as stale by frame recycling
    busy_[ringSlot(s)] = 0;
    bookings_.erase(it);
    NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::SchedBookingCleared,
                            .sched = this, .slot = abs_slot});
}

std::optional<SlotBooking>
OutputScheduler::bookingAt(Slot abs_slot) const
{
    if (abs_slot < originSlot_)
        return std::nullopt;
    const auto it = slotLowerBound(bookings_, abs_slot - originSlot_);
    if (it == bookings_.end() || it->first != abs_slot - originSlot_)
        return std::nullopt;
    return it->second;
}

std::optional<Slot>
OutputScheduler::earliestBookedSlot() const
{
    if (bookings_.empty())
        return std::nullopt;
    return toAbs(bookings_.front().first);
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
    // Busy flags live only under bookings, and there are none.
    assert(std::find(busy_.begin(), busy_.end(), 1) == busy_.end());
    // Every credit reads B: word + (B - lo) >= B for each word.
    for (CreditBlock &blk : blocks_) {
        blk.add = bufferQuanta_ - blk.lo;
        blk.cap = bufferQuanta_;
    }
    std::fill(skipped_.begin(), skipped_.end(), 0);
    futureReturns_.clear();
    outstanding_ = 0; // returns for pre-reset bookings become stale
    dirty_ = false;
    ++resets_;
    // Flows restart at (0, R) when next read (upToDate). Once every
    // 2^32 resets the 32-bit stamp wraps: restart them all now so that
    // no stale stamp can equal the new one.
    if (static_cast<std::uint32_t>(resets_) == 0)
        for (FlowState &st : flows_)
            st = FlowState{st.id, st.r, st.r, 0, 0};
    NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::SchedLocalReset,
                            .sched = this, .now = now});
}

void
OutputScheduler::debugCorruptBookingFlow(Slot abs_slot)
{
    if (abs_slot < originSlot_)
        return;
    const auto it = slotLowerBound(bookings_, abs_slot - originSlot_);
    if (it == bookings_.end() || it->first != abs_slot - originSlot_)
        return;
    it->second.flow = ~it->second.flow;
}

void
OutputScheduler::debugAdjustCredit(Slot abs_slot, std::int32_t delta)
{
    const std::size_t i = toLocal(abs_slot) % windowSlots_;
    shiftWords(i >> blockShift_, i, i + 1, delta, kNoCap);
}

std::int32_t
OutputScheduler::virtualCreditAt(Slot abs_slot) const
{
    return creditOf(toLocal(abs_slot) % windowSlots_);
}

std::int32_t
OutputScheduler::lowestCredit() const
{
    // The ring holds exactly the window's slots.
    std::int32_t lowest = kNoCap;
    for (const CreditBlock &blk : blocks_)
        lowest = std::min(lowest, blk.lo + blk.add);
    return lowest;
}

} // namespace noc
