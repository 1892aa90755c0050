/**
 * @file
 * Point-to-point pipelined channel with fixed latency.
 *
 * Channels are the only way clocked components may exchange state. With
 * latency >= 1 a message sent in cycle t becomes visible no earlier than
 * cycle t+1, which makes the per-cycle tick order of components
 * irrelevant (synchronous-hardware semantics).
 *
 * That same property is what makes partitioned execution exact. Inside
 * a Simulator run every registered channel is in deferred mode (see
 * sim/parallel.hh): sends are buffered into a pending list owned by the
 * sending thread and published at the per-cycle barrier. Since delivery
 * cycles are stamped at send time and are always in the future,
 * receivers cannot tell buffered-then-flushed sends from direct ones
 * through tryReceive(); and because every value enters the in-flight
 * queue at the barrier, the reader's mail bit for the channel (see
 * Clocked::mail) reflects start-of-cycle state, so quiescence decisions
 * stop depending on the per-cycle tick order too. A serial run is the
 * one-domain case, which is what makes every worker count
 * bit-identical by construction. Channels driven by hand outside a
 * Simulator run (unit tests) stay in direct mode.
 */

#ifndef NOC_NET_CHANNEL_HH
#define NOC_NET_CHANNEL_HH

#include <optional>
#include <utility>
#include <vector>

#include "net/instrument.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/phase_sanitizer.hh"
#include "sim/ring_deque.hh"
#include "sim/types.hh"

namespace noc
{

template <typename T>
class Channel;

/**
 * Fault-injection seam (src/faults). A hook installed on a channel sees
 * every send and may drop, mutate, delay, or re-schedule the value, and
 * may stall delivery. On un-faulted channels the cost is one
 * null-pointer check per send/ready.
 */
template <typename T>
class ChannelFaultHook
{
  public:
    virtual ~ChannelFaultHook() = default;

    /** Forward (possibly altered) @p value into @p ch, or swallow it. */
    virtual void processSend(Channel<T> &ch, Cycle now, T value) = 0;

    /** True while the link is stuck and may not deliver. */
    virtual bool stalled(Cycle now) = 0;
};

/**
 * A FIFO wire carrying values of type T with a fixed delivery latency.
 * One send per cycle is the physical norm (1 flit/cycle links), but the
 * channel itself does not enforce it; senders do.
 */
template <typename T>
class Channel final : public PendingPort
{
  public:
    explicit Channel(Cycle latency = 1) : latency_(latency)
    {
        if (latency == 0)
            panic("Channel latency must be >= 1");
        // Senders put at most a handful of messages on a wire per
        // cycle and receivers drain every ready message each tick, so
        // occupancy is bounded by ~latency + 1 in flight plus the
        // current cycle's sends. Reserving here keeps first-traffic
        // growth out of the measurement window: a link whose first
        // message happens after warm-up must not allocate.
        inFlight_.reserve(static_cast<std::size_t>(latency) + 2);
        pending_.reserve(kPendingReserve);
    }

    /** Send @p value at cycle @p now; arrives at now + latency. */
    // loft-tidy: steady-state-hot
    void
    send(Cycle now, T value)
    {
        if (faults_) {
            faults_->processSend(*this, now, std::move(value));
            return;
        }
        deliverAt(now + latency_, std::move(value));
    }

    /**
     * Enqueue @p value for delivery at absolute cycle @p when (after
     * the current cycle). The one enqueue point: send() stamps
     * now + latency, fault hooks also stamp late re-deliveries. In
     * concurrent mode the value is buffered on the sending thread and
     * published by flushPending() at the cycle barrier.
     */
    // loft-tidy: steady-state-hot
    void
    deliverAt(Cycle when, T value)
    {
        if (concurrent_) {
            // Register in the thread's dirty list on the first pending
            // send so the flush walks only channels that carried
            // traffic this cycle.
            LOFT_PSAN_CHANNEL_SEND(psan_);
            std::vector<PendingPort *> *dirty = par::ctx().dirty;
            if (!dirty)
                panic("Channel::send in concurrent mode outside a "
                      "simulation phase");
            if (pending_.empty())
                // loft-tidy: pooled(reserved in Simulator::preparePlan)
                dirty->push_back(this);
            // loft-tidy: pooled(kPendingReserve in the constructor)
            pending_.emplace_back(when, std::move(value));
            return;
        }
        enqueue(when, std::move(value));
    }

    /**
     * True if a value is deliverable at cycle @p now. A fault hook's
     * stall is consulted only while a value is in flight, so it is
     * detected at the first delivery it actually holds back.
     */
    bool
    ready(Cycle now) const
    {
        if (inFlight_.empty())
            return false;
        if (faults_ && faults_->stalled(now))
            return false;
        return inFlight_.front().first <= now;
    }

    /** Peek the deliverable value. @pre ready(now). */
    const T &
    peek(Cycle now) const
    {
        if (!ready(now))
            panic("Channel::peek with nothing deliverable");
        return inFlight_.front().second;
    }

    /**
     * Remove and return the deliverable value; taking the last one
     * clears the reader's mail bit. @pre ready(now).
     */
    T
    receive(Cycle now)
    {
        if (!ready(now))
            panic("Channel::receive with nothing deliverable");
        LOFT_PSAN_CHANNEL_RECEIVE(psan_);
        T v = std::move(inFlight_.front().second);
        inFlight_.pop_front();
        if (inFlight_.empty())
            unpost();
        return v;
    }

    /** Receive if ready, else nullopt. */
    std::optional<T>
    tryReceive(Cycle now)
    {
        if (!ready(now))
            return std::nullopt;
        return receive(now);
    }

    /** Number of values still in flight (any readiness). */
    std::size_t inFlightCount() const { return inFlight_.size(); }

    bool empty() const override { return inFlight_.empty(); }

    Cycle latency() const { return latency_; }

    // PendingPort (called by the Simulator, between cycles / at the
    // per-cycle barrier only).

    void
    setConcurrent(bool on) override
    {
        if (!pending_.empty())
            panic("Channel::setConcurrent with unflushed pending sends");
        LOFT_PSAN_BARRIER_SEAM("Channel", "setConcurrent");
        LOFT_PSAN_PORT_RESET(psan_);
        concurrent_ = on;
    }

    // loft-tidy: steady-state-hot
    void
    flushPending() override
    {
        LOFT_PSAN_BARRIER_SEAM("Channel", "flushPending");
        for (auto &entry : pending_)
            enqueue(entry.first, std::move(entry.second));
        pending_.clear();
        if (Clocked *r = reader())
            r->wake();
    }

    /** Install (or clear) the fault-injection hook. */
    void setFaultHook(ChannelFaultHook<T> *hook) { faults_ = hook; }

  private:
    /** Per-cycle send burst covered without growth (sends per cycle
     *  per channel are 1 on every wire; credit recovery can burst). */
    static constexpr std::size_t kPendingReserve = 4;

    /**
     * Insert into the in-flight queue, keeping it sorted by delivery
     * time and equal times in enqueue order, and post the value to the
     * reader. Same-latency sends arrive in order and everything
     * already in flight was enqueued earlier, so this appends; only a
     * fault hook's late re-delivery can be overtaken and make a later
     * value land in the middle.
     */
    // loft-tidy: steady-state-hot
    void
    enqueue(Cycle when, T value)
    {
        post();
        if (inFlight_.empty() || inFlight_.back().first <= when) {
            // loft-tidy: pooled(ring reserved to latency + 2 in the ctor)
            inFlight_.emplace_back(when, std::move(value));
            return;
        }
        // Upper bound: first entry due strictly after @p when.
        std::size_t lo = 0;
        std::size_t hi = inFlight_.size();
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (when < inFlight_[mid].first)
                hi = mid;
            else
                lo = mid + 1;
        }
        // loft-tidy: pooled(ring plateaus at latency-bounded peak)
        inFlight_.insertAt(lo, {when, std::move(value)});
    }

    Cycle latency_;
    /**
     * In-flight values, sorted by delivery time. A ring, not a deque:
     * occupancy is bounded by latency x sends/cycle (flow control
     * bounds the latter), so the capacity plateaus and the per-cycle
     * push/pop pair never allocates — unlike std::deque, which
     * recycles a heap node as the FIFO advances.
     */
    RingDeque<std::pair<Cycle, T>> inFlight_;
    /** Sends buffered during a parallel phase (sender thread only). */
    std::vector<std::pair<Cycle, T>> pending_;
    bool concurrent_ = false;
    ChannelFaultHook<T> *faults_ = nullptr;
    /** Phase-sanitizer scratch (sim/phase_sanitizer.hh). */
    psan::PortState psan_;
};

/** Credit message for conventional credit-based VC flow control. */
struct Credit
{
    /** Virtual channel the credit belongs to. */
    std::uint32_t vc = 0;
};

} // namespace noc

#endif // NOC_NET_CHANNEL_HH
