/**
 * @file
 * FaultingChannel: the ChannelFaultHook decorator that injects faults
 * into one Channel<T>.
 *
 * Each instrumented link owns one independent, deterministically seeded
 * event stream per fault class. Events are drawn with geometric
 * inter-arrival times (mean 1/rate link-cycles) and "arm" the link; the
 * next send consumes the armed fault (drop / corrupt / delay), while
 * stall events gate ready() for stallCycles. Streams advance lazily,
 * are idempotent within a cycle, and depend only on (seed, link id,
 * cycle) — never on query frequency — so fault sequences are
 * bit-reproducible.
 *
 * Each half of a site has one owner, so a partitioned run needs no
 * lock: the send-side streams (drop, credit loss/corruption, payload
 * corruption) advance only in processSend(), inside the sender's tick,
 * and hand their results to Channel::deliverAt(), which buffers like
 * any other send; the stall stream and the stall window advance only
 * in stalled(), i.e. on the receiver's ready() queries inside its tick.
 */

#ifndef NOC_FAULTS_FAULTING_CHANNEL_HH
#define NOC_FAULTS_FAULTING_CHANNEL_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <utility>

#include "faults/fault_traits.hh"
#include "net/channel.hh"
#include "net/instrument.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace noc
{

/** Geometric inter-arrival gap (>= 1 cycles) for a per-cycle rate. */
inline Cycle
faultGap(Rng &rng, double rate)
{
    if (rate >= 1.0)
        return 1;
    const double u = rng.randDouble();
    const double g = std::log1p(-u) / std::log1p(-rate);
    return 1 + static_cast<Cycle>(std::min(g, 1.0e15));
}

/**
 * Injector-owned state shared by all fault sites of a run: the observer
 * to announce events to and the plan knobs every site needs. Read-only
 * while the simulation runs.
 */
struct FaultSiteShared
{
    NetObserver *observer = nullptr;
    Cycle resyncLatency = 256;
    Cycle stallCycles = 32;
    Cycle stopCycle = kNeverCycle;
};

/** Type-erased ownership handle for FaultingChannel<T> instances. */
class FaultSiteBase
{
  public:
    virtual ~FaultSiteBase() = default;
};

template <typename T>
class FaultingChannel final : public ChannelFaultHook<T>,
                              public FaultSiteBase
{
  public:
    /**
     * @param shared injector-owned shared state (outlives the site).
     * @param rates per-kind per-link-cycle rates for this link.
     * @param receiver node at the receiving end (event labeling).
     * @param seed stream seed, unique per (plan seed, link id).
     */
    FaultingChannel(FaultSiteShared *shared,
                    const std::array<double, kNumFaultKinds> &rates,
                    NodeId receiver, std::uint64_t seed)
        : shared_(shared), receiver_(receiver)
    {
        for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
            auto &st = kinds_[k];
            st.rate = rates[k];
            if (st.rate <= 0.0)
                continue;
            st.rng.seed(mixSeed(seed, k));
            st.nextAt = faultGap(st.rng, st.rate);
        }
    }

    void
    processSend(Channel<T> &ch, Cycle now, T value) override
    {
        using Traits = FaultTraits<T>;
        if constexpr (Traits::droppable) {
            if (consumeArmed(FaultKind::LookaheadDrop, now)) {
                noteInjected(FaultKind::LookaheadDrop, now);
                // The payload is destroyed but the link-level frame
                // still arrives: the receiver discards it on CRC and
                // returns the VC credit, keeping credits conserved.
                FaultStamp &st = Traits::stamp(value);
                st.corrupted = true;
                st.kind = FaultKind::LookaheadDrop;
                st.faultAt = now;
            }
        }
        if constexpr (Traits::credit) {
            if (consumeArmed(FaultKind::CreditLoss, now)) {
                noteInjected(FaultKind::CreditLoss, now);
                FaultStamp &st = Traits::stamp(value);
                st.resync = true;
                st.kind = FaultKind::CreditLoss;
                st.faultAt = now;
                // Resynchronization happens on top of the wire delay: a
                // "late" re-delivery can never beat an un-faulted send.
                ch.deliverAt(now + ch.latency() + shared_->resyncLatency,
                             std::move(value));
                return;
            }
            if (consumeArmed(FaultKind::CreditCorrupt, now)) {
                noteInjected(FaultKind::CreditCorrupt, now);
                // The corrupted message arrives on time (and will fail
                // its CRC at the receiver); the intact original follows
                // at the resynchronization horizon.
                T garbled = value;
                FaultStamp &gs = Traits::stamp(garbled);
                gs.corrupted = true;
                gs.kind = FaultKind::CreditCorrupt;
                gs.faultAt = now;
                ch.deliverAt(now + ch.latency(), std::move(garbled));
                FaultStamp &os = Traits::stamp(value);
                os.resync = true;
                os.kind = FaultKind::CreditCorrupt;
                os.faultAt = now;
                ch.deliverAt(now + ch.latency() + shared_->resyncLatency,
                             std::move(value));
                return;
            }
        }
        if constexpr (Traits::corruptible) {
            if (consumeArmed(FaultKind::DataCorrupt, now)) {
                noteInjected(FaultKind::DataCorrupt, now);
                Traits::corrupt(
                    value,
                    kinds_[static_cast<std::size_t>(
                               FaultKind::DataCorrupt)].rng,
                    now);
            }
        }
        ch.deliverAt(now + ch.latency(), std::move(value));
    }

    bool
    stalled(Cycle now) override
    {
        advanceStall(now);
        if (now >= stallUntil_)
            return false;
        if (!stallReported_) {
            // First delivery actually held back: the link-level monitor
            // notices the stuck link.
            stallReported_ = true;
            NOC_OBSERVE(shared_->observer,
                        {.kind = NetEvent::Kind::FaultDetected,
                         .fault = FaultKind::LinkStall, .node = receiver_,
                         .injectedAt = stallStart_, .now = now});
        }
        return true;
    }

    NodeId receiver() const { return receiver_; }

  private:
    struct KindStream
    {
        /// Default-seeded placeholder; re-seeded via mixSeed(seed, k)
        /// in the constructor before any stream with rate > 0 is drawn.
        Rng rng;
        double rate = 0.0;
        Cycle nextAt = kNeverCycle;
        bool armed = false;
    };

    /** Advance @p st past @p now, arming on any event crossed. */
    void
    advance(KindStream &st, Cycle now)
    {
        while (st.nextAt <= now) {
            if (st.nextAt >= shared_->stopCycle) {
                st.nextAt = kNeverCycle;
                return;
            }
            st.armed = true;
            st.nextAt += faultGap(st.rng, st.rate);
        }
    }

    /** True (once) if an event of @p kind is pending at @p now. */
    bool
    consumeArmed(FaultKind kind, Cycle now)
    {
        auto &st = kinds_[static_cast<std::size_t>(kind)];
        if (st.rate <= 0.0)
            return false;
        advance(st, now);
        if (!st.armed)
            return false;
        st.armed = false;
        return true;
    }

    /**
     * Take in every stall event up to @p now, each at its own time:
     * unlike the send-side kinds, stalls do not fold into one armed
     * event, so the injected count does not depend on how often the
     * receiver asks.
     */
    void
    advanceStall(Cycle now)
    {
        auto &st = kinds_[static_cast<std::size_t>(FaultKind::LinkStall)];
        if (st.rate <= 0.0)
            return;
        while (st.nextAt <= now) {
            if (st.nextAt >= shared_->stopCycle) {
                st.nextAt = kNeverCycle;
                return;
            }
            const Cycle at = st.nextAt;
            st.nextAt += faultGap(st.rng, st.rate);
            // Stall from the event time, so a stall that began (and
            // maybe partly expired) while the link was idle is handled
            // identically no matter when it is first queried.
            noteInjected(FaultKind::LinkStall, at);
            const Cycle end = at + shared_->stallCycles;
            if (end > stallUntil_) {
                stallStart_ = at;
                stallUntil_ = end;
                stallReported_ = false;
            }
        }
    }

    void
    noteInjected(FaultKind kind, Cycle now)
    {
        NOC_OBSERVE(shared_->observer,
                    {.kind = NetEvent::Kind::FaultInjected, .fault = kind,
                     .node = receiver_, .now = now});
    }

    FaultSiteShared *shared_;
    NodeId receiver_;
    std::array<KindStream, kNumFaultKinds> kinds_;
    Cycle stallUntil_ = 0;
    Cycle stallStart_ = 0;
    bool stallReported_ = false;
};

} // namespace noc

#endif // NOC_FAULTS_FAULTING_CHANNEL_HH
