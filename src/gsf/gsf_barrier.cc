#include "gsf/gsf_barrier.hh"

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace noc
{

GsfBarrier::GsfBarrier(std::uint32_t window_frames, Cycle barrier_delay)
    : DomainLog("GsfBarrier"), window_(window_frames),
      delay_(barrier_delay), inFlight_(window_frames, 0)
{
    if (window_frames < 2)
        fatal("GsfBarrier: window must have at least 2 frames");
}

void
GsfBarrier::onPacketAdmitted(std::uint64_t frame, std::uint32_t flits)
{
    if (defer("onPacketAdmitted", {frame, flits, true}))
        return;
    if (frame < head_ || frame > newestFrame())
        panic("GsfBarrier: admission into inactive frame %llu "
              "(head %llu)", static_cast<unsigned long long>(frame),
              static_cast<unsigned long long>(head_));
    inFlight_[frame % window_] += flits;
    totalInFlight_ += flits;
}

void
GsfBarrier::onFlitEjected(std::uint64_t frame)
{
    if (defer("onFlitEjected", {frame, 0, false}))
        return;
    if (frame < head_ || frame > newestFrame() ||
        inFlight_[frame % window_] == 0)
        panic("GsfBarrier: ejection from empty frame %llu",
              static_cast<unsigned long long>(frame));
    --inFlight_[frame % window_];
    --totalInFlight_;
}

void
GsfBarrier::replay(const FrameEvent &e)
{
    // Runs at the barrier, outside any domain: the hooks apply directly.
    if (e.admit)
        onPacketAdmitted(e.frame, e.flits);
    else
        onFlitEjected(e.frame);
}

void
GsfBarrier::tick(Cycle now)
{
    if (advanceAt_ != kNeverCycle) {
        if (now >= advanceAt_) {
            ++head_;
            ++recycles_;
            advanceAt_ = kNeverCycle;
            DPRINTF(Gsf, now, "barrier: head frame -> %llu",
                    static_cast<unsigned long long>(head_));
        }
        return;
    }
    // Head frame drained? Start the barrier broadcast.
    if (inFlight_[head_ % window_] == 0)
        advanceAt_ = now + delay_;
}

} // namespace noc
