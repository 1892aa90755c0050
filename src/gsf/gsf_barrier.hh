/**
 * @file
 * The global barrier network of GSF: detects when the head frame has
 * drained from the network and, after the barrier broadcast delay,
 * advances the globally synchronized frame window.
 */

#ifndef NOC_GSF_GSF_BARRIER_HH
#define NOC_GSF_GSF_BARRIER_HH

#include <cstdint>
#include <vector>

#include "sim/clocked.hh"
#include "sim/parallel.hh"
#include "sim/types.hh"

namespace noc
{

/** One frame event, as buffered by a domain. */
struct FrameEvent
{
    std::uint64_t frame = 0;
    /** Flits admitted (admissions only). */
    std::uint32_t flits = 0;
    /** True for an admission, false for an ejection. */
    bool admit = false;
};

/**
 * Always active: the barrier advances the frame window on a timer even
 * when the network is empty (an idle network recycles every delay+1
 * cycles), and source quotas replenish on those advances. It therefore
 * keeps Clocked's default quiescent() == false.
 *
 * Sources and sinks of several domains report admissions/ejections
 * concurrently; the events go through a DomainLog and are replayed in
 * serial order at the per-cycle barrier, before this component's own
 * tick (it is keyless, so it runs in the serial epilogue). The
 * admission-range and underflow panics therefore fire exactly where a
 * serial run's would.
 */
// loft-tidy: phase-serial — keyless: ticked in the serial epilogue
//     after mergeDomains() has replayed the per-domain frame events.
class GsfBarrier final : public Clocked, public DomainLog<FrameEvent>
{
  public:
    GsfBarrier(std::uint32_t window_frames, Cycle barrier_delay);

    /** Absolute number of the head (oldest active) frame. */
    std::uint64_t headFrame() const { return head_; }

    /** Absolute number of the newest active frame. */
    std::uint64_t newestFrame() const { return head_ + window_ - 1; }

    /** A source admitted a packet into @p frame (counts its flits). */
    void onPacketAdmitted(std::uint64_t frame, std::uint32_t flits);

    /** A sink ejected a flit tagged @p frame. */
    void onFlitEjected(std::uint64_t frame);

    /** Total flits still owned by active frames. */
    std::uint64_t inFlightFlits() const { return totalInFlight_; }

    /** Number of window advances so far (diagnostics). */
    std::uint64_t recycleCount() const { return recycles_; }

    void tick(Cycle now) override;

  private:
    void replay(const FrameEvent &e) override;

    std::uint32_t window_;
    Cycle delay_;
    std::uint64_t head_ = 0;
    /**
     * In-flight flit count per active frame, at frame mod window.
     * Sources admit only into the active frames after the head, and the
     * head advances only once its frame has drained, so a counter is
     * zero whenever the frame it next counts becomes active.
     */
    std::vector<std::uint64_t> inFlight_;
    std::uint64_t totalInFlight_ = 0;
    /** Cycle at which a pending advance completes (kNeverCycle: none). */
    Cycle advanceAt_ = kNeverCycle;
    std::uint64_t recycles_ = 0;
};

} // namespace noc

#endif // NOC_GSF_GSF_BARRIER_HH
