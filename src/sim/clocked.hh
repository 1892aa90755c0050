/**
 * @file
 * Interface for components driven by the global clock.
 */

#ifndef NOC_SIM_CLOCKED_HH
#define NOC_SIM_CLOCKED_HH

#include <cstdint>
#include <memory>

#include "sim/phase_sanitizer.hh"
#include "sim/types.hh"

namespace noc
{

/**
 * A component that performs work every clock cycle.
 *
 * Components must exchange state only through latency >= 1 channels (see
 * net/channel.hh); under that discipline the order in which tick() is
 * invoked across components within a cycle is irrelevant.
 */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Perform this cycle's work. @param now the current cycle. */
    virtual void tick(Cycle now) = 0;

    /**
     * True if tick() would be a no-op this cycle AND every following
     * cycle until some other component sends this one a message.
     *
     * The contract, precisely: while quiescent() holds, skipping tick()
     * must leave the component in a state externally indistinguishable
     * from having ticked (same messages sent — none — and same
     * responses to later input). The answer must not depend on the
     * cycle number: a component with future-dated work (a booked
     * departure slot, a pending timeout) is not quiescent.
     *
     * The simulator probes a spatially keyed component only while it
     * is awake. Every run window starts with all components awake; a
     * probe that finds the component quiescent puts it to sleep, and
     * it stays asleep until wake() is called. Channel flushes wake a
     * channel's reader, so a message wakes the receiver the cycle
     * before it is deliverable. Any other mutation of a component from
     * outside its own tick() that can make quiescent() false (a packet
     * injection, a co-located block writing this one's tables) must
     * call wake() on it.
     *
     * Components with autonomous time-driven behaviour (e.g. the GSF
     * frame barrier, which recycles frames on a timer even when idle)
     * must keep the default and stay always-active.
     */
    virtual bool quiescent() const { return false; }

    /**
     * Mark this component awake: the simulator probes it again this
     * cycle if its turn in the current cycle is still to come, else
     * next cycle. A no-op for components that the simulator polls
     * anyway (keyless ones) or that no simulator has planned yet.
     * During the partitioned phase only the calling domain's
     * components may be woken.
     */
    void
    wake()
    {
        if (!awake_)
            return;
        LOFT_PSAN_WAKE(awakeDomain_);
        *awake_ |= awakeBit_;
    }

  private:
    friend class Simulator;

    /**
     * Word of the owning domain's awake bitset that holds this
     * component's bit. Shares ownership of the bitset block, so the
     * binding stays valid when the Simulator dies first.
     */
    std::shared_ptr<std::uint64_t> awake_;
    std::uint64_t awakeBit_ = 0;
    /** Domain whose bitset holds the bit (phase-sanitizer check). */
    int awakeDomain_ = 0;
};

} // namespace noc

#endif // NOC_SIM_CLOCKED_HH
