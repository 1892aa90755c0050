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

class PendingPort;

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
     * A value on an input channel, deliverable yet or not, makes a
     * component non-quiescent; mail() says which inputs hold one, so
     * an override reads mail() == 0 instead of asking its channels.
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
     * The mail word: bit p is set exactly while the channel bound as
     * this component's input port p (PendingPort::setReader) holds a
     * value, deliverable or not. The channel sets the bit when a value
     * enters its in-flight queue — at the barrier flush, or on a send
     * in direct mode outside a run — and clears it when receive()
     * takes the last value, which only this component's own tick
     * does. Set and clear never overlap in time, so the word needs no
     * synchronization. Receive loops walk its set bits in ascending
     * port order instead of polling every input.
     */
    std::uint32_t mail() const { return mail_; }

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
    friend class PendingPort;

    /**
     * Word of the owning domain's awake bitset that holds this
     * component's bit. Shares ownership of the bitset block, so the
     * binding stays valid when the Simulator dies first.
     */
    std::shared_ptr<std::uint64_t> awake_;
    std::uint64_t awakeBit_ = 0;
    /** Domain whose bitset holds the bit (phase-sanitizer check). */
    int awakeDomain_ = 0;
    /** Input ports holding a value (see mail()). */
    std::uint32_t mail_ = 0;
};

} // namespace noc

#endif // NOC_SIM_CLOCKED_HH
