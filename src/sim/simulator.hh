/**
 * @file
 * The top-level cycle-driven run loop, serial or spatially partitioned.
 *
 * Components registered with a spatial key (their node id) are sharded
 * into per-worker domains and advanced in parallel inside one cycle;
 * keyless components run serially before (prologue) or after (epilogue)
 * the partitioned phase, in registration order. Cross-domain effects —
 * channel sends, observer events, shared-counter updates — are buffered
 * during the phase and flushed/merged deterministically at a per-cycle
 * barrier.
 *
 * Deferred channel visibility is the only cycle semantics, not a
 * parallel-only trick: the run loop defers sends even with a single
 * worker (no pool, no barriers — just the same three-phase cycle on one
 * thread). Every cycle then executes against start-of-cycle channel
 * state for every worker count, so quiescence decisions cannot depend
 * on the per-cycle tick order and any worker count is bit-identical to
 * any other by construction (see docs/PARALLEL.md). Barrier-merged
 * consumers (DomainLog) buffer only while two or more domains run: the
 * one domain of a single-worker run already calls them in serial
 * order.
 */

#ifndef NOC_SIM_SIMULATOR_HH
#define NOC_SIM_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/clocked.hh"
#include "sim/parallel.hh"
#include "sim/types.hh"

namespace noc
{

/**
 * Owns the global cycle counter and drives registered Clocked components.
 * Does not own component lifetimes; networks register their parts.
 *
 * Keyed components are event-driven: each domain keeps an awake bitset
 * over its components and probes only the awake ones, in registration
 * order. A probe that finds quiescent() (see Clocked) puts the
 * component to sleep instead of ticking it; it is probed again once
 * something calls its wake() — a channel flush for the channel's
 * reader, a packet injection for its source, a co-located block for
 * its partner — and every run window starts with all of them awake.
 * Keyless (prologue/epilogue) components are polled every cycle.
 */
class Simulator
{
  public:
    Simulator();
    ~Simulator();
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Register a keyless component; it is polled (quiescent() or
     * tick()) every cycle.
     */
    void add(Clocked *component);

    /**
     * Register a spatially partitionable component. @p spatial_key is
     * the component's node id; components sharing a key always land in
     * the same domain (preserving intra-node same-cycle coupling), and
     * domains are contiguous key ranges, so the per-domain execution
     * order equals the serial registration order restricted to the
     * domain. Keyed components must form one contiguous registration
     * range — a keyless component between keyed ones panics when a
     * parallel run starts.
     */
    void add(Clocked *component, NodeId spatial_key);

    /**
     * Register a channel endpoint for deferred buffering. Every channel
     * of the simulated network must be registered: each run puts all
     * registered ports in concurrent mode and flushes their sends at
     * the end of every cycle, fault-instrumented channels included.
     * A run panics if a registered port has no reader
     * (PendingPort::setReader), since nothing could wake it.
     */
    void addPort(PendingPort *port);

    /**
     * Register a consumer whose cross-domain mutations are buffered and
     * merged at the per-cycle barrier (metrics, the GSF frame barrier,
     * the observer mux). Every DomainLog a component calls during a run
     * must be registered: an unregistered one applies records at once
     * from every domain, which the phase sanitizer reports.
     */
    void addMerged(DomainMerged *consumer);

    /**
     * Worker threads for partitioned execution; 1 = single-threaded
     * (default), 0 = hardware concurrency. The worker count changes
     * wall-clock behaviour only: results are bit-identical for every
     * count because a one-worker run uses the same deferred-visibility
     * cycle, with domain 0 holding the whole mesh.
     */
    void setWorkers(unsigned workers);
    unsigned workers() const { return workers_; }

    /** Current cycle (the cycle about to execute / executing). */
    Cycle now() const { return now_; }

    /**
     * Advance the simulation by @p cycles cycles.
     * Panics if now() + cycles would overflow the cycle counter.
     */
    void run(Cycle cycles);

    /**
     * Advance until @p done returns true or @p max_cycles elapse. The
     * predicate is evaluated before every cycle (including the first).
     * Panics if now() + max_cycles would overflow the cycle counter.
     * @return true if the predicate fired, false on timeout.
     */
    bool runUntil(const std::function<bool()> &done, Cycle max_cycles);

    /** Number of registered components. */
    std::size_t numComponents() const { return components_.size(); }

    /** Components that would tick (not quiescent) right now. */
    std::size_t activeComponents() const;

    /// @name Scheduler effectiveness counters
    /// @{
    /** tick() calls actually dispatched. */
    std::uint64_t ticksExecuted() const { return ticksExecuted_; }
    /** Probes that found the component quiescent (awake keyed
     *  components and polled keyless ones). */
    std::uint64_t ticksSkipped() const { return ticksSkipped_; }
    /// @}

    /**
     * Heap allocations observed during the most recent run() /
     * runUntil() window (global operator-new census, sim/alloc.hh).
     * After warm-up this must be zero — the zero-allocation
     * steady-state invariant (docs/SCALE.md). Meaningful only when a
     * single simulation is in flight; a threaded sweep interleaves
     * counts from sibling cases.
     */
    std::uint64_t lastRunHeapAllocs() const { return lastRunAllocs_; }

  private:
    struct Entry
    {
        Clocked *component = nullptr;
        NodeId key = kInvalidNode;
        bool keyed = false;
    };

    struct Plan; ///< Domain assignment + per-domain scratch (simulator.cc).
    struct Pool; ///< Worker threads and their barrier (simulator.cc).

    /** One cycle: prologue, partitioned phase, barrier, epilogue. */
    void runCycle();

    /** Build the domain plan from the current registrations. */
    void preparePlan();

    /** Put the ports in concurrent mode and start the pool, if any. */
    void beginParallelWindow();
    void endParallelWindow();

    /** Tick/skip the awake keyed components of @p domain (phase body). */
    void runDomain(unsigned domain);

    /** Missed-wake oracle (phase sanitizer): every sleeping component
     *  of @p domain must be quiescent, and the ports its components
     *  read must pass checkMail. */
    void checkSleepers(unsigned domain);

    /**
     * Missed-post oracle (phase sanitizer): every registered port read
     * by a component of @p domain (keyless readers count as domain 0;
     * a negative @p domain takes every port) must have its reader's
     * mail bit set exactly while it holds a value. A quiescent() that
     * reads the mail word cannot see a lost post, so the missed-wake
     * oracle would not catch one. @p method names the calling step in
     * the report.
     */
    void checkMail(int domain, const char *method) const;

    /** Spawn the worker pool for the current plan, if not running. */
    void ensurePool();
    void teardownPool();
    void workerLoop(unsigned domain);

    /** End of the current run window (exclusive). */
    Cycle runEnd(Cycle cycles) const;

    std::vector<Entry> components_;
    std::vector<PendingPort *> ports_;
    std::vector<DomainMerged *> merged_;
    std::unique_ptr<Plan> plan_;
    std::unique_ptr<Pool> pool_;
    unsigned workers_ = 1;
    bool planDirty_ = true;
    Cycle now_ = 0;
    std::uint64_t ticksExecuted_ = 0;
    std::uint64_t ticksSkipped_ = 0;
    std::uint64_t lastRunAllocs_ = 0;
};

} // namespace noc

#endif // NOC_SIM_SIMULATOR_HH
