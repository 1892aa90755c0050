/**
 * @file
 * Intra-run parallelism primitives: the per-thread domain context that
 * components consult while the simulator executes spatial domains on
 * worker threads, the interfaces through which cross-thread effects are
 * buffered and merged at the per-cycle barrier, and the barrier itself.
 *
 * The partitioning model and the determinism argument (why a partitioned
 * run is bit-identical to a serial one) are documented in
 * docs/PARALLEL.md.
 */

#ifndef NOC_SIM_PARALLEL_HH
#define NOC_SIM_PARALLEL_HH

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace noc
{

/**
 * Type-erased side of a Channel that buffers sends while the simulator
 * runs. In concurrent mode a send appends to a pending list touched
 * only by the sending thread; the simulator calls flushPending() at the
 * cycle barrier (single-threaded) to publish the buffered values into
 * the in-flight queue, sorted by delivery time. Because channel latency
 * is >= 1, a value flushed at the end of cycle t is deliverable no
 * earlier than t+1, so buffering is invisible to receivers. It also
 * pins quiescence probes (empty()) to start-of-cycle state, removing
 * the tick-order dependence a direct same-cycle append would create;
 * the simulator therefore puts every registered port in concurrent
 * mode for every run, whatever the worker count.
 */
class PendingPort
{
  public:
    virtual ~PendingPort() = default;

    /**
     * Enter/leave deferred (concurrent-safe) mode. @pre no unflushed
     * pending sends (the simulator toggles this only between cycles).
     */
    virtual void setConcurrent(bool on) = 0;

    /** Publish pending sends into the in-flight queue. */
    virtual void flushPending() = 0;
};

/**
 * A consumer mutated by components of several domains during the
 * parallel phase of a cycle (metrics collectors, the GSF frame barrier,
 * the deferred observer). While a domain executes, its mutations are
 * recorded into a per-domain buffer; the simulator calls mergeDomains()
 * at the cycle barrier (single-threaded) to replay them in a
 * deterministic order.
 */
class DomainMerged
{
  public:
    virtual ~DomainMerged() = default;

    /** A parallel window opens with @p domains domains. */
    virtual void beginParallel(unsigned domains) = 0;

    /** Replay this cycle's buffered mutations (at the barrier). */
    virtual void mergeDomains() = 0;

    /** The parallel window closed; drop the buffers. */
    virtual void endParallel() = 0;
};

namespace par
{

/** Sentinel domain meaning "serial context: apply effects directly". */
constexpr int kDirect = -1;

/**
 * Per-thread execution context. Worker threads (and the main thread
 * while it runs domain 0) carry the domain they are executing so that
 * channels and merged consumers know to buffer instead of mutating
 * shared state; outside a parallel phase every thread reads kDirect.
 */
struct DomainContext
{
    /** Domain executing on this thread, or kDirect. */
    int domain = kDirect;

    /**
     * Serial registration index of the component currently ticking
     * (valid only while domain != kDirect); stamps deferred observer
     * events so the merge can reconstruct the serial delivery order.
     */
    std::uint32_t component = 0;

    /**
     * Dirty list concurrent channels enlist themselves into on the
     * first buffered send of a cycle, so the barrier flush walks only
     * channels that actually carried traffic. Null outside a parallel
     * window.
     */
    std::vector<PendingPort *> *dirty = nullptr;
};

inline thread_local DomainContext tlContext;

/** This thread's context (written by the Simulator's run loop). */
inline DomainContext &
ctx()
{
    return tlContext;
}

/** Domain of the calling thread, or kDirect outside a parallel phase. */
inline int
currentDomain()
{
    return tlContext.domain;
}

} // namespace par

/**
 * Sense-reversing barrier separating the phases of a parallel cycle.
 * Arrivals spin briefly when the host has a hardware thread per party
 * and fall back to yielding otherwise, so oversubscribed hosts (fewer
 * cores than workers) still make forward progress.
 */
class SpinBarrier
{
  public:
    explicit SpinBarrier(std::uint32_t parties) : parties_(parties)
    {
        const unsigned hw = std::thread::hardware_concurrency();
        spinBudget_ = (hw != 0 && hw >= parties) ? 4096u : 0u;
    }

    void
    arriveAndWait()
    {
        const std::uint64_t gen =
            generation_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            // Reset the arrival count before opening the next
            // generation: waiters re-arrive only after acquiring the
            // generation bump, which orders them after this store.
            arrived_.store(0, std::memory_order_relaxed);
            generation_.fetch_add(1, std::memory_order_release);
            return;
        }
        std::uint32_t spins = 0;
        while (generation_.load(std::memory_order_acquire) == gen) {
            if (++spins > spinBudget_)
                std::this_thread::yield();
            else
                cpuRelax();
        }
    }

  private:
    static void
    cpuRelax()
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#else
        std::this_thread::yield();
#endif
    }

    std::uint32_t parties_;
    std::uint32_t spinBudget_ = 0;
    std::atomic<std::uint32_t> arrived_{0};
    std::atomic<std::uint64_t> generation_{0};
};

} // namespace noc

#endif // NOC_SIM_PARALLEL_HH
