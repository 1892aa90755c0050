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

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/clocked.hh"
#include "sim/logging.hh"
#include "sim/phase_sanitizer.hh"

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
 * pins quiescence probes to start-of-cycle state, removing the
 * tick-order dependence a direct same-cycle append would create; the
 * simulator therefore puts every registered port in concurrent mode
 * for every run, whatever the worker count.
 *
 * Each port names the component that reads it and the reader's input
 * port index. The port keeps that input's bit of the reader's mail
 * word (Clocked::mail) equal to "the in-flight queue is non-empty":
 * post() sets it wherever a value enters the queue (the barrier flush,
 * a direct-mode send), unpost() clears it where receive() takes the
 * last value (the reader's own tick). A flush also wakes the reader
 * (Clocked::wake), which is how an arrival reaches a sleeping
 * component. The reader binds itself where it connects the channel,
 * and the simulator refuses to run a registered port without one.
 */
class PendingPort
{
  public:
    virtual ~PendingPort() = default;

    /**
     * Bind the component that receives from this port as its input
     * port @p port, the bit of the reader's mail word this port owns.
     * Panics unless @p port < 32. A port already holding a value posts
     * it at once.
     */
    void
    setReader(Clocked *reader, unsigned port)
    {
        if (port >= 32)
            panic("PendingPort::setReader: input port %u does not fit "
                  "the 32-bit mail word", port);
        reader_ = reader;
        mailBit_ = std::uint32_t{1} << port;
        if (!empty())
            post();
    }
    Clocked *reader() const { return reader_; }
    /** The reader's input-port index of this port. */
    unsigned readerPort() const { return std::countr_zero(mailBit_); }
    /** True if this port's bit of the reader's mail word is set. */
    bool posted() const { return reader_ && (reader_->mail_ & mailBit_); }

    /** True if no value is in flight (deliverable or not). */
    virtual bool empty() const = 0;

    /**
     * Enter/leave deferred (concurrent-safe) mode. @pre no unflushed
     * pending sends (the simulator toggles this only between cycles).
     */
    virtual void setConcurrent(bool on) = 0;

    /** Publish pending sends into the in-flight queue, post them and
     *  wake the reader. */
    virtual void flushPending() = 0;

    /**
     * Fault injection (tests only): clear the reader's bit for this
     * port while its value stays queued — the lost post the phase
     * sanitizer's mail oracle must catch. Never called by the
     * simulator itself.
     */
    void debugDropPost() { unpost(); }

  protected:
    /** A value entered the in-flight queue. */
    void
    post()
    {
        if (reader_)
            reader_->mail_ |= mailBit_;
    }

    /** The in-flight queue became empty. */
    void
    unpost()
    {
        if (reader_)
            reader_->mail_ &= ~mailBit_;
    }

  private:
    Clocked *reader_ = nullptr;
    std::uint32_t mailBit_ = 0;
};

/**
 * A consumer mutated by components of several domains during the
 * parallel phase of a cycle (metrics collectors, the GSF frame barrier,
 * the observer mux). While two or more domains execute, their
 * mutations are recorded into per-domain buffers; the simulator calls
 * mergeDomains() at the cycle barrier (single-threaded) to replay them
 * in a deterministic order. DomainLog is the implementation.
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
     * (valid only while domain != kDirect); stamps buffered records
     * so the merge can reconstruct the serial delivery order.
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

/** Hardware threads of the host, or 1 when the count is unknown. */
inline unsigned
hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/**
 * The per-domain record log behind every DomainMerged consumer. Each
 * hook of the consumer starts with `if (defer(hook, record)) return;`
 * and the consumer implements replay(), which the barrier merge calls
 * once per buffered record.
 *
 * A record is buffered only while the calling thread runs a domain
 * inside a window of two or more domains; it is stamped with the
 * serial registration index of the component ticking
 * (par::ctx().component). Components run in registration order within
 * their domain and domains partition the index space, so every
 * domain's log is sorted by stamp, and mergeDomains() — a k-way merge
 * by stamp — replays the records in exactly the order a serial run
 * would have applied them. Everywhere else defer() returns false and
 * the hook applies the record at once: in a one-domain window (every
 * serial run), where the domain's own order is already the serial
 * order, and outside a domain (prologue/epilogue components, the
 * replay itself).
 *
 * The logs are grow-only: endParallel() clears their contents but
 * keeps their capacity, so the warm-up window's growth pays for the
 * measurement window, and setDeferredReserve() sizes them up front.
 */
template <typename Record>
class DomainLog : public DomainMerged
{
  public:
    /** @p owner names the consumer in phase-sanitizer reports. */
    explicit DomainLog(const char *owner) : owner_(owner) {}

    void
    beginParallel(unsigned domains) override
    {
        LOFT_PSAN_BARRIER_SEAM(owner_, "beginParallel");
        domains_ = domains;
        if (domains < 2)
            return;
        if (logs_.size() < domains) {
            logs_.resize(domains);
            cursors_.resize(domains);
        }
        for (std::vector<Stamped> &log : logs_)
            if (log.capacity() < reserve_)
                log.reserve(reserve_);
    }

    void
    mergeDomains() override
    {
        LOFT_PSAN_BARRIER_SEAM(owner_, "mergeDomains");
        std::fill(cursors_.begin(), cursors_.end(), 0);
        for (;;) {
            std::size_t best = logs_.size();
            std::uint32_t best_comp = 0;
            for (std::size_t d = 0; d < logs_.size(); ++d) {
                if (cursors_[d] >= logs_[d].size())
                    continue;
                const std::uint32_t comp =
                    logs_[d][cursors_[d]].component;
                if (best == logs_.size() || comp < best_comp) {
                    best = d;
                    best_comp = comp;
                }
            }
            if (best == logs_.size())
                break;
            // Drain the chosen component's consecutive records in one go.
            const std::vector<Stamped> &log = logs_[best];
            std::size_t &cur = cursors_[best];
            do {
                replay(log[cur].record);
                ++cur;
            } while (cur < log.size() && log[cur].component == best_comp);
        }
        clearLogs();
    }

    void
    endParallel() override
    {
        LOFT_PSAN_BARRIER_SEAM(owner_, "endParallel");
        clearLogs();
        domains_ = 0;
    }

    /**
     * Reserve @p per_domain records in each domain log from the next
     * beginParallel() of two or more domains on, so first-time growth
     * stays out of the measurement window (0 = grow on demand).
     */
    void setDeferredReserve(std::size_t per_domain) { reserve_ = per_domain; }

  protected:
    /**
     * Buffer @p r in the calling thread's domain and return true, or
     * return false when the caller must apply it now. @p hook names
     * the calling hook in phase-sanitizer reports.
     */
    // loft-tidy: steady-state-hot
    bool
    defer(const char *hook, const Record &r)
    {
        const int d = par::currentDomain();
        // A closed window inside the partitioned phase is a consumer
        // the simulator never registered (Simulator::addMerged).
        if (d == par::kDirect || domains_ == 0) {
            LOFT_PSAN_DIRECT_DELIVERY(owner_, hook);
            return false;
        }
        LOFT_PSAN_DEFERRED_BUFFER(owner_, hook);
        if (domains_ == 1)
            return false;
        // loft-tidy: pooled(grow-only logs; setDeferredReserve sizes them)
        logs_[static_cast<std::size_t>(d)].push_back(
            {par::ctx().component, r});
        return true;
    }

  private:
    /** A buffered record and the serial index of its component. */
    struct Stamped
    {
        std::uint32_t component;
        Record record;
    };

    /** Apply one buffered record (called by mergeDomains()). */
    virtual void replay(const Record &r) = 0;

    void
    clearLogs()
    {
        for (std::vector<Stamped> &log : logs_)
            log.clear();
    }

    const char *owner_;
    /** Domains of the open window; 0 outside beginParallel() ..
     *  endParallel(). */
    unsigned domains_ = 0;
    std::size_t reserve_ = 0;
    std::vector<std::vector<Stamped>> logs_;
    /** Merge position in each log (sized with logs_). */
    std::vector<std::size_t> cursors_;
};

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
