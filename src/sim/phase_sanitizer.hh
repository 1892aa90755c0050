/**
 * @file
 * Runtime phase sanitizer for the partitioned simulator.
 *
 * The three-phase contract (docs/PARALLEL.md, "Concurrency contract")
 * says that during the partitioned phase of a cycle a component may
 * only write state reachable from itself and communicate through the
 * deferred seams — Channel send/credit paths, per-domain DomainMerged
 * buffers — while the barrier-owned operations (flushPending,
 * mergeDomains, begin/endParallel, setConcurrent) run single-threaded
 * at the per-cycle barrier. loft-tidy enforces that contract statically
 * (`loft-phase-discipline`, `loft-cross-domain-channel`); this sanitizer
 * enforces it dynamically under test.
 *
 * The Simulator stamps the current (phase, cycle) into a thread-local,
 * and cheap assertion shims at the deferred seams abort with a
 * (component, cycle, phase, domain) report when
 *   - a barrier-owned seam is entered from inside a simulation phase,
 *   - a channel's pending buffer is touched by two threads in one cycle
 *     or its in-flight queue is popped from a foreign domain,
 *   - a DomainMerged hook runs in a domain context outside the
 *     partitioned phase (a leaked context), or a consumer outside any
 *     open window — one the simulator never registered — is mutated
 *     directly from inside it.
 *
 * The same switch guards the wake-up protocol: it aborts when a
 * component wakes a component of another domain during the partitioned
 * phase (Clocked::wake), and when a sleeping component is not quiescent
 * as its domain's phase starts, i.e. some mutation from outside its
 * tick skipped wake() (the missed-wake oracle in Simulator::runDomain).
 *
 * Cost model: disabled shims cost one relaxed atomic load and a
 * predictable branch, and the sanitizer is enabled per-process with
 * LOFT_PHASE_SANITIZER=1 (or psan::setEnabledForTest from tests). The
 * shims only read simulation state, so enabling the sanitizer cannot
 * change a run's fingerprint.
 */

#ifndef NOC_SIM_PHASE_SANITIZER_HH
#define NOC_SIM_PHASE_SANITIZER_HH

#include <atomic>
#include <cstdint>

#include "sim/types.hh"

namespace noc
{

/** Where inside a cycle the calling thread currently is. */
enum class SimPhase : std::uint8_t
{
    Idle,        ///< outside a parallel window / between cycles
    Prologue,    ///< serial keyless components before the mesh
    Partitioned, ///< domain execution (workers + main thread)
    Barrier,     ///< single-threaded flush/merge at the cycle barrier
    Epilogue,    ///< serial keyless components after the mesh
};

const char *simPhaseName(SimPhase p);

namespace psan
{

/** Cached LOFT_PHASE_SANITIZER tristate: -1 unknown, 0 off, 1 on. */
extern std::atomic<int> g_enabled;

/** Slow path: read LOFT_PHASE_SANITIZER and cache the verdict. */
bool enabledSlow();

/** Force the sanitizer on (1) / off (0) / back to the env (-1). */
void setEnabledForTest(int v);

inline bool
enabled()
{
    const int e = g_enabled.load(std::memory_order_relaxed);
    if (e >= 0)
        return e != 0;
    return enabledSlow();
}

/** Per-thread phase tag, stamped by the Simulator's parallel loop. */
struct ThreadState
{
    SimPhase phase = SimPhase::Idle;
    Cycle cycle = 0;
};

inline thread_local ThreadState tlPhase;

/**
 * Per-channel sanitizer scratch (lives in Channel). Owners are thread
 * identities (&tlPhase); in a correct run each field is only ever
 * written by the one thread that legitimately owns the seam, so the
 * scratch itself introduces no data race.
 */
struct PortState
{
    const void *sendOwner = nullptr; ///< thread of this cycle's sends
    Cycle sendCycle = kNeverCycle;   ///< cycle sendOwner was latched
    const void *recvOwner = nullptr; ///< receiving thread this window
};

/**
 * Abort with the (component, cycle, phase, domain) report for the seam
 * "@p owner::@p method" (e.g. "MetricsCollector::mergeDomains").
 */
[[noreturn]] void violation(const char *owner, const char *method,
                            const char *rule);

void checkBarrierSeam(const char *owner, const char *method);
void checkChannelSend(PortState &st);
void checkChannelReceive(PortState &st);
void checkDeferredBuffer(const char *owner, const char *hook);
void checkDirectDelivery(const char *owner, const char *hook);
void checkWake(int domain);
void resetPort(PortState &st);

} // namespace psan
} // namespace noc

/** Stamp the calling thread's (phase, cycle). Simulator only. */
#define LOFT_PSAN_SET_PHASE(phase_, cycle_)                              \
    do {                                                                 \
        if (::noc::psan::enabled()) {                                    \
            ::noc::psan::tlPhase.phase = (phase_);                       \
            ::noc::psan::tlPhase.cycle = (cycle_);                       \
        }                                                                \
    } while (0)

/** Barrier-owned seam (flushPending / mergeDomains / ...). */
#define LOFT_PSAN_BARRIER_SEAM(owner_, method_)                          \
    do {                                                                 \
        if (::noc::psan::enabled())                                      \
            ::noc::psan::checkBarrierSeam(owner_, method_);              \
    } while (0)

/** A deferred (concurrent-mode) channel send. */
#define LOFT_PSAN_CHANNEL_SEND(st_)                                      \
    do {                                                                 \
        if (::noc::psan::enabled())                                      \
            ::noc::psan::checkChannelSend(st_);                          \
    } while (0)

/** A channel in-flight pop. */
#define LOFT_PSAN_CHANNEL_RECEIVE(st_)                                   \
    do {                                                                 \
        if (::noc::psan::enabled())                                      \
            ::noc::psan::checkChannelReceive(st_);                       \
    } while (0)

/** A DomainMerged hook called from a domain context: it buffers into
 *  its per-domain scratch, or applies at once in a one-domain window. */
#define LOFT_PSAN_DEFERRED_BUFFER(owner_, hook_)                         \
    do {                                                                 \
        if (::noc::psan::enabled())                                      \
            ::noc::psan::checkDeferredBuffer(owner_, hook_);             \
    } while (0)

/** A DomainMerged hook mutating shared state directly. */
#define LOFT_PSAN_DIRECT_DELIVERY(owner_, hook_)                         \
    do {                                                                 \
        if (::noc::psan::enabled())                                      \
            ::noc::psan::checkDirectDelivery(owner_, hook_);             \
    } while (0)

/** Clear per-channel scratch at a window boundary. */
#define LOFT_PSAN_PORT_RESET(st_)                                        \
    do {                                                                 \
        if (::noc::psan::enabled())                                      \
            ::noc::psan::resetPort(st_);                                 \
    } while (0)

/** Clocked::wake() of a component planned into domain @p domain_. */
#define LOFT_PSAN_WAKE(domain_)                                          \
    do {                                                                 \
        if (::noc::psan::enabled())                                      \
            ::noc::psan::checkWake(domain_);                             \
    } while (0)

#endif // NOC_SIM_PHASE_SANITIZER_HH
