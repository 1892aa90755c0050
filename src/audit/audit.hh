/**
 * @file
 * Vocabulary of the runtime invariant-audit subsystem: the kinds of
 * invariant that can be violated, the record kept for each violation,
 * and the knobs of the auditor.
 *
 * The audit library is an external check on the simulator: it rebuilds
 * the protocol state it expects from the event stream published through
 * NetObserver (net/instrument.hh) and cross-checks it against the
 * actual component state. It must never influence simulation results.
 */

#ifndef NOC_AUDIT_AUDIT_HH
#define NOC_AUDIT_AUDIT_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace noc
{

/** Classes of invariant the NetworkAuditor checks. */
enum class AuditKind : std::uint8_t
{
    /** Flit conservation: a flit was lost, duplicated, or teleported. */
    Conservation,
    /** A non-speculative data flit arrived with no matching look-ahead
     *  reservation (FRS protocol broken). */
    Reservation,
    /** A virtual-credit counter observed negative while the anomaly
     *  guard (condition (1)) is enabled — Theorem I broken. */
    Credit,
    /** Output-scheduling anomaly: a flow exceeded its per-frame R_ij
     *  budget, a frame was over-committed past F, or the scheduler
     *  itself reported a negative-credit booking under the guard. */
    Anomaly,
    /** The component's live state diverged from the shadow state the
     *  auditor replayed from the event stream (e.g. a corrupted
     *  reservation-table entry). */
    StateMismatch,
    /** Deadlock / starvation watchdog: flits are in flight but nothing
     *  moved for a whole watchdog window. Soft — excluded from
     *  hardViolationCount(). */
    Watchdog,
};

constexpr std::size_t kNumAuditKinds = 6;

/** Human-readable name of an AuditKind. */
const char *auditKindName(AuditKind kind);

/** One recorded invariant violation. */
struct AuditViolation
{
    AuditKind kind;
    Cycle cycle = 0;
    std::string detail;
};

/**
 * Grace period (cycles) between a non-speculative data arrival and the
 * look-ahead admission that must justify it. Covers intra-cycle
 * tick-ordering skew between the look-ahead and data planes; a
 * reservation still missing this long after the data arrived is a
 * protocol violation.
 */
constexpr Cycle kReservationGrace = 8;

/** Tuning knobs of the NetworkAuditor. */
struct AuditConfig
{
    /**
     * Cycles between deep audits (shadow-vs-actual cross-checks and
     * credit-table scans). 0 derives one data frame (frameSizeFlits
     * cycles) from the first scheduler observed, so corrupted state is
     * reported within one frame window; non-LOFT networks fall back to
     * 1024 cycles.
     */
    Cycle deepAuditPeriod = 0;

    /**
     * Cycles without any flit movement before the deadlock/starvation
     * watchdog, which every deep audit runs, trips.
     */
    Cycle watchdogWindow = 20000;

    /** Cap on violations kept with full detail (counters never stop). */
    std::size_t maxRecorded = 64;
};

} // namespace noc

#endif // NOC_AUDIT_AUDIT_HH
