/**
 * @file
 * LOFT configuration (Table 1 of the paper) and the slot/quantum time
 * base shared by all LOFT components.
 *
 * Scheduling granularity is the data *quantum*: each look-ahead flit
 * leads one quantum of quantumFlits data flits, scheduled in its
 * entirety (Section 5.1). A slot is the link time of one quantum
 * (quantumFlits cycles), so with F = 256 flits, WF = 2 and 2-flit
 * quanta the reservation table holds F x WF / 2 = 256 slot entries,
 * matching Table 1.
 */

#ifndef NOC_CORE_LOFT_PARAMS_HH
#define NOC_CORE_LOFT_PARAMS_HH

#include "sim/logging.hh"
#include "sim/types.hh"

namespace noc
{

struct LoftParams
{
    /** Frame size F in flits. */
    std::uint32_t frameSizeFlits = 256;
    /** Frame window size WF. */
    std::uint32_t windowFrames = 2;
    /** Flits per quantum (per look-ahead flit). */
    std::uint32_t quantumFlits = 2;
    /** Maximum flows contending for one link (Table 1). */
    std::uint32_t maxFlows = 64;
    /** Non-speculative (central) buffer depth in flits, per input. */
    std::uint32_t centralBufferFlits = 256;
    /** Speculative buffer depth in flits, per input (0 disables). */
    std::uint32_t specBufferFlits = 12;

    /** Look-ahead network: number of virtual channels. */
    std::uint32_t laNumVCs = 3;
    /** Look-ahead network: per-VC buffer depth in flits. */
    std::uint32_t laVcDepth = 4;
    /** Pipeline depth of both routers (cycles). */
    Cycle routerStages = 3;
    /** Link traversal latency (cycles). */
    Cycle linkLatency = 1;

    /** Condition (1) anomaly guard (ablation toggle, Section 4.2). */
    bool anomalyGuard = true;
    /** Speculative flit switching (Section 4.3.1). */
    bool speculativeSwitching = true;
    /** Local status reset (Section 4.3.2). */
    bool localStatusReset = true;

    /** NI packet queue capacity in flits (0 = unbounded). */
    std::size_t sourceQueueFlits = 64;

    /**
     * Recovery machinery for injected faults (src/faults). Off by
     * default: the fault-free protocol never needs it, and with it off
     * a run is cycle-identical to one predating the subsystem. The
     * harness switches it on whenever a FaultPlan is active on a LOFT
     * run.
     */
    bool recovery = false;

    /**
     * Cycles a data quantum may sit unclaimed (no matching look-ahead
     * reservation) before the router synthesizes and re-issues the
     * look-ahead locally: two data frames.
     */
    Cycle lookaheadTimeout() const { return Cycle{2} * frameSizeFlits; }
    /**
     * Age (cycles past the booked departure slot) after which a
     * scheduled reservation-table record whose data never arrived is
     * scrubbed and its slot reclaimed: four data frames.
     */
    Cycle scrubTimeout() const { return Cycle{4} * frameSizeFlits; }
    /** How often the scrub pass runs: every half data frame. */
    Cycle scrubPeriod() const { return frameSizeFlits / 2; }

    /** Frame size in slots (quanta). */
    std::uint32_t frameSlots() const { return frameSizeFlits / quantumFlits; }
    /** Time window WT in slots. */
    std::uint32_t windowSlots() const { return frameSlots() * windowFrames; }
    /** Non-speculative buffer capacity in quanta. */
    std::uint32_t bufferQuanta() const
    {
        return centralBufferFlits / quantumFlits;
    }

    /** Absolute slot containing cycle @p now. */
    Slot slotOf(Cycle now) const { return now / quantumFlits; }
    /** First cycle of absolute slot @p s. */
    Cycle slotStart(Slot s) const { return s * quantumFlits; }

    void
    validate() const
    {
        if (quantumFlits == 0 || frameSizeFlits % quantumFlits != 0)
            fatal("LoftParams: frame size must be a multiple of the "
                  "quantum size");
        if (windowFrames < 2)
            fatal("LoftParams: frame window must be >= 2");
        if (centralBufferFlits % quantumFlits != 0)
            fatal("LoftParams: central buffer must hold whole quanta");
        if (centralBufferFlits < frameSizeFlits)
            fatal("LoftParams: Theorem I requires an input buffer of at "
                  "least F flits (%u < %u)", centralBufferFlits,
                  frameSizeFlits);
    }
};

} // namespace noc

#endif // NOC_CORE_LOFT_PARAMS_HH
