/**
 * @file
 * FaultPlan: the deterministic schedule of faults for one run.
 *
 * A plan names per-link-cycle rates for each injectable fault class
 * plus the knobs shared by all of them (stall length, credit resync
 * latency, end of injection). The plan's seed — folded with the run
 * seed by the harness — and the deterministic link numbering of the
 * network wiring are the only entropy sources, so identical
 * (seed, plan) pairs reproduce bit-identical fault sequences.
 *
 * An all-zero plan (the default) makes the whole subsystem passive:
 * runExperiment() then builds no injector at all and the run is
 * bit-identical to one with the subsystem absent.
 */

#ifndef NOC_FAULTS_FAULT_PLAN_HH
#define NOC_FAULTS_FAULT_PLAN_HH

#include <cstdint>

#include "net/instrument.hh"
#include "sim/types.hh"

namespace noc
{

struct FaultPlan
{
    /** Master switch; false makes the plan inert regardless of rates. */
    bool enabled = false;

    /// @name Per-link-cycle fault rates (0 disables the class)
    /// @{
    double lookaheadDropRate = 0.0; ///< look-ahead flit drops (LOFT)
    double creditLossRate = 0.0;    ///< credit loss (LOFT)
    double creditCorruptRate = 0.0; ///< credit corruption (LOFT)
    double dataCorruptRate = 0.0;   ///< data payload bit-flips
    double linkStallRate = 0.0;     ///< transient link stalls
    /// @}

    /** Length of one link stall, in cycles. */
    Cycle stallCycles = 32;

    /**
     * Extra delay, on top of the link latency, after which a
     * lost/corrupted credit is re-delivered (modeling periodic credit
     * resynchronization). 0 = one data frame, resolved by the injector
     * from the network's parameters.
     */
    Cycle resyncLatency = 0;

    /** Faults are only injected before this cycle. */
    Cycle stopCycle = kNeverCycle;

    /**
     * Seed of the fault event streams. The harness folds the run seed
     * in, so a sweep over seeds also sweeps the fault sequences.
     */
    std::uint64_t seed = 0;

    double
    rateOf(FaultKind kind) const
    {
        switch (kind) {
          case FaultKind::LookaheadDrop:
            return lookaheadDropRate;
          case FaultKind::CreditLoss:
            return creditLossRate;
          case FaultKind::CreditCorrupt:
            return creditCorruptRate;
          case FaultKind::DataCorrupt:
            return dataCorruptRate;
          case FaultKind::LinkStall:
            return linkStallRate;
        }
        return 0.0;
    }

    /** True if the plan can inject anything at all. */
    bool
    active() const
    {
        return enabled &&
               (lookaheadDropRate > 0.0 || creditLossRate > 0.0 ||
                creditCorruptRate > 0.0 || dataCorruptRate > 0.0 ||
                linkStallRate > 0.0);
    }
};

} // namespace noc

#endif // NOC_FAULTS_FAULT_PLAN_HH
