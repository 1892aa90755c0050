/**
 * @file
 * Stand-alone OutputScheduler timing loop: times the scheduler's public API
 * (trySchedule, onCreditReturn, localReset, advanceTo across a frame
 * boundary) at a workload's window size and per-port flow count.
 */

#ifndef PERFBENCH_SCHED_BENCH_HH
#define PERFBENCH_SCHED_BENCH_HH

#include <cstdint>

#include "core/loft_params.hh"

namespace perfbench
{

/** Mean host cost per call, in nanoseconds, and the calls timed. */
struct SchedCost
{
    double nsPerGrant = 0.0;
    double nsPerCreditReturn = 0.0;
    double nsPerLocalReset = 0.0;
    /** advanceTo() that recycles one frame (Algorithm 3). */
    double nsPerAdvance = 0.0;
    std::uint64_t grants = 0;
    std::uint64_t creditReturns = 0;
    std::uint64_t localResets = 0;
    std::uint64_t advances = 0;
};

/**
 * Drive one scheduler with @p flows flows of @p reservation_flits each
 * for about @p seconds of host time. Every frame the loop advances to
 * the frame start, books each flow's reservation into the window,
 * returns the credits of the frame's grants and clears their bookings,
 * and resets locally every fourth frame.
 */
SchedCost timeOutputScheduler(const noc::LoftParams &params,
                              std::uint32_t flows,
                              std::uint32_t reservation_flits,
                              double seconds);

} // namespace perfbench

#endif // PERFBENCH_SCHED_BENCH_HH
