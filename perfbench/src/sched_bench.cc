#include "sched_bench.hh"

#include <algorithm>
#include <vector>

#include "core/output_scheduler.hh"
#include "perfbench.hh"

namespace perfbench
{

SchedCost
timeOutputScheduler(const noc::LoftParams &params, std::uint32_t flows,
                    std::uint32_t reservation_flits, double seconds)
{
    using noc::Cycle;
    using noc::Slot;

    noc::OutputScheduler sched(params, "perfbench.sched");
    // registerFlow rejects sum(R) > F; stop at the frame.
    const std::uint32_t r_slots =
        std::max<std::uint32_t>(1, reservation_flits / params.quantumFlits);
    const std::uint32_t n =
        std::max<std::uint32_t>(
            1, std::min({flows, params.maxFlows,
                         params.frameSlots() / r_slots}));
    for (std::uint32_t f = 0; f < n; ++f)
        sched.registerFlow(f, reservation_flits);

    SchedCost cost;
    double grant_s = 0.0, return_s = 0.0, reset_s = 0.0, advance_s = 0.0;
    std::vector<Slot> granted;
    granted.reserve(params.frameSlots());
    std::uint64_t quantum = 0;
    const Cycle frame_cycles = params.frameSizeFlits;
    const auto start = Clock::now();
    for (std::uint64_t frame = 1;; ++frame) {
        const Cycle now = frame * frame_cycles;

        auto t0 = Clock::now();
        sched.advanceTo(now);
        advance_s += secondsSince(t0);
        ++cost.advances;

        // Book every flow's reservation, earliest slot just ahead.
        granted.clear();
        const Slot earliest = params.slotOf(now) + 1;
        t0 = Clock::now();
        for (std::uint32_t f = 0; f < n; ++f) {
            for (std::uint32_t k = 0; k < r_slots; ++k) {
                Slot g = 0;
                if (!sched.trySchedule(f, now, ++quantum, earliest, g))
                    break;
                granted.push_back(g);
            }
        }
        grant_s += secondsSince(t0);
        cost.grants += granted.size();

        t0 = Clock::now();
        for (const Slot g : granted)
            sched.onCreditReturn(g);
        return_s += secondsSince(t0);
        cost.creditReturns += granted.size();
        for (const Slot g : granted)
            sched.clearBooking(g);

        if (frame % 4 == 0 && sched.canLocalReset()) {
            t0 = Clock::now();
            sched.localReset(now);
            reset_s += secondsSince(t0);
            ++cost.localResets;
        }
        if (frame >= 64 && secondsSince(start) >= seconds)
            break;
    }
    auto per = [](double s, std::uint64_t n_calls) {
        return n_calls ? 1e9 * s / static_cast<double>(n_calls) : 0.0;
    };
    cost.nsPerGrant = per(grant_s, cost.grants);
    cost.nsPerCreditReturn = per(return_s, cost.creditReturns);
    cost.nsPerLocalReset = per(reset_s, cost.localResets);
    cost.nsPerAdvance = per(advance_s, cost.advances);
    return cost;
}

} // namespace perfbench
