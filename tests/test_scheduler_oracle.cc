/**
 * @file
 * Randomized differential test of the LSF output scheduler. The
 * production OutputScheduler (flow table flat and sorted by id, credit
 * walks over at most two contiguous runs of the ring) and the slow
 * ReferenceOutputScheduler (std::map flow table, per-slot modulo walks)
 * are driven in lockstep by seeded random call sequences:
 *
 *   - registerFlow with admissible sets (sum R <= F), out of id order,
 *     part of each set only after the window has moved;
 *   - trySchedule with earliest slots before, inside and past the window;
 *   - onCreditReturn for slots before, inside and beyond the window;
 *   - clearBooking, advanceTo (including multi-frame jumps) and
 *     localReset.
 *
 * After every call every public observable must agree. Frame sizes are
 * not powers of two, so the window wraps the ring at odd offsets. Seeds
 * are fixed and the call count bounded: the test is reproducible and
 * runs in well under a second.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/output_scheduler.hh"
#include "reference_output_scheduler.hh"
#include "sim/rng.hh"

namespace noc
{
namespace
{

constexpr Slot kNoSlot = ~Slot{0};

/** The scheduler under test and the reference, fed identical calls. */
struct Lockstep
{
    explicit Lockstep(const LoftParams &p)
        : params(p), real(p, "real"), ref(p, "ref")
    {
    }

    void
    registerFlow(FlowId id, std::uint32_t flits)
    {
        real.registerFlow(id, flits);
        ref.registerFlow(id, flits);
        flows.push_back(id);
    }

    /** The first observable on which the two disagree; "" if none. */
    std::string
    mismatch() const
    {
        std::string out;
        auto check = [&out](const char *what, std::uint64_t at, auto a,
                            auto b) {
            if (out.empty() && a != b) {
                std::ostringstream os;
                os << what << "(" << at << "): " << +a
                   << " != reference " << +b;
                out = os.str();
            }
        };
        check("headFrame", 0, real.headFrame(), ref.headFrame());
        check("windowStartAbsSlot", 0, real.windowStartAbsSlot(),
              ref.windowStartAbsSlot());
        check("windowEndAbsSlot", 0, real.windowEndAbsSlot(),
              ref.windowEndAbsSlot());
        check("grants", 0, real.grants(), ref.grants());
        check("throttles", 0, real.throttles(), ref.throttles());
        check("resets", 0, real.resets(), ref.resets());
        check("anomalyViolations", 0, real.anomalyViolations(),
              ref.anomalyViolations());
        check("outstandingCredits", 0, real.outstandingCredits(),
              ref.outstandingCredits());
        check("reservedSlotsTotal", 0, real.reservedSlotsTotal(),
              ref.reservedSlotsTotal());
        check("quiescent", 0, real.quiescent(), ref.quiescent());
        check("dirty", 0, real.dirty(), ref.dirty());
        check("canLocalReset", 0, real.canLocalReset(),
              ref.canLocalReset());
        check("earliestBookedSlot", 0,
              real.earliestBookedSlot().value_or(kNoSlot),
              ref.earliestBookedSlot().value_or(kNoSlot));
        for (Slot s = ref.windowStartAbsSlot(); s < ref.windowEndAbsSlot();
             ++s) {
            check("virtualCreditAt", s, real.virtualCreditAt(s),
                  ref.virtualCreditAt(s));
            const auto a = real.bookingAt(s);
            const auto b = ref.bookingAt(s);
            check("bookingAt", s, a.has_value(), b.has_value());
            if (a && b) {
                check("bookingAt.flow", s, a->flow, b->flow);
                check("bookingAt.quantumNo", s, a->quantumNo,
                      b->quantumNo);
            }
        }
        for (std::uint64_t f = ref.headFrame();
             f < ref.headFrame() + params.windowFrames; ++f)
            check("skippedAt", f, real.skippedAt(f), ref.skippedAt(f));
        for (const FlowId id : flows) {
            check("flowRemaining", id, real.flowRemaining(id),
                  ref.flowRemaining(id));
            check("flowInjectFrame", id, real.flowInjectFrame(id),
                  ref.flowInjectFrame(id));
        }
        return out;
    }

    LoftParams params;
    OutputScheduler real;
    ReferenceOutputScheduler ref;
    std::vector<FlowId> flows; ///< registered ids, in registration order
};

/**
 * An admissible flow set (sum R <= F slots) with distinct sparse ids,
 * shuffled so registration is not in id order. Reservations carry up to
 * a quantum of extra flits, which registerFlow rounds away.
 */
std::vector<std::pair<FlowId, std::uint32_t>>
randomFlowSet(Rng &rng, const LoftParams &p)
{
    const std::uint32_t fs = p.frameSlots();
    const auto n = static_cast<std::uint32_t>(
        1 + rng.randRange(std::min(p.maxFlows, fs)));
    std::set<FlowId> used;
    std::vector<std::pair<FlowId, std::uint32_t>> set;
    std::uint32_t left = fs;
    for (std::uint32_t i = 0; i < n; ++i) {
        // Leave one slot for every flow still to come.
        const std::uint32_t later = n - 1 - i;
        const auto r =
            static_cast<std::uint32_t>(1 + rng.randRange(left - later));
        left -= r;
        FlowId id = 0;
        do {
            id = static_cast<FlowId>(rng.randRange(1000));
        } while (!used.insert(id).second);
        const auto extra =
            static_cast<std::uint32_t>(rng.randRange(p.quantumFlits));
        set.emplace_back(id, r * p.quantumFlits + extra);
    }
    for (std::size_t i = set.size(); i > 1; --i)
        std::swap(set[i - 1], set[rng.randRange(i)]);
    return set;
}

/** What the runs exercised, summed over runs. */
struct Coverage
{
    std::uint64_t grants = 0;
    std::uint64_t throttles = 0;
    std::uint64_t violations = 0;
    std::uint64_t resets = 0;
};

/** Drive one pair through @p calls random calls, comparing after each. */
void
runLockstep(const LoftParams &p, std::uint64_t seed, int calls,
            Coverage &cov)
{
    Rng rng(seed);
    Lockstep ls(p);
    const auto set = randomFlowSet(rng, p);
    // Register part of the set now, the rest mid-run.
    std::size_t registered = 1 + rng.randRange(set.size());
    for (std::size_t i = 0; i < registered; ++i)
        ls.registerFlow(set[i].first, set[i].second);
    ASSERT_EQ(ls.mismatch(), "") << "after registration, seed " << seed;

    const std::uint64_t fs = p.frameSlots();
    const std::uint64_t ws = p.windowSlots();
    const Cycle frame_cycles = p.frameSizeFlits;
    Cycle now = 0;
    std::uint64_t quantum = 0;
    std::vector<Slot> granted;
    for (int call = 0; call < calls; ++call) {
        const std::uint64_t dice = rng.randRange(100);
        const char *what = "nothing";
        if (dice < 40) {
            what = "trySchedule";
            const FlowId f = ls.flows[rng.randRange(ls.flows.size())];
            const Slot cur = p.slotOf(now);
            const Slot earliest =
                (cur >= 2 ? cur - 2 : 0) + rng.randRange(ws + fs + 3);
            Slot a = kNoSlot;
            Slot b = kNoSlot;
            const bool ok_a =
                ls.real.trySchedule(f, now, quantum, earliest, a);
            const bool ok_b =
                ls.ref.trySchedule(f, now, quantum, earliest, b);
            ++quantum;
            ASSERT_EQ(ok_a, ok_b) << "call " << call << ", seed " << seed;
            if (ok_b) {
                ASSERT_EQ(a, b) << "call " << call << ", seed " << seed;
                granted.push_back(b);
            }
        } else if (dice < 62) {
            what = "onCreditReturn";
            const Slot w0 = ls.ref.windowStartAbsSlot();
            const Slot w1 = ls.ref.windowEndAbsSlot();
            Slot s = w0;
            switch (rng.randRange(4)) {
              case 0: // before the window, possibly before the origin
                s = w0 - std::min<Slot>(w0, 1 + rng.randRange(2 * fs));
                break;
              case 1:
                s = w0 + rng.randRange(w1 - w0);
                break;
              case 2: // banked until its frame is recycled
                s = w1 + rng.randRange(2 * ws);
                break;
              default: // shortly after a granted slot, as downstream does
                if (!granted.empty())
                    s = granted[rng.randRange(granted.size())] +
                        rng.randRange(3);
                break;
            }
            ls.real.onCreditReturn(s);
            ls.ref.onCreditReturn(s);
        } else if (dice < 77) {
            what = "clearBooking";
            Slot s = ls.ref.windowStartAbsSlot();
            const auto e = ls.ref.earliestBookedSlot();
            if (e && rng.chance(0.5))
                s = *e;
            else if (!granted.empty())
                s = granted[rng.randRange(granted.size())];
            ls.real.clearBooking(s);
            ls.ref.clearBooking(s);
        } else if (dice < 92) {
            what = "advanceTo";
            if (rng.chance(0.2)) // multi-frame jump
                now += frame_cycles *
                           (1 + rng.randRange(3 * p.windowFrames)) +
                       rng.randRange(frame_cycles);
            else
                now += rng.randRange(frame_cycles / 2 + 1);
            ls.real.advanceTo(now);
            ls.ref.advanceTo(now);
        } else if (dice < 97 && p.localStatusReset) {
            what = "localReset";
            // Only an empty table may reset: drain it first.
            while (const auto e = ls.ref.earliestBookedSlot()) {
                ls.real.clearBooking(*e);
                ls.ref.clearBooking(*e);
            }
            ls.real.localReset(now);
            ls.ref.localReset(now);
        } else if (registered < set.size()) {
            what = "registerFlow";
            ls.registerFlow(set[registered].first, set[registered].second);
            ++registered;
        }
        ASSERT_EQ(ls.mismatch(), "")
            << "after " << what << ", call " << call << ", seed " << seed;
    }
    cov.grants += ls.ref.grants();
    cov.throttles += ls.ref.throttles();
    cov.violations += ls.ref.anomalyViolations();
    cov.resets += ls.ref.resets();
}

struct OracleCase
{
    std::uint32_t quantumFlits;
    std::uint32_t windowFrames;
};

class SchedulerOracle : public ::testing::TestWithParam<OracleCase>
{
};

TEST_P(SchedulerOracle, AgreesWithReferenceOnRandomCalls)
{
    const OracleCase oc = GetParam();
    Coverage cov;
    // Frames of 3, 5, 7 and 12 slots; buffers of exactly one frame
    // (Theorem I's minimum, so the anomaly is reachable with the guard
    // off) and of about one and a half frames.
    for (const std::uint32_t fs : {3u, 5u, 7u, 12u}) {
        for (const std::uint32_t extra : {0u, fs / 2 + 1}) {
            for (unsigned flags = 0; flags < 4; ++flags) {
                LoftParams p;
                p.quantumFlits = oc.quantumFlits;
                p.frameSizeFlits = fs * oc.quantumFlits;
                p.windowFrames = oc.windowFrames;
                p.centralBufferFlits = (fs + extra) * oc.quantumFlits;
                p.specBufferFlits = 0;
                p.maxFlows = 6;
                p.anomalyGuard = (flags & 1u) != 0;
                p.localStatusReset = (flags & 2u) != 0;
                const std::uint64_t seed =
                    mixSeed(mixSeed(oc.quantumFlits, oc.windowFrames),
                            mixSeed(fs, extra * 4 + flags));
                runLockstep(p, seed, 1500, cov);
                if (HasFatalFailure())
                    return;
            }
        }
    }
    // The random mix must reach every branch worth comparing.
    EXPECT_GT(cov.grants, 0u);
    EXPECT_GT(cov.throttles, 0u);
    EXPECT_GT(cov.violations, 0u);
    EXPECT_GT(cov.resets, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchedulerOracle,
    ::testing::Values(OracleCase{1, 2}, OracleCase{1, 3}, OracleCase{1, 4},
                      OracleCase{2, 2}, OracleCase{2, 3}, OracleCase{2, 4}),
    [](const ::testing::TestParamInfo<OracleCase> &info) {
        return "q" + std::to_string(info.param.quantumFlits) + "_wf" +
               std::to_string(info.param.windowFrames);
    });

} // namespace
} // namespace noc
