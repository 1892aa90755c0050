/**
 * @file
 * Unit tests for the mask round-robin arbiter and lowestKeyMask(), and
 * a randomized comparison of their grant sequences against a
 * vector-based reference arbiter (plain and keyed), including the
 * wormhole VC allocator's pattern of repeated grants from one request
 * set with each winner removed.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/topology.hh"
#include "router/arbiter.hh"
#include "router/wormhole_router.hh"
#include "sim/rng.hh"

namespace noc
{
namespace
{

TEST(Arbiter, NoRequestsNoGrant)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(0), RoundRobinArbiter::npos);
}

TEST(Arbiter, SingleRequestWins)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(0b0100), 2u);
}

TEST(Arbiter, RoundRobinRotation)
{
    RoundRobinArbiter arb(3);
    EXPECT_EQ(arb.arbitrate(0b111), 0u);
    EXPECT_EQ(arb.arbitrate(0b111), 1u);
    EXPECT_EQ(arb.arbitrate(0b111), 2u);
    EXPECT_EQ(arb.arbitrate(0b111), 0u);
}

TEST(Arbiter, FairnessOverManyRounds)
{
    RoundRobinArbiter arb(4);
    std::vector<int> wins(4, 0);
    for (int i = 0; i < 400; ++i)
        ++wins[arb.arbitrate(0b1111)];
    for (int w : wins)
        EXPECT_EQ(w, 100);
}

TEST(Arbiter, SkipsNonRequestors)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(0b0101), 0u);
    EXPECT_EQ(arb.arbitrate(0b0101), 2u);
    EXPECT_EQ(arb.arbitrate(0b0101), 0u);
}

TEST(Arbiter, PriorityLowestKeyWins)
{
    RoundRobinArbiter arb(3);
    const std::array<std::uint64_t, 3> first{5, 2, 9};
    const std::array<std::uint64_t, 3> second{1, 2, 9};
    EXPECT_EQ(arb.arbitrate(lowestKeyMask(0b111, first)), 1u);
    EXPECT_EQ(arb.arbitrate(lowestKeyMask(0b111, second)), 0u);
}

TEST(Arbiter, PriorityTieBreaksRoundRobin)
{
    RoundRobinArbiter arb(3);
    const std::array<std::uint64_t, 3> keys{7, 7, 7};
    const auto a = arb.arbitrate(lowestKeyMask(0b111, keys));
    const auto b = arb.arbitrate(lowestKeyMask(0b111, keys));
    const auto c = arb.arbitrate(lowestKeyMask(0b111, keys));
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
    EXPECT_NE(a, c);
}

TEST(Arbiter, PriorityIgnoresNonRequestorKeys)
{
    RoundRobinArbiter arb(3);
    // Input 0 has the lowest key but is not requesting.
    const std::array<std::uint64_t, 3> keys{0, 9, 4};
    EXPECT_EQ(arb.arbitrate(lowestKeyMask(0b110, keys)), 2u);
}

TEST(Arbiter, LowestKeyMaskKeepsEveryTiedRequestor)
{
    const std::array<std::uint64_t, 4> keys{3, 1, 0, 1};
    EXPECT_EQ(lowestKeyMask(0b1011, keys), 0b1010u);
    EXPECT_EQ(lowestKeyMask(0b0001, keys), 0b0001u);
    EXPECT_EQ(lowestKeyMask(0, keys), 0u);
}

TEST(Arbiter, SizeMismatchPanics)
{
    RoundRobinArbiter arb(3);
    EXPECT_DEATH(arb.arbitrate(0b1000), "exceeds input count");
    RoundRobinArbiter wide(65);
    EXPECT_DEATH(wide.arbitrate(1), "beyond 64 inputs");
}

TEST(WormholeRouterDeathTest, ThirteenVCsOverflowTheAllocationMask)
{
    // 5 ports x 13 VCs = 65 input VCs, one more than a mask holds.
    Mesh2D mesh(2, 1);
    WormholeParams params;
    params.numVCs = 12;
    WormholeRouter fits(0, mesh, params);
    params.numVCs = 13;
    EXPECT_EXIT(
        {
            WormholeRouter router(0, mesh, params);
            (void)router;
        },
        ::testing::ExitedWithCode(1), "allocation mask");
}

// ---- Randomized comparison against the vector formulation -----------

/**
 * The vector formulation of the same arbiter, written out loop by
 * loop: a plain overload, and a keyed one in which the requestor with
 * the smallest key wins and ties go round-robin. It is the reference
 * the mask arbiter's grant order is checked against.
 */
class ReferenceArbiter
{
  public:
    explicit ReferenceArbiter(std::size_t num_inputs)
        : numInputs_(num_inputs)
    {
    }

    std::size_t
    arbitrate(const std::vector<bool> &requests)
    {
        if (numInputs_ == 0)
            return npos;
        const std::size_t winner = grantAfter(requests, pointer_);
        if (winner != npos)
            pointer_ = (winner + 1) % numInputs_;
        return winner;
    }

    std::size_t
    arbitrate(const std::vector<bool> &requests,
              const std::vector<std::uint64_t> &keys)
    {
        std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
        bool any = false;
        for (std::size_t i = 0; i < numInputs_; ++i) {
            if (requests[i] && keys[i] < best) {
                best = keys[i];
                any = true;
            }
        }
        if (!any)
            return npos;
        std::size_t winner = npos;
        for (std::size_t i = 0; i < numInputs_; ++i) {
            const std::size_t idx = (pointer_ + i) % numInputs_;
            if (requests[idx] && keys[idx] == best) {
                winner = idx;
                break;
            }
        }
        pointer_ = (winner + 1) % numInputs_;
        return winner;
    }

  private:
    static constexpr std::size_t npos = RoundRobinArbiter::npos;

    std::size_t
    grantAfter(const std::vector<bool> &requests, std::size_t start) const
    {
        for (std::size_t i = 0; i < numInputs_; ++i) {
            const std::size_t idx = (start + i) % numInputs_;
            if (requests[idx])
                return idx;
        }
        return npos;
    }

    std::size_t numInputs_;
    std::size_t pointer_ = 0;
};

constexpr std::array<std::size_t, 6> kWidths{1, 2, 5, 30, 63, 64};
constexpr int kSteps = 3000;

std::uint64_t
widthMask(std::size_t width)
{
    return width == 64 ? ~std::uint64_t(0)
                       : (std::uint64_t(1) << width) - 1;
}

/** A request set of mixed density: empty, single, sparse, even, dense. */
std::uint64_t
randomRequests(Rng &rng, std::size_t width)
{
    std::uint64_t m = rng.next();
    switch (rng.randRange(5)) {
      case 0:
        m = 0;
        break;
      case 1:
        m = std::uint64_t(1) << rng.randRange(width);
        break;
      case 2:
        m &= rng.next() & rng.next();
        break;
      case 3:
        break;
      default:
        m |= rng.next();
        break;
    }
    return m & widthMask(width);
}

/** Keys from a small range so ties are common; non-requestors too. */
std::vector<std::uint64_t>
randomKeys(Rng &rng, std::size_t width)
{
    std::vector<std::uint64_t> keys(width);
    for (auto &k : keys)
        k = rng.randRange(4);
    return keys;
}

std::vector<bool>
toVector(std::uint64_t mask, std::size_t width)
{
    std::vector<bool> v(width);
    for (std::size_t i = 0; i < width; ++i)
        v[i] = (mask >> i) & 1;
    return v;
}

TEST(ArbiterReference, PlainGrantSequenceMatches)
{
    for (const std::size_t width : kWidths) {
        SCOPED_TRACE("width " + std::to_string(width));
        Rng rng(0xa5b1 + width);
        RoundRobinArbiter arb(width);
        ReferenceArbiter ref(width);
        for (int step = 0; step < kSteps; ++step) {
            const std::uint64_t req = randomRequests(rng, width);
            ASSERT_EQ(arb.arbitrate(req),
                      ref.arbitrate(toVector(req, width)))
                << "step " << step << " mask " << req;
        }
    }
}

TEST(ArbiterReference, KeyedGrantSequenceMatches)
{
    for (const std::size_t width : kWidths) {
        SCOPED_TRACE("width " + std::to_string(width));
        Rng rng(0x6e79 + width);
        RoundRobinArbiter arb(width);
        ReferenceArbiter ref(width);
        for (int step = 0; step < kSteps; ++step) {
            const std::uint64_t req = randomRequests(rng, width);
            const std::vector<std::uint64_t> keys = randomKeys(rng, width);
            ASSERT_EQ(arb.arbitrate(lowestKeyMask(req, keys)),
                      ref.arbitrate(toVector(req, width), keys))
                << "step " << step << " mask " << req;
        }
    }
}

/**
 * The VC allocator's pattern: one request set granted repeatedly (once
 * per free output VC), each winner removed before the next grant. The
 * mask side recomputes the lowest-key mask after every removal. With
 * @p keyed false every key is 0 (frame 0 on the plain wormhole fabric)
 * and the reference runs its plain overload.
 */
void
expectRepeatedGrantsMatch(bool keyed)
{
    for (const std::size_t width : kWidths) {
        SCOPED_TRACE("width " + std::to_string(width));
        Rng rng((keyed ? 0x7c11 : 0x3d05) + width);
        RoundRobinArbiter arb(width);
        ReferenceArbiter ref(width);
        for (int step = 0; step < kSteps / 10; ++step) {
            std::uint64_t req = randomRequests(rng, width);
            std::vector<bool> ref_req = toVector(req, width);
            const std::vector<std::uint64_t> keys = keyed
                ? randomKeys(rng, width)
                : std::vector<std::uint64_t>(width, 0);
            // Sometimes more grants than requestors: the tail must
            // find nothing on both sides.
            const std::uint64_t grants = rng.randRange(width + 2);
            for (std::uint64_t g = 0; g < grants; ++g) {
                const std::size_t win =
                    arb.arbitrate(lowestKeyMask(req, keys));
                const std::size_t ref_win = keyed
                    ? ref.arbitrate(ref_req, keys)
                    : ref.arbitrate(ref_req);
                ASSERT_EQ(win, ref_win)
                    << "step " << step << " grant " << g;
                if (win == RoundRobinArbiter::npos)
                    break;
                req &= ~(std::uint64_t(1) << win);
                ref_req[win] = false;
            }
        }
    }
}

TEST(ArbiterReference, RepeatedGrantsWithWinnersRemovedMatch)
{
    expectRepeatedGrantsMatch(true);
}

TEST(ArbiterReference, RepeatedPlainGrantsWithWinnersRemovedMatch)
{
    expectRepeatedGrantsMatch(false);
}

} // namespace
} // namespace noc
