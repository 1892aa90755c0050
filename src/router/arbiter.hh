/**
 * @file
 * The one arbiter used by every router allocator and NI: round-robin
 * over a request mask of at most 64 inputs. Priority arbitration
 * (lowest key wins, round-robin tie-break) is the same arbiter fed the
 * lowestKeyMask() of its requests.
 */

#ifndef NOC_ROUTER_ARBITER_HH
#define NOC_ROUTER_ARBITER_HH

#include <cstddef>
#include <cstdint>

namespace noc
{

/**
 * Round-robin arbiter over a fixed number of requestors. The grant
 * pointer advances past the winner so every requestor is served within
 * N grants.
 */
class RoundRobinArbiter
{
  public:
    explicit RoundRobinArbiter(std::size_t num_inputs = 0);

    /** Resize (resets state). */
    void resize(std::size_t num_inputs);

    std::size_t size() const { return numInputs_; }

    /**
     * Pick a winner among the requesting inputs: bit i of
     * @p request_mask set means input i requests (at most 64 inputs).
     * @return winner index, or npos if no requests.
     */
    std::size_t arbitrate(std::uint64_t request_mask);

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  private:
    std::size_t numInputs_;
    std::size_t pointer_ = 0;
};

/**
 * The requestors of @p request_mask whose @p key (indexed by input) is
 * the smallest. Arbitrating over this mask grants the lowest key and
 * breaks ties round-robin; keys of non-requestors are never read.
 */
template <typename Keys>
std::uint64_t
lowestKeyMask(std::uint64_t request_mask, const Keys &key)
{
    std::uint64_t lowest = 0;
    std::uint64_t best = 0;
    for (std::uint64_t m = request_mask; m != 0; m &= m - 1) {
        const auto i = static_cast<std::size_t>(__builtin_ctzll(m));
        const std::uint64_t k = key[i];
        if (lowest == 0 || k < best) {
            best = k;
            lowest = 0;
        }
        if (k == best)
            lowest |= std::uint64_t(1) << i;
    }
    return lowest;
}

} // namespace noc

#endif // NOC_ROUTER_ARBITER_HH
