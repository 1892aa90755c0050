#include "router/arbiter.hh"

#include "sim/logging.hh"

namespace noc
{

RoundRobinArbiter::RoundRobinArbiter(std::size_t num_inputs)
    : numInputs_(num_inputs)
{
}

void
RoundRobinArbiter::resize(std::size_t num_inputs)
{
    numInputs_ = num_inputs;
    pointer_ = 0;
}

// Runs per port per cycle in every router and NI.
// loft-tidy: steady-state-hot
std::size_t
RoundRobinArbiter::arbitrate(std::uint64_t request_mask)
{
    if (numInputs_ == 0)
        return npos;
    if (numInputs_ > 64)
        panic("RoundRobinArbiter: mask arbitration beyond 64 inputs");
    if (numInputs_ < 64 && request_mask >> numInputs_)
        panic("RoundRobinArbiter: request mask exceeds input count");
    if (request_mask == 0)
        return npos;
    // Requests at or after the pointer win first; wrap otherwise.
    const std::uint64_t upper = request_mask >> pointer_;
    const std::uint64_t pick = upper ? upper << pointer_ : request_mask;
    const auto winner = static_cast<std::size_t>(__builtin_ctzll(pick));
    pointer_ = (winner + 1) % numInputs_;
    return winner;
}

} // namespace noc
