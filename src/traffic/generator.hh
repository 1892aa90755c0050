/**
 * @file
 * Open-loop traffic generation: per-flow injection processes offering
 * packets to a Network. Packets refused by a full NI stay in an
 * unbounded per-flow pending queue (open-loop load), and latency is
 * measured from packet creation, which charges source-side backlog to
 * the network exactly as the paper does for GSF's source queues.
 */

#ifndef NOC_TRAFFIC_GENERATOR_HH
#define NOC_TRAFFIC_GENERATOR_HH

#include <vector>

#include "net/network.hh"
#include "sim/clocked.hh"
#include "sim/ring_deque.hh"
#include "sim/rng.hh"

namespace noc
{

/** How a flow's packets are spaced in time. */
enum class InjectionProcess : std::uint8_t
{
    /** Independent Bernoulli trial each cycle. */
    Bernoulli,
    /** Evenly spaced (a rate-regulated source, Case Study I victim). */
    Periodic,
};

/** Run-time injection parameters of one flow. */
struct FlowRate
{
    /** Offered load in flits/cycle/node. */
    double flitsPerCycle = 0.0;
    InjectionProcess process = InjectionProcess::Bernoulli;
};

// loft-tidy: phase-serial — keyless: injects in the serial prologue so
//     every domain sees this cycle's arrivals; never ticked inside the
//     partitioned phase.
class TrafficGenerator final : public Clocked
{
  public:
    TrafficGenerator(Network &network, std::uint32_t packet_size_flits,
                     std::uint64_t seed);

    /**
     * Configure the generated flows. @p rates is parallel to @p flows;
     * flows with rate 0 are idle.
     */
    void configure(const std::vector<FlowSpec> &flows,
                   const std::vector<FlowRate> &rates);

    /** Set every flow to the same Bernoulli rate. */
    void setUniformRate(double flits_per_cycle);

    void tick(Cycle now) override;

    /**
     * Idle only with no flows configured. Even a rate-0 Bernoulli flow
     * draws from the RNG every cycle, so skipping ticks for "all rates
     * zero" would shift the random stream relative to an always-ticked
     * run and break bit-identity with pre-existing results.
     */
    bool quiescent() const override { return flows_.empty(); }

    /** Packets created but not yet accepted by an NI. */
    std::uint64_t packetsPending() const;

  private:
    struct FlowState
    {
        FlowSpec spec;
        FlowRate rate;
        double accumulator = 0.0;
        /** Backlog ring; capacity plateaus at the high-water mark. */
        RingDeque<Packet> pending;
    };

    Packet makePacket(FlowState &fs, Cycle now);

    Network &network_;
    std::uint32_t packetSize_;
    Rng rng_;
    std::vector<FlowState> flows_;
    PacketId nextPacketId_ = 1;
};

} // namespace noc

#endif // NOC_TRAFFIC_GENERATOR_HH
