/**
 * @file
 * Abstract interface shared by every network implementation (wormhole
 * baseline, GSF, LOFT) so that traffic generators and the experiment
 * harness are network-agnostic.
 */

#ifndef NOC_NET_NETWORK_HH
#define NOC_NET_NETWORK_HH

#include <cstdint>
#include <vector>

#include "net/instrument.hh"
#include "net/metrics.hh"
#include "net/packet.hh"
#include "net/topology.hh"
#include "sim/types.hh"

namespace noc
{

class Simulator;

/** Static description of a flow, including its QoS reservation. */
struct FlowSpec
{
    FlowId id = kInvalidFlow;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    /**
     * Fraction of link bandwidth reserved for the flow (R_ij / F). Each
     * network converts the share to its own frame size; the same value
     * is used on every link of the flow's path, as in the paper.
     */
    double bwShare = 0.0;
    /**
     * For patterns with random destinations (uniform), dst is
     * kInvalidNode and the generator draws a destination per packet;
     * the flow is then identified by its source, as in Section 6.
     */
    bool randomDst() const { return dst == kInvalidNode; }
};

/**
 * Common behaviour of a simulated network: flows are registered before
 * the run, packets are offered at source NIs, and measurement happens at
 * the sinks.
 */
class Network
{
  public:
    virtual ~Network() = default;

    /** The mesh this network is built on. */
    virtual const Mesh2D &mesh() const = 0;

    /** Register all flows (with reservations) before running. */
    virtual void registerFlows(const std::vector<FlowSpec> &flows) = 0;

    /** Offer a packet to the source NI. @return false if refused. */
    virtual bool inject(const Packet &pkt) = 0;

    /** Register clocked components with the simulator. */
    virtual void attach(Simulator &sim) = 0;

    /** Ejection-side measurements. */
    virtual MetricsCollector &metrics() = 0;
    virtual const MetricsCollector &metrics() const = 0;

    /** Total flits currently inside the network (for drain checks). */
    virtual std::uint64_t flitsInFlight() const = 0;

    /**
     * Publish micro-architectural events to @p obs (null detaches).
     * Implementations distribute the pointer to all their components.
     * The network holds a single pointer; install an ObserverMux
     * (net/observer_mux.hh) to fan events out to several consumers
     * (e.g. auditor + telemetry) at once, and register it with the
     * simulator (Simulator::addMerged) so a partitioned run delivers
     * them in serial order.
     */
    virtual void setObserver(NetObserver *obs) { (void)obs; }
};

} // namespace noc

#endif // NOC_NET_NETWORK_HH
