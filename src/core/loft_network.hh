/**
 * @file
 * The assembled LOFT network: a data plane of LoftDataRouters and an
 * overlaid look-ahead plane of LookaheadRouters, plus the NIs and sinks,
 * all wired through latency-1 channels.
 */

#ifndef NOC_CORE_LOFT_NETWORK_HH
#define NOC_CORE_LOFT_NETWORK_HH

#include <memory>
#include <vector>

#include "core/data_router.hh"
#include "core/loft_sink.hh"
#include "core/loft_source.hh"
#include "core/lookahead_router.hh"
#include "faults/fault_injector.hh"
#include "net/network.hh"

namespace noc
{

class LoftNetwork : public Network
{
  public:
    /**
     * @param faults optional fault injector; when given, every channel
     *        of both planes is instrumented at construction (the
     *        injector must outlive the network).
     */
    LoftNetwork(const Mesh2D &mesh, const LoftParams &params,
                FaultInjector *faults = nullptr);

    const Mesh2D &mesh() const override { return mesh_; }
    void registerFlows(const std::vector<FlowSpec> &flows) override;
    bool inject(const Packet &pkt) override;
    void attach(Simulator &sim) override;
    MetricsCollector &metrics() override { return metrics_; }
    const MetricsCollector &metrics() const override { return metrics_; }
    std::uint64_t flitsInFlight() const override;
    void setObserver(NetObserver *obs) override;

    const LoftParams &params() const { return params_; }
    LoftDataRouter &dataRouter(NodeId n) { return *dataRouters_.at(n); }
    LoftSourceUnit &source(NodeId n) { return *sources_.at(n); }

    /** Reservation in flits/frame derived from a bandwidth share. */
    std::uint32_t reservationOf(const FlowSpec &flow) const;

    /// @name Aggregate stats over all routers
    /// @{
    std::uint64_t totalSpeculativeForwards() const;
    std::uint64_t totalEmergentForwards() const;
    std::uint64_t totalLocalResets() const;
    std::uint64_t totalAnomalyViolations() const;
    std::uint64_t totalMissedSlots() const;
    /// Recovery counters (all zero in fault-free runs).
    std::uint64_t totalLookaheadReissues() const;
    std::uint64_t totalQuantaScrubbed() const;
    /**
     * Link utilization snapshot: flits forwarded per (node, port)
     * divided by @p cycles. Entry order is node-major, port-minor.
     */
    std::vector<double> linkUtilization(Cycle cycles) const;
    /// @}

  private:
    template <typename T>
    Channel<T> *newChannel(std::vector<std::unique_ptr<Channel<T>>> &pool,
                           NodeId receiver);

    const Mesh2D &mesh_;
    LoftParams params_;
    MetricsCollector metrics_;
    FaultInjector *faults_;

    std::vector<std::unique_ptr<LoftDataRouter>> dataRouters_;
    std::vector<std::unique_ptr<LookaheadRouter>> laRouters_;
    std::vector<std::unique_ptr<LoftSourceUnit>> sources_;
    std::vector<std::unique_ptr<LoftSink>> sinks_;

    std::vector<std::unique_ptr<Channel<DataWireFlit>>> dataChannels_;
    std::vector<std::unique_ptr<Channel<ActualCreditMsg>>> actChannels_;
    std::vector<std::unique_ptr<Channel<VirtualCreditMsg>>> vcrChannels_;
    std::vector<std::unique_ptr<Channel<LaWireFlit>>> laChannels_;
    std::vector<std::unique_ptr<Channel<LaCredit>>> laCredChannels_;
};

} // namespace noc

#endif // NOC_CORE_LOFT_NETWORK_HH
