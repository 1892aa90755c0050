/**
 * @file
 * Conventional virtual-channel wormhole network: the no-QoS baseline
 * used by the flow-control comparison (Fig. 6) and as a reference point
 * in extension experiments.
 */

#ifndef NOC_ROUTER_WORMHOLE_NETWORK_HH
#define NOC_ROUTER_WORMHOLE_NETWORK_HH

#include <memory>
#include <vector>

#include "net/network.hh"
#include "router/mesh_fabric.hh"
#include "router/source_unit.hh"

namespace noc
{

class WormholeNetwork : public Network
{
  public:
    WormholeNetwork(const Mesh2D &mesh, const WormholeParams &params,
                    std::size_t source_queue_flits = 0,
                    FaultInjector *faults = nullptr);

    const Mesh2D &mesh() const override { return mesh_; }
    void registerFlows(const std::vector<FlowSpec> &flows) override;
    bool inject(const Packet &pkt) override;
    void attach(Simulator &sim) override;
    MetricsCollector &metrics() override { return metrics_; }
    const MetricsCollector &metrics() const override { return metrics_; }
    std::uint64_t flitsInFlight() const override;

    void
    setObserver(NetObserver *obs) override
    {
        fabric_.setObserver(obs);
        for (auto &s : sources_)
            s->setObserver(obs);
    }

    MeshFabric &fabric() { return fabric_; }
    SourceUnit &source(NodeId n) { return *sources_.at(n); }

  private:
    const Mesh2D &mesh_;
    MetricsCollector metrics_;
    MeshFabric fabric_;
    std::vector<std::unique_ptr<SourceUnit>> sources_;
};

} // namespace noc

#endif // NOC_ROUTER_WORMHOLE_NETWORK_HH
