/**
 * @file
 * The assembled GSF network: frame-priority wormhole routers with
 * atomic VC reuse, GSF sources with 2000-flit queues, and the global
 * barrier.
 */

#ifndef NOC_GSF_GSF_NETWORK_HH
#define NOC_GSF_GSF_NETWORK_HH

#include <memory>
#include <vector>

#include "gsf/gsf_barrier.hh"
#include "gsf/gsf_params.hh"
#include "gsf/gsf_source.hh"
#include "net/network.hh"
#include "router/mesh_fabric.hh"

namespace noc
{

class GsfNetwork : public Network
{
  public:
    GsfNetwork(const Mesh2D &mesh, const GsfParams &params,
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

    const GsfBarrier &barrier() const { return barrier_; }
    MeshFabric &fabric() { return fabric_; }
    const GsfParams &params() const { return params_; }

    /** Reservation in flits/frame derived from a bandwidth share. */
    std::uint32_t reservationOf(const FlowSpec &flow) const;

  private:
    const Mesh2D &mesh_;
    GsfParams params_;
    MetricsCollector metrics_;
    GsfBarrier barrier_;
    MeshFabric fabric_;
    std::vector<std::unique_ptr<GsfSourceUnit>> sources_;
};

} // namespace noc

#endif // NOC_GSF_GSF_NETWORK_HH
