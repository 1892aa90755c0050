/**
 * @file
 * Assembly helper: a full mesh of wormhole routers, inter-router
 * channels, ejection sinks, and the local-port channels that source
 * units plug into. Shared by the conventional-wormhole baseline and the
 * GSF network.
 */

#ifndef NOC_ROUTER_MESH_FABRIC_HH
#define NOC_ROUTER_MESH_FABRIC_HH

#include <memory>
#include <vector>

#include "faults/fault_injector.hh"
#include "net/metrics.hh"
#include "net/topology.hh"
#include "router/sink_unit.hh"
#include "router/wormhole_router.hh"
#include "sim/simulator.hh"

namespace noc
{

class MeshFabric
{
  public:
    /**
     * @param faults optional fault injector; when given, every flit and
     *        credit channel is instrumented at construction (the
     *        injector must outlive the fabric).
     */
    MeshFabric(const Mesh2D &mesh, const WormholeParams &params,
               MetricsCollector *metrics,
               FaultInjector *faults = nullptr);

    const Mesh2D &mesh() const { return mesh_; }

    WormholeRouter &router(NodeId n) { return *routers_.at(n); }
    SinkUnit &sink(NodeId n) { return *sinks_.at(n); }

    /** Channel a SourceUnit writes flits into (NI -> router Local). */
    Channel<WireFlit> *localIn(NodeId n) { return localIn_.at(n).get(); }
    /** Credits returned to the SourceUnit by the router's Local input. */
    Channel<Credit> *localInCredit(NodeId n)
    {
        return localInCredit_.at(n).get();
    }

    /** Attach an event observer to every router and sink. */
    void setObserver(NetObserver *obs);

    /** Register routers and sinks with the simulator. */
    void attach(Simulator &sim);

    /** Flits inside routers and on flit channels. */
    std::uint64_t flitsInFlight() const;

  private:
    const Mesh2D &mesh_;
    WormholeParams params_;

    std::vector<std::unique_ptr<WormholeRouter>> routers_;
    std::vector<std::unique_ptr<SinkUnit>> sinks_;
    std::vector<std::unique_ptr<Channel<WireFlit>>> flitChannels_;
    std::vector<std::unique_ptr<Channel<Credit>>> creditChannels_;
    std::vector<std::unique_ptr<Channel<WireFlit>>> localIn_;
    std::vector<std::unique_ptr<Channel<Credit>>> localInCredit_;
};

} // namespace noc

#endif // NOC_ROUTER_MESH_FABRIC_HH
