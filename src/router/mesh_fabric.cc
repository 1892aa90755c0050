#include "router/mesh_fabric.hh"

namespace noc
{

MeshFabric::MeshFabric(const Mesh2D &mesh, const WormholeParams &params,
                       MetricsCollector *metrics, FaultInjector *faults)
    : mesh_(mesh), params_(params)
{
    const std::uint32_t n = mesh.numNodes();
    routers_.reserve(n);
    for (NodeId id = 0; id < n; ++id)
        routers_.push_back(
            std::make_unique<WormholeRouter>(id, mesh, params));

    const auto instrument = [&](auto &ch, NodeId rx) {
        if (faults)
            faults->instrument(*ch, rx);
    };

    // Inter-router links: one flit channel and one reverse credit
    // channel per directed neighbour pair.
    for (NodeId id = 0; id < n; ++id) {
        for (Port p : {Port::North, Port::East, Port::South, Port::West}) {
            if (!mesh.hasNeighbor(id, p))
                continue;
            const NodeId nb = mesh.neighbor(id, p);
            auto flitCh =
                std::make_unique<Channel<WireFlit>>(params.linkLatency);
            auto credCh =
                std::make_unique<Channel<Credit>>(params.linkLatency);
            instrument(flitCh, nb);
            instrument(credCh, id);
            routers_[id]->connectOutput(p, flitCh.get(), credCh.get());
            routers_[nb]->connectInput(oppositePort(p), flitCh.get(),
                                       credCh.get());
            flitChannels_.push_back(std::move(flitCh));
            creditChannels_.push_back(std::move(credCh));
        }
    }

    // Local ports: NI -> router (input), router -> sink (output).
    localIn_.resize(n);
    localInCredit_.resize(n);
    sinks_.reserve(n);
    for (NodeId id = 0; id < n; ++id) {
        localIn_[id] =
            std::make_unique<Channel<WireFlit>>(params.linkLatency);
        localInCredit_[id] =
            std::make_unique<Channel<Credit>>(params.linkLatency);
        instrument(localIn_[id], id);
        instrument(localInCredit_[id], id);
        routers_[id]->connectInput(Port::Local, localIn_[id].get(),
                                   localInCredit_[id].get());

        auto ejectCh =
            std::make_unique<Channel<WireFlit>>(params.linkLatency);
        auto ejectCred =
            std::make_unique<Channel<Credit>>(params.linkLatency);
        instrument(ejectCh, id);
        instrument(ejectCred, id);
        routers_[id]->connectOutput(Port::Local, ejectCh.get(),
                                    ejectCred.get());
        sinks_.push_back(std::make_unique<SinkUnit>(
            id, ejectCh.get(), ejectCred.get(), metrics));
        flitChannels_.push_back(std::move(ejectCh));
        creditChannels_.push_back(std::move(ejectCred));
    }
}

void
MeshFabric::setObserver(NetObserver *obs)
{
    for (auto &r : routers_)
        r->setObserver(obs);
    for (auto &s : sinks_)
        s->setObserver(obs);
}

void
MeshFabric::attach(Simulator &sim)
{
    // Node ids key the spatial partition: a node's router and sink
    // always share a domain, and every channel registers as a port so
    // parallel runs can buffer cross-domain sends.
    for (std::size_t id = 0; id < routers_.size(); ++id)
        sim.add(routers_[id].get(), static_cast<NodeId>(id));
    for (std::size_t id = 0; id < sinks_.size(); ++id)
        sim.add(sinks_[id].get(), static_cast<NodeId>(id));
    for (auto &ch : flitChannels_)
        sim.addPort(ch.get());
    for (auto &ch : creditChannels_)
        sim.addPort(ch.get());
    for (auto &ch : localIn_)
        sim.addPort(ch.get());
    for (auto &ch : localInCredit_)
        sim.addPort(ch.get());
}

std::uint64_t
MeshFabric::flitsInFlight() const
{
    std::uint64_t total = 0;
    for (const auto &r : routers_)
        total += r->bufferedFlits();
    for (const auto &ch : flitChannels_)
        total += ch->inFlightCount();
    for (const auto &ch : localIn_)
        total += ch->inFlightCount();
    return total;
}

} // namespace noc
