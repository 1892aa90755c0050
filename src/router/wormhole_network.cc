#include "router/wormhole_network.hh"

#include "sim/logging.hh"

namespace noc
{

WormholeNetwork::WormholeNetwork(const Mesh2D &mesh,
                                 const WormholeParams &params,
                                 std::size_t source_queue_flits,
                                 FaultInjector *faults)
    : mesh_(mesh), fabric_(mesh, params, &metrics_, faults)
{
    sources_.reserve(mesh.numNodes());
    for (NodeId id = 0; id < mesh.numNodes(); ++id)
        sources_.push_back(std::make_unique<SourceUnit>(
            id, params, fabric_.localIn(id), fabric_.localInCredit(id),
            source_queue_flits));
}

void
WormholeNetwork::registerFlows(const std::vector<FlowSpec> &flows)
{
    // The baseline ignores reservations; it only needs per-flow metrics.
    metrics_.resizeFlows(flows.size());
}

bool
WormholeNetwork::inject(const Packet &pkt)
{
    return sources_.at(pkt.src)->enqueue(pkt);
}

void
WormholeNetwork::attach(Simulator &sim)
{
    fabric_.attach(sim);
    for (std::size_t id = 0; id < sources_.size(); ++id)
        sim.add(sources_[id].get(), static_cast<NodeId>(id));
    sim.addMerged(&metrics_);
}

std::uint64_t
WormholeNetwork::flitsInFlight() const
{
    std::uint64_t total = fabric_.flitsInFlight();
    for (const auto &s : sources_)
        total += s->queuedFlits();
    return total;
}

} // namespace noc
