#include "gsf/gsf_network.hh"

#include <cmath>

#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace noc
{

GsfNetwork::GsfNetwork(const Mesh2D &mesh, const GsfParams &params,
                       FaultInjector *faults)
    : mesh_(mesh), params_(params),
      barrier_(params.windowFrames, params.barrierDelay),
      fabric_(mesh, params.router, &metrics_, faults)
{
    // Oldest-frame-first arbitration comes from the fabric: its
    // routers allocate by the frame GsfSourceUnit stamps on each flit.

    // Each node admits at most one packet and ejects at most one flit
    // per cycle, so 2 x nodes bounds a cycle's barrier events.
    barrier_.setDeferredReserve(2 * mesh.numNodes() + 8);

    sources_.reserve(mesh.numNodes());
    for (NodeId id = 0; id < mesh.numNodes(); ++id)
        sources_.push_back(std::make_unique<GsfSourceUnit>(
            id, params, fabric_.localIn(id), fabric_.localInCredit(id),
            &barrier_));

    // Sinks report ejections to the barrier for frame-drain detection.
    for (NodeId id = 0; id < mesh.numNodes(); ++id) {
        fabric_.sink(id).setOnEject(
            [this](const Flit &flit, Cycle) {
                barrier_.onFlitEjected(flit.frame);
            });
    }
}

std::uint32_t
GsfNetwork::reservationOf(const FlowSpec &flow) const
{
    const double flits = flow.bwShare * params_.frameSizeFlits;
    const auto r = static_cast<std::uint32_t>(std::llround(flits));
    return std::max<std::uint32_t>(r, 1);
}

void
GsfNetwork::registerFlows(const std::vector<FlowSpec> &flows)
{
    metrics_.resizeFlows(flows.size());
    for (const FlowSpec &f : flows) {
        if (f.src >= mesh_.numNodes())
            fatal("GsfNetwork: flow %u has bad source %u", f.id, f.src);
        sources_[f.src]->addFlow(f.id, reservationOf(f));
    }
}

bool
GsfNetwork::inject(const Packet &pkt)
{
    return sources_.at(pkt.src)->enqueue(pkt);
}

void
GsfNetwork::attach(Simulator &sim)
{
    fabric_.attach(sim);
    for (std::size_t id = 0; id < sources_.size(); ++id)
        sim.add(sources_[id].get(), static_cast<NodeId>(id));
    // Keyless: the frame barrier ticks in the serial epilogue, after
    // this cycle's deferred admissions/ejections have been merged.
    sim.add(&barrier_);
    sim.addMerged(&barrier_);
    sim.addMerged(&metrics_);
}

std::uint64_t
GsfNetwork::flitsInFlight() const
{
    std::uint64_t total = fabric_.flitsInFlight();
    for (const auto &s : sources_)
        total += s->queuedFlits();
    return total;
}

} // namespace noc
