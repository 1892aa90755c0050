#include "core/loft_network.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace noc
{

template <typename T>
Channel<T> *
LoftNetwork::newChannel(std::vector<std::unique_ptr<Channel<T>>> &pool,
                        NodeId receiver)
{
    pool.push_back(std::make_unique<Channel<T>>(params_.linkLatency));
    if (faults_)
        faults_->instrument(*pool.back(), receiver);
    return pool.back().get();
}

LoftNetwork::LoftNetwork(const Mesh2D &mesh, const LoftParams &params,
                         FaultInjector *faults)
    : mesh_(mesh), params_(params), faults_(faults)
{
    params_.validate();
    const std::uint32_t n = mesh.numNodes();

    for (NodeId id = 0; id < n; ++id) {
        dataRouters_.push_back(
            std::make_unique<LoftDataRouter>(id, mesh, params_));
    }
    for (NodeId id = 0; id < n; ++id) {
        laRouters_.push_back(std::make_unique<LookaheadRouter>(
            id, mesh, params_, dataRouters_[id].get()));
    }

    // Inter-router links on both planes.
    for (NodeId id = 0; id < n; ++id) {
        for (Port p : {Port::North, Port::East, Port::South, Port::West}) {
            if (!mesh.hasNeighbor(id, p))
                continue;
            const NodeId nb = mesh.neighbor(id, p);
            const Port back = oppositePort(p);

            // Credits flow opposite the data (nb -> id).
            auto *data = newChannel(dataChannels_, nb);
            auto *act = newChannel(actChannels_, id);
            auto *vcr = newChannel(vcrChannels_, id);
            dataRouters_[id]->connectOutput(p, data, act, vcr);
            dataRouters_[nb]->connectInput(back, data, act, vcr);

            auto *la = newChannel(laChannels_, nb);
            auto *lac = newChannel(laCredChannels_, id);
            laRouters_[id]->connectOutput(p, la, lac);
            laRouters_[nb]->connectInput(back, la, lac);
        }
    }

    // Local ports: NI -> router / LA router, router -> sink.
    for (NodeId id = 0; id < n; ++id) {
        auto src = std::make_unique<LoftSourceUnit>(id, params_);

        auto *data = newChannel(dataChannels_, id);
        auto *act = newChannel(actChannels_, id);
        auto *vcr = newChannel(vcrChannels_, id);
        src->connectData(data, act, vcr);
        dataRouters_[id]->connectInput(Port::Local, data, act, vcr);

        auto *la = newChannel(laChannels_, id);
        auto *lac = newChannel(laCredChannels_, id);
        src->connectLookahead(la, lac);
        laRouters_[id]->connectInput(Port::Local, la, lac);

        auto *eject = newChannel(dataChannels_, id);
        auto *eact = newChannel(actChannels_, id);
        auto *evcr = newChannel(vcrChannels_, id);
        dataRouters_[id]->connectOutput(Port::Local, eject, eact, evcr);
        sinks_.push_back(std::make_unique<LoftSink>(
            id, params_, eject, eact, evcr, &metrics_));

        sources_.push_back(std::move(src));
    }
}

std::uint32_t
LoftNetwork::reservationOf(const FlowSpec &flow) const
{
    const double flits = flow.bwShare * params_.frameSizeFlits;
    const auto r = static_cast<std::uint32_t>(std::llround(flits));
    return std::max<std::uint32_t>(r, params_.quantumFlits);
}

void
LoftNetwork::registerFlows(const std::vector<FlowSpec> &flows)
{
    metrics_.resizeFlows(flows.size());
    // A random-destination flow's packets may take any XY route, so it
    // reserves on every output port of every router (Section 6,
    // uniform). Those registrations go scheduler-major after every NI's:
    // each port takes the whole batch, in ascending id order, while its
    // flow table is hot.
    std::vector<std::pair<FlowId, std::uint32_t>> anywhere;
    for (const FlowSpec &f : flows) {
        const std::uint32_t r = reservationOf(f);
        sources_.at(f.src)->registerFlow(f.id, r);
        if (f.randomDst()) {
            anywhere.emplace_back(f.id, r);
            continue;
        }
        for (const RouteHop &hop : xyPath(mesh_, f.src, f.dst))
            dataRouters_[hop.node]->scheduler(hop.out).registerFlow(f.id, r);
    }
    if (anywhere.empty())
        return;
    std::sort(anywhere.begin(), anywhere.end());
    for (auto &router : dataRouters_)
        for (std::size_t p = 0; p < kNumPorts; ++p)
            router->scheduler(static_cast<Port>(p)).registerFlows(anywhere);
}

bool
LoftNetwork::inject(const Packet &pkt)
{
    return sources_.at(pkt.src)->enqueue(pkt);
}

void
LoftNetwork::attach(Simulator &sim)
{
    // Look-ahead routers tick before data routers of the same node so
    // that table writes are visible within the cycle (the two are
    // co-located hardware blocks). The shared node id keys them into
    // the same domain, which preserves that coupling when the mesh is
    // partitioned across worker threads.
    for (std::size_t id = 0; id < laRouters_.size(); ++id)
        sim.add(laRouters_[id].get(), static_cast<NodeId>(id));
    for (std::size_t id = 0; id < dataRouters_.size(); ++id)
        sim.add(dataRouters_[id].get(), static_cast<NodeId>(id));
    for (std::size_t id = 0; id < sources_.size(); ++id)
        sim.add(sources_[id].get(), static_cast<NodeId>(id));
    for (std::size_t id = 0; id < sinks_.size(); ++id)
        sim.add(sinks_[id].get(), static_cast<NodeId>(id));
    for (auto &ch : dataChannels_)
        sim.addPort(ch.get());
    for (auto &ch : actChannels_)
        sim.addPort(ch.get());
    for (auto &ch : vcrChannels_)
        sim.addPort(ch.get());
    for (auto &ch : laChannels_)
        sim.addPort(ch.get());
    for (auto &ch : laCredChannels_)
        sim.addPort(ch.get());
    sim.addMerged(&metrics_);
}

void
LoftNetwork::setObserver(NetObserver *obs)
{
    for (auto &r : dataRouters_)
        r->setObserver(obs);
    for (auto &r : laRouters_)
        r->setObserver(obs);
    for (auto &s : sources_)
        s->setObserver(obs);
    for (auto &s : sinks_)
        s->setObserver(obs);
}

std::uint64_t
LoftNetwork::flitsInFlight() const
{
    std::uint64_t total = 0;
    for (const auto &s : sources_)
        total += s->queuedFlits();
    for (const auto &r : dataRouters_)
        total += r->bufferedFlits();
    for (const auto &ch : dataChannels_)
        total += ch->inFlightCount();
    return total;
}

std::uint64_t
LoftNetwork::totalSpeculativeForwards() const
{
    std::uint64_t t = 0;
    for (const auto &r : dataRouters_)
        t += r->speculativeForwards();
    return t;
}

std::uint64_t
LoftNetwork::totalEmergentForwards() const
{
    std::uint64_t t = 0;
    for (const auto &r : dataRouters_)
        t += r->emergentForwards();
    return t;
}

std::uint64_t
LoftNetwork::totalLocalResets() const
{
    std::uint64_t t = 0;
    for (const auto &r : dataRouters_)
        for (std::size_t p = 0; p < kNumPorts; ++p)
            t += r->scheduler(static_cast<Port>(p)).resets();
    for (const auto &s : sources_)
        t += s->scheduler().resets();
    return t;
}

std::uint64_t
LoftNetwork::totalAnomalyViolations() const
{
    std::uint64_t t = 0;
    for (const auto &r : dataRouters_)
        t += r->anomalyViolations();
    for (const auto &s : sources_)
        t += s->scheduler().anomalyViolations();
    return t;
}

std::vector<double>
LoftNetwork::linkUtilization(Cycle cycles) const
{
    std::vector<double> out;
    out.reserve(mesh_.numNodes() * kNumPorts);
    const double denom = static_cast<double>(cycles);
    for (NodeId n = 0; n < mesh_.numNodes(); ++n) {
        for (std::size_t p = 0; p < kNumPorts; ++p) {
            const double flits = static_cast<double>(
                dataRouters_[n]->portFlitsForwarded(
                    static_cast<Port>(p)));
            out.push_back(cycles ? flits / denom : 0.0);
        }
    }
    return out;
}

std::uint64_t
LoftNetwork::totalMissedSlots() const
{
    std::uint64_t t = 0;
    for (const auto &r : dataRouters_)
        t += r->missedSlots();
    return t;
}

std::uint64_t
LoftNetwork::totalLookaheadReissues() const
{
    std::uint64_t t = 0;
    for (const auto &r : dataRouters_)
        t += r->lookaheadReissues();
    return t;
}

std::uint64_t
LoftNetwork::totalQuantaScrubbed() const
{
    std::uint64_t t = 0;
    for (const auto &r : dataRouters_)
        t += r->quantaScrubbed();
    return t;
}

} // namespace noc
