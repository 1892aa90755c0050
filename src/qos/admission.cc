#include "qos/admission.hh"

#include <cmath>

#include "net/routing.hh"
#include "qos/delay_bound.hh"
#include "sim/logging.hh"

namespace noc
{

AdmissionController::AdmissionController(const Mesh2D &mesh,
                                         const LoftParams &params)
    : mesh_(mesh), params_(params),
      links_(mesh.numNodes() * (kNumPorts + 1))
{
    params_.validate();
}

std::size_t
AdmissionController::linkIndex(NodeId node, Port out) const
{
    return node * (kNumPorts + 1) + portIndex(out);
}

std::size_t
AdmissionController::niLinkIndex(NodeId node) const
{
    return node * (kNumPorts + 1) + kNumPorts;
}

std::uint32_t
AdmissionController::slotsFor(double share) const
{
    if (share <= 0.0)
        return 0;
    const double slots = share * params_.frameSlots();
    return std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::llround(slots)));
}

template <typename Fn>
void
AdmissionController::forEachLink(const FlowSpec &flow, Fn &&fn) const
{
    fn(niLinkIndex(flow.src)); // NI injection link is budgeted too
    if (flow.randomDst()) {
        for (NodeId n = 0; n < mesh_.numNodes(); ++n)
            for (std::size_t p = 0; p < kNumPorts; ++p)
                fn(linkIndex(n, static_cast<Port>(p)));
        return;
    }
    for (const RouteHop &hop : xyPath(mesh_, flow.src, flow.dst))
        fn(linkIndex(hop.node, hop.out));
}

std::optional<Admission>
AdmissionController::admit(const FlowSpec &flow)
{
    if (flow.id == kInvalidFlow || admitted_.count(flow.id))
        return std::nullopt;
    if (flow.src >= mesh_.numNodes())
        return std::nullopt;
    const std::uint32_t slots = slotsFor(flow.bwShare);
    if (slots == 0)
        return std::nullopt;

    bool feasible = true;
    forEachLink(flow, [&](std::size_t l) {
        const LinkState &ls = links_[l];
        if (ls.reservedSlots + slots > params_.frameSlots() ||
            ls.flowCount + 1 > params_.maxFlows) {
            feasible = false;
        }
    });
    if (!feasible)
        return std::nullopt;

    forEachLink(flow, [&](std::size_t l) {
        links_[l].reservedSlots += slots;
        links_[l].flowCount += 1;
    });

    Admission adm;
    adm.flow = flow;
    adm.reservationFlits = slots * params_.quantumFlits;
    const std::uint32_t hops = flow.randomDst()
        ? mesh_.hopDistance(0, static_cast<NodeId>(
              mesh_.numNodes() - 1)) + 1
        : flowHops(mesh_, flow.src, flow.dst);
    adm.delayBound = loftWorstCaseLatency(params_, hops);
    admitted_[flow.id] = adm;
    return adm;
}

bool
AdmissionController::release(FlowId flow)
{
    auto it = admitted_.find(flow);
    if (it == admitted_.end())
        return false;
    const std::uint32_t slots =
        it->second.reservationFlits / params_.quantumFlits;
    forEachLink(it->second.flow, [&](std::size_t l) {
        if (links_[l].reservedSlots < slots || links_[l].flowCount == 0)
            panic("AdmissionController: release underflow");
        links_[l].reservedSlots -= slots;
        links_[l].flowCount -= 1;
    });
    admitted_.erase(it);
    return true;
}

double
AdmissionController::maxAdmissibleShare(NodeId src, NodeId dst) const
{
    std::uint32_t min_free = params_.frameSlots();
    auto probe = [&](std::size_t l) {
        const LinkState &ls = links_[l];
        if (ls.flowCount >= params_.maxFlows) {
            min_free = 0;
            return;
        }
        min_free = std::min(min_free,
                            params_.frameSlots() - ls.reservedSlots);
    };
    probe(niLinkIndex(src));
    for (const RouteHop &hop : xyPath(mesh_, src, dst))
        probe(linkIndex(hop.node, hop.out));
    return static_cast<double>(min_free) / params_.frameSlots();
}

} // namespace noc
