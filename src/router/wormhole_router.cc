#include "router/wormhole_router.hh"

#include <bit>

#include "sim/logging.hh"

namespace noc
{

WormholeRouter::WormholeRouter(NodeId id, const Mesh2D &mesh,
                               const WormholeParams &params)
    : id_(id), mesh_(mesh), params_(params)
{
    if (params.numVCs == 0 || params.vcDepthFlits == 0)
        fatal("WormholeRouter: numVCs and vcDepthFlits must be positive");
    if (params.routerStages == 0)
        fatal("WormholeRouter: routerStages must be >= 1");
    if (kNumPorts * params.numVCs > kMaxInputVCs)
        fatal("WormholeRouter: %zu ports x %u VCs exceed the %zu-input "
              "allocation mask", kNumPorts, params.numVCs, kMaxInputVCs);

    inputVCs_.resize(kNumPorts * params.numVCs);
    outputVCs_.resize(kNumPorts * params.numVCs);
    bufStore_.resize(inputVCs_.size() *
                     static_cast<std::size_t>(params.vcDepthFlits));
    for (std::size_t i = 0; i < inputVCs_.size(); ++i)
        inputVCs_[i].base =
            static_cast<std::uint32_t>(i * params.vcDepthFlits);
    for (auto &o : outputVCs_)
        o.credits = params.vcDepthFlits;
    for (auto &arb : inputArb_)
        arb.resize(params.numVCs);
    for (auto &arb : outputArb_)
        arb.resize(kNumPorts);
    for (auto &arb : vcArb_)
        arb.resize(kNumPorts * params.numVCs);
}

void
WormholeRouter::connectInput(Port p, Channel<WireFlit> *in,
                             Channel<Credit> *credit_return)
{
    in_[portIndex(p)] = in;
    creditReturn_[portIndex(p)] = credit_return;
    in->setReader(this, static_cast<unsigned>(portIndex(p)));
}

void
WormholeRouter::connectOutput(Port p, Channel<WireFlit> *out,
                              Channel<Credit> *credit_in)
{
    out_[portIndex(p)] = out;
    creditIn_[portIndex(p)] = credit_in;
    credit_in->setReader(this,
                         static_cast<unsigned>(kNumPorts + portIndex(p)));
}

WormholeRouter::InputVC &
WormholeRouter::ivc(std::size_t port, std::uint32_t vc)
{
    return inputVCs_[port * params_.numVCs + vc];
}

WormholeRouter::OutputVC &
WormholeRouter::ovc(std::size_t port, std::uint32_t vc)
{
    return outputVCs_[port * params_.numVCs + vc];
}

void
WormholeRouter::tick(Cycle now)
{
    receiveCredits(now);
    receiveFlits(now);
    switchAllocAndTraverse(now);
    vcAlloc(now);
    routeCompute(now);
}

void
WormholeRouter::receiveCredits(Cycle now)
{
    for (std::uint32_t m = mail() & kCreditMail; m != 0; m &= m - 1) {
        const auto p =
            static_cast<std::size_t>(std::countr_zero(m)) - kNumPorts;
        while (auto c = creditIn_[p]->tryReceive(now)) {
            OutputVC &o = ovc(p, c->vc);
            ++o.credits;
            if (o.credits > params_.vcDepthFlits)
                panic("router %u: credit overflow on port %zu vc %u",
                      id_, p, c->vc);
            if (o.draining && o.credits == params_.vcDepthFlits) {
                o.draining = false;
                o.allocated = false;
            }
        }
    }
}

void
WormholeRouter::receiveFlits(Cycle now)
{
    for (std::uint32_t m = mail() & kFlitMail; m != 0; m &= m - 1) {
        const auto p = static_cast<std::size_t>(std::countr_zero(m));
        while (auto wf = in_[p]->tryReceive(now)) {
            if (wf->vc >= params_.numVCs)
                panic("router %u: bad VC %u on port %zu", id_, wf->vc, p);
            InputVC &v = ivc(p, wf->vc);
            if (v.count >= params_.vcDepthFlits)
                panic("router %u: input VC overflow port %zu vc %u "
                      "(credit protocol violated)", id_, p, wf->vc);
            // Flit arriving now may traverse the switch after the
            // remaining pipeline stages.
            NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::FlitArrived,
                                    .node = id_,
                                    .port = static_cast<Port>(p),
                                    .flit = wf->flit, .spec = false,
                                    .now = now});
            vcPush(v, wf->flit, now + params_.routerStages - 1);
        }
    }
}

// Switch and VC allocation grant the lowest flit frame first, ties
// round-robin: requests are gathered into per-port masks in one pass
// over the input VCs, then each arbiter picks from the lowestKeyMask
// of its requests, keyed by their head flits' frames.
// loft-tidy: steady-state-hot
void
WormholeRouter::switchAllocAndTraverse(Cycle now)
{
    // Stage 1: each input port nominates one eligible VC.
    const std::uint32_t nvc = params_.numVCs;
    std::array<std::uint64_t, kNumPorts> vcReq{};
    for (std::size_t p = 0, i = 0; p < kNumPorts; ++p) {
        for (std::uint32_t vc = 0; vc < nvc; ++vc, ++i) {
            const InputVC &v = inputVCs_[i];
            if (v.state != VCState::Active || v.count == 0)
                continue;
            if (vcFront(v).readyAt > now)
                continue;
            if (ovc(portIndex(v.outPort), v.outVC).credits == 0)
                continue;
            vcReq[p] |= std::uint64_t(1) << vc;
        }
    }

    std::array<std::uint32_t, kNumPorts> candidate{};
    std::array<std::uint64_t, kNumPorts> portReq{};
    std::array<std::uint64_t, kNumPorts> portFrame{};
    for (std::size_t p = 0; p < kNumPorts; ++p) {
        if (vcReq[p] == 0)
            continue;
        const HeadFrames key{*this, p * nvc};
        const auto vc = static_cast<std::uint32_t>(
            inputArb_[p].arbitrate(lowestKeyMask(vcReq[p], key)));
        candidate[p] = vc;
        portReq[portIndex(ivc(p, vc).outPort)] |= std::uint64_t(1) << p;
        portFrame[p] = key[vc];
    }

    // Stage 2: each output port grants one input port.
    for (std::size_t outp = 0; outp < kNumPorts; ++outp) {
        if (!out_[outp] || portReq[outp] == 0)
            continue;
        const std::size_t win = outputArb_[outp].arbitrate(
            lowestKeyMask(portReq[outp], portFrame));

        InputVC &v = ivc(win, candidate[win]);
        OutputVC &o = ovc(outp, v.outVC);
        const Flit flit = vcFront(v).flit;
        vcPop(v);

        out_[outp]->send(now, WireFlit{flit, v.outVC});
        NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::FlitForwarded,
                                .node = id_,
                                .port = static_cast<Port>(outp),
                                .flit = flit, .spec = false,
                                .now = now});
        --o.credits;
        if (creditReturn_[win])
            creditReturn_[win]->send(
                now, Credit{candidate[win]});

        if (flit.isTail()) {
            v.state = VCState::Idle;
            if (params_.atomicVcReuse &&
                o.credits != params_.vcDepthFlits) {
                o.draining = true;
            } else {
                o.allocated = false;
            }
        }
    }
}

// loft-tidy: steady-state-hot
void
WormholeRouter::vcAlloc(Cycle now)
{
    (void)now;
    // Requestors per output port, bit p * numVCs + vc. A waiting VC
    // always holds its head flit (it leaves only once Active).
    std::array<std::uint64_t, kNumPorts> req{};
    for (std::size_t i = 0; i < inputVCs_.size(); ++i) {
        if (inputVCs_[i].state == VCState::VCWait)
            req[portIndex(inputVCs_[i].outPort)] |= std::uint64_t(1) << i;
    }
    const HeadFrames frame{*this, 0};
    // Grant free output VCs to waiting inputs, oldest frame first.
    for (std::size_t outp = 0; outp < kNumPorts; ++outp) {
        if (!out_[outp])
            continue;
        for (std::uint32_t ovcIdx = 0;
             ovcIdx < params_.numVCs && req[outp] != 0; ++ovcIdx) {
            OutputVC &o = ovc(outp, ovcIdx);
            if (o.allocated || o.draining)
                continue;
            const std::size_t win =
                vcArb_[outp].arbitrate(lowestKeyMask(req[outp], frame));
            req[outp] &= ~(std::uint64_t(1) << win);
            InputVC &v = inputVCs_[win];
            v.state = VCState::Active;
            v.outVC = ovcIdx;
            o.allocated = true;
            o.ownerPort = win / params_.numVCs;
            o.ownerVC =
                static_cast<std::uint32_t>(win % params_.numVCs);
        }
    }
}

void
WormholeRouter::routeCompute(Cycle now)
{
    (void)now;
    for (std::size_t p = 0; p < kNumPorts; ++p) {
        for (std::uint32_t vc = 0; vc < params_.numVCs; ++vc) {
            InputVC &v = ivc(p, vc);
            if (v.state != VCState::Idle || v.count == 0)
                continue;
            const Flit &head = vcFront(v).flit;
            if (!head.isHead())
                panic("router %u: non-head flit at head of idle VC "
                      "(port %zu vc %u flow %u)", id_, p, vc, head.flow);
            v.outPort = xyRoute(mesh_, id_, head.dst);
            v.state = VCState::VCWait;
        }
    }
}

bool
WormholeRouter::quiescent() const
{
    if (mail() != 0)
        return false;
    for (const InputVC &v : inputVCs_) {
        if (v.state != VCState::Idle || v.count != 0)
            return false;
    }
    return true;
}

std::uint64_t
WormholeRouter::bufferedFlits() const
{
    std::uint64_t n = 0;
    for (const auto &v : inputVCs_)
        n += v.count;
    return n;
}

std::uint32_t
WormholeRouter::outputCredits(Port p, std::uint32_t vc) const
{
    return outputVCs_[portIndex(p) * params_.numVCs + vc].credits;
}

} // namespace noc
