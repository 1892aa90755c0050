#include "router/source_unit.hh"

#include "sim/logging.hh"

namespace noc
{

SourceUnit::SourceUnit(NodeId node, const WormholeParams &params,
                       Channel<WireFlit> *out, Channel<Credit> *credit_in,
                       std::size_t queue_capacity_flits)
    : node_(node), params_(params), out_(out), creditIn_(credit_in),
      queueCapacityFlits_(queue_capacity_flits), vcPick_(params.numVCs)
{
    credit_in->setReader(this, 0);
    vcs_.resize(params.numVCs);
    for (auto &vc : vcs_)
        vc.credits = params.vcDepthFlits;
}

bool
SourceUnit::enqueue(const Packet &pkt)
{
    if (queueCapacityFlits_ != 0 &&
        queuedFlits_ + pkt.sizeFlits > queueCapacityFlits_)
        return false;
    if (pkt.src != node_)
        panic("SourceUnit %u asked to inject a packet from node %u",
              node_, pkt.src);
    queue_.push_back(pkt);
    queuedFlits_ += pkt.sizeFlits;
    wake();
    NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::PacketAccepted,
                            .node = node_, .pkt = pkt,
                            .now = pkt.enqueuedAt});
    return true;
}

void
SourceUnit::receiveCredits(Cycle now)
{
    if (mail() == 0)
        return;
    while (auto c = creditIn_->tryReceive(now)) {
        VcState &vc = vcs_.at(c->vc);
        ++vc.credits;
        if (vc.credits > params_.vcDepthFlits)
            panic("SourceUnit %u: credit overflow on vc %u", node_, c->vc);
    }
}

bool
SourceUnit::vcUsable(std::uint32_t vc) const
{
    // A new packet may start on a VC only if there is buffer space; with
    // atomic reuse (GSF) the downstream VC buffer must be fully drained
    // so flits of different packets never share a virtual channel.
    if (params_.atomicVcReuse)
        return vcs_[vc].credits == params_.vcDepthFlits;
    return vcs_[vc].credits > 0;
}

void
SourceUnit::tick(Cycle now)
{
    receiveCredits(now);

    // Start a new packet if idle. A usable VC must be secured before
    // allowStart() is consulted: allowStart has side effects (GSF frame
    // quota accounting), so it must run at most once per packet. The VC
    // itself is picked only after allowStart succeeds, so the arbiter's
    // pointer advances once per started packet.
    if (!sending_ && !queue_.empty()) {
        std::uint64_t usable = 0;
        for (std::uint32_t vc = 0; vc < params_.numVCs; ++vc) {
            if (vcUsable(vc))
                usable |= std::uint64_t(1) << vc;
        }
        if (usable == 0) {
            NOC_OBSERVE(observer_,
                        {.kind = NetEvent::Kind::SourceThrottled,
                         .node = node_, .flow = queue_.front().flow,
                         .reason = StallReason::NoVc, .now = now});
        }
        std::uint64_t frame_tag = 0;
        if (usable != 0 && allowStart(queue_.front(), now, frame_tag)) {
            sending_ = true;
            current_ = queue_.front();
            queue_.pop_front();
            sentFlits_ = 0;
            currentVC_ = static_cast<std::uint32_t>(vcPick_.arbitrate(usable));
            currentFrame_ = frame_tag;
        }
    }

    // Send at most one flit per cycle (the local link is one flit wide).
    if (sending_ && vcs_[currentVC_].credits > 0) {
        Flit flit;
        const bool head = sentFlits_ == 0;
        const bool tail = sentFlits_ + 1 == current_.sizeFlits;
        flit.type = head && tail ? FlitType::HeadTail
                  : head ? FlitType::Head
                  : tail ? FlitType::Tail
                  : FlitType::Body;
        flit.flow = current_.flow;
        flit.flitNo = nextFlitNo_++;
        flit.packet = current_.id;
        flit.src = current_.src;
        flit.dst = current_.dst;
        flit.pktSize = current_.sizeFlits;
        flit.createdAt = current_.enqueuedAt;
        flit.frame = currentFrame_;
        flit.payload = flitPayload(flit.flow, flit.flitNo);

        out_->send(now, WireFlit{flit, currentVC_});
        NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::FlitSourced,
                                .node = node_, .flit = flit,
                                .spec = false, .now = now});
        --vcs_[currentVC_].credits;
        --queuedFlits_;
        ++sentFlits_;

        if (tail)
            sending_ = false;
    } else if (sending_) {
        NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::SourceThrottled,
                                .node = node_, .flow = current_.flow,
                                .reason = StallReason::NoCredit,
                                .now = now});
    }
}

} // namespace noc
