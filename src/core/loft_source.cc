#include "core/loft_source.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace noc
{

LoftSourceUnit::LoftSourceUnit(NodeId node, const LoftParams &params)
    : node_(node), params_(params),
      sched_(params, csprintf("ni%u.sched", node), &pool_,
             SchedSite{node, kNiSchedLane}),
      outbound_(PoolAlloc<std::pair<const Slot, OutboundQuantum>>(&pool_)),
      dnNonspecFree_(params.centralBufferFlits),
      dnSpecFree_(params.specBufferFlits),
      laCredits_(params.laNumVCs, params.laVcDepth),
      laVcPick_(params.laNumVCs),
      queueCapacityFlits_(params.sourceQueueFlits)
{
    // Per-flow counters are created at registration (registerFlow), so
    // the map's population is fixed before traffic starts; the reserve
    // pins the bucket array so it never rehashes mid-run.
    counters_.reserve(params.maxFlows);
}

void
LoftSourceUnit::connectData(Channel<DataWireFlit> *data_out,
                            Channel<ActualCreditMsg> *actual_credit_in,
                            Channel<VirtualCreditMsg> *virtual_credit_in)
{
    dataOut_ = data_out;
    actualCreditIn_ = actual_credit_in;
    virtualCreditIn_ = virtual_credit_in;
    actual_credit_in->setReader(this);
    virtual_credit_in->setReader(this);
}

void
LoftSourceUnit::connectLookahead(Channel<LaWireFlit> *la_out,
                                 Channel<LaCredit> *la_credit_in)
{
    laOut_ = la_out;
    laCreditIn_ = la_credit_in;
    la_credit_in->setReader(this);
}

void
LoftSourceUnit::registerFlow(FlowId flow, std::uint32_t reservation_flits)
{
    sched_.registerFlow(flow, reservation_flits);
    counters_.try_emplace(flow);
}

bool
LoftSourceUnit::canAccept(const Packet &pkt) const
{
    if (queueCapacityFlits_ == 0)
        return true;
    return queuedFlits_ + pkt.sizeFlits <= queueCapacityFlits_;
}

bool
LoftSourceUnit::enqueue(const Packet &pkt)
{
    if (!canAccept(pkt))
        return false;
    if (pkt.src != node_)
        panic("LoftSourceUnit %u: packet from node %u", node_, pkt.src);
    queue_.push_back(pkt);
    queuedFlits_ += pkt.sizeFlits;
    wake();
    NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::PacketAccepted,
                            .node = node_, .pkt = pkt,
                            .now = pkt.enqueuedAt});
    return true;
}

void
LoftSourceUnit::receiveCredits(Cycle now)
{
    if (actualCreditIn_) {
        while (auto c = actualCreditIn_->tryReceive(now)) {
            if (!acceptCredit(*c, observer_, node_, now))
                continue;
            if (c->spec)
                ++dnSpecFree_;
            else
                ++dnNonspecFree_;
            if (dnSpecFree_ > params_.specBufferFlits ||
                dnNonspecFree_ > params_.centralBufferFlits) {
                panic("NI %u: actual credit overflow", node_);
            }
        }
    }
    if (virtualCreditIn_) {
        while (auto c = virtualCreditIn_->tryReceive(now)) {
            if (!acceptCredit(*c, observer_, node_, now))
                continue;
            sched_.onCreditReturn(c->departSlot);
        }
    }
    if (laCreditIn_) {
        while (auto c = laCreditIn_->tryReceive(now)) {
            if (!acceptCredit(*c, observer_, node_, now))
                continue;
            ++laCredits_.at(c->vc);
            if (laCredits_[c->vc] > params_.laVcDepth)
                panic("NI %u: look-ahead credit overflow", node_);
        }
    }
}

void
LoftSourceUnit::buildNextQuantum(Cycle now)
{
    (void)now;
    if (pending_ || queue_.empty())
        return;
    Packet &pkt = queue_.front();
    FlowCounters &fc = counters_[pkt.flow];

    PendingQuantum pq(&pool_);
    const std::uint32_t remaining = pkt.sizeFlits - headPacketOffset_;
    const std::uint32_t n =
        std::min(remaining, params_.quantumFlits);

    pq.la.flow = pkt.flow;
    pq.la.src = pkt.src;
    pq.la.dst = pkt.dst;
    pq.la.quantumNo = fc.nextQuantumNo++;
    pq.la.quantumFlits = n;
    pq.la.firstFlitNo = fc.nextFlitNo;
    pq.la.packet = pkt.id;
    pq.la.createdAt = pkt.enqueuedAt;
    pq.la.leadsTail = headPacketOffset_ + n == pkt.sizeFlits;

    for (std::uint32_t i = 0; i < n; ++i) {
        Flit flit;
        const std::uint32_t pos = headPacketOffset_ + i;
        const bool head = pos == 0;
        const bool tail = pos + 1 == pkt.sizeFlits;
        flit.type = head && tail ? FlitType::HeadTail
                  : head ? FlitType::Head
                  : tail ? FlitType::Tail
                  : FlitType::Body;
        flit.flow = pkt.flow;
        flit.flitNo = fc.nextFlitNo++;
        flit.packet = pkt.id;
        flit.src = pkt.src;
        flit.dst = pkt.dst;
        flit.pktSize = pkt.sizeFlits;
        flit.createdAt = pkt.enqueuedAt;
        flit.quantum = pq.la.quantumNo;
        flit.quantumLast = i + 1 == n;
        flit.payload = flitPayload(flit.flow, flit.flitNo);
        pq.flits.push_back(flit);
    }

    headPacketOffset_ += n;
    if (headPacketOffset_ == pkt.sizeFlits) {
        queue_.pop_front();
        headPacketOffset_ = 0;
    }
    pending_ = std::move(pq);
}

void
LoftSourceUnit::emitLookahead(Cycle now)
{
    if (!pending_ || !laOut_)
        return;
    // Pick a look-ahead VC with credit; without one we must not
    // schedule yet (the look-ahead flit must precede its data).
    std::uint64_t free = 0;
    for (std::uint32_t v = 0; v < params_.laNumVCs; ++v) {
        if (laCredits_[v] > 0)
            free |= std::uint64_t(1) << v;
    }
    if (!free) {
        NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::SourceThrottled,
                                .node = node_, .flow = pending_->la.flow,
                                .reason = StallReason::NoLaCredit,
                                .now = now});
        return;
    }

    Slot granted;
    const Slot earliest = params_.slotOf(now) + 1;
    if (!sched_.trySchedule(pending_->la.flow, now,
                            pending_->la.quantumNo, earliest, granted)) {
        NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::SourceThrottled,
                                .node = node_, .flow = pending_->la.flow,
                                .reason = StallReason::SchedThrottle,
                                .now = now});
        return;
    }
    const std::size_t vc = laVcPick_.arbitrate(free);
    pending_->la.departureSlot = granted;
    laOut_->send(now, LaWireFlit{pending_->la,
                 static_cast<std::uint32_t>(vc)});
    --laCredits_[vc];
    NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::NiQuantumScheduled,
                            .node = node_, .la = pending_->la,
                            .slot = granted, .now = now});

    OutboundQuantum ob(&pool_);
    ob.flow = pending_->la.flow;
    ob.quantumNo = pending_->la.quantumNo;
    ob.departSlot = granted;
    ob.flits = std::move(pending_->flits);
    outbound_.emplace(granted, std::move(ob));
    pending_.reset();
}

void
LoftSourceUnit::forwardData(Cycle now)
{
    if (!dataOut_ || outbound_.empty())
        return;
    const Slot now_slot = params_.slotOf(now);

    // Emergent quantum: the earliest booking whose slot has arrived.
    auto first = outbound_.begin();
    OutboundQuantum *cand = nullptr;
    bool emergent = false;
    if (first->first <= now_slot) {
        cand = &first->second;
        emergent = true;
    } else if (params_.speculativeSwitching) {
        cand = &first->second; // earliest scheduled, sent early
    }
    if (!cand)
        return;

    // A quantum starting at its slot enters the tracked non-speculative
    // buffer; one starting early uses the speculative buffer. The
    // choice is sticky for the whole quantum (Section 4.3.1).
    if (cand->sent == 0)
        cand->sendSpec = !emergent;
    const bool to_spec = cand->sendSpec;
    if (to_spec ? dnSpecFree_ == 0 : dnNonspecFree_ == 0) {
        NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::SourceThrottled,
                                .node = node_, .flow = cand->flow,
                                .reason = to_spec
                                              ? StallReason::NoSpecCredit
                                              : StallReason::NoNonspecCredit,
                                .now = now});
        return;
    }
    const Flit flit = cand->flits[cand->sent];
    dataOut_->send(now, DataWireFlit{flit, to_spec});
    NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::FlitSourced,
                            .node = node_, .flit = flit, .spec = to_spec,
                            .now = now});
    if (to_spec)
        --dnSpecFree_;
    else
        --dnNonspecFree_;
    --queuedFlits_;
    ++cand->sent;
    lastForward_ = now;

    if (cand->sent == cand->flits.size()) {
        sched_.clearBooking(cand->departSlot);
        outbound_.erase(first);
    }
}

void
LoftSourceUnit::maybeLocalReset(Cycle now)
{
    if (!params_.localStatusReset)
        return;
    if (!sched_.dirty() || !sched_.canLocalReset() ||
        dnNonspecFree_ != params_.centralBufferFlits)
        return;
    sched_.localReset(now);
}

void
LoftSourceUnit::tick(Cycle now)
{
    receiveCredits(now);
    sched_.advanceTo(now);
    buildNextQuantum(now);
    emitLookahead(now);
    forwardData(now);
    maybeLocalReset(now);
}

bool
LoftSourceUnit::quiescent() const
{
    // Nothing queued, segmented or scheduled-but-unsent; empty credit
    // wires; and the local-link scheduler parked post-reset (its
    // advanceTo catch-up replays the skipped frames on wake-up).
    return queue_.empty() && !pending_ && outbound_.empty() &&
           (!actualCreditIn_ || actualCreditIn_->empty()) &&
           (!virtualCreditIn_ || virtualCreditIn_->empty()) &&
           (!laCreditIn_ || laCreditIn_->empty()) &&
           sched_.quiescent();
}

} // namespace noc
