#include "core/loft_source.hh"

#include <algorithm>
#include <cassert>

#include "sim/logging.hh"

namespace noc
{

namespace
{

/**
 * Scheduled quanta an NI has room for from the start. On perfbench's
 * workloads an NI holds at most 2 on uniform and neighbor traffic and
 * 33 on DoS, whose hot sources grow the list in warm-up.
 */
constexpr std::size_t kOutboundReserve = 8;

} // namespace

LoftSourceUnit::LoftSourceUnit(NodeId node, const LoftParams &params)
    : node_(node), params_(params),
      sched_(params, csprintf("ni%u.sched", node),
             SchedSite{node, kNiLane}),
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
    outbound_.reserve(kOutboundReserve);
}

void
LoftSourceUnit::connectData(Channel<DataWireFlit> *data_out,
                            Channel<ActualCreditMsg> *actual_credit_in,
                            Channel<VirtualCreditMsg> *virtual_credit_in)
{
    dataOut_ = data_out;
    actualCreditIn_ = actual_credit_in;
    virtualCreditIn_ = virtual_credit_in;
    actual_credit_in->setReader(this, kActualCreditPort);
    virtual_credit_in->setReader(this, kVirtualCreditPort);
}

void
LoftSourceUnit::connectLookahead(Channel<LaWireFlit> *la_out,
                                 Channel<LaCredit> *la_credit_in)
{
    laOut_ = la_out;
    laCreditIn_ = la_credit_in;
    la_credit_in->setReader(this, kLaCreditPort);
}

void
LoftSourceUnit::registerFlow(FlowId flow, std::uint32_t reservation_flits)
{
    sched_.registerFlow(flow, reservation_flits);
    counters_.try_emplace(flow);
}

bool
LoftSourceUnit::enqueue(const Packet &pkt)
{
    if (queueCapacityFlits_ != 0 &&
        queuedFlits_ + pkt.sizeFlits > queueCapacityFlits_)
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
    const std::uint32_t mail_in = mail();
    if (mail_in & 1u << kActualCreditPort) {
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
    if (mail_in & 1u << kVirtualCreditPort) {
        while (auto c = virtualCreditIn_->tryReceive(now)) {
            if (!acceptCredit(*c, observer_, node_, now))
                continue;
            sched_.onCreditReturn(c->departSlot);
        }
    }
    if (mail_in & 1u << kLaCreditPort) {
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

    Quantum &q = pending_.emplace();
    const std::uint32_t remaining = pkt.sizeFlits - headPacketOffset_;
    const std::uint32_t n =
        std::min(remaining, params_.quantumFlits);

    q.la.flow = pkt.flow;
    q.la.src = pkt.src;
    q.la.dst = pkt.dst;
    q.la.quantumNo = fc.nextQuantumNo++;
    q.la.quantumFlits = n;
    q.la.firstFlitNo = fc.nextFlitNo;
    q.la.packet = pkt.id;
    q.la.createdAt = pkt.enqueuedAt;
    q.la.leadsTail = headPacketOffset_ + n == pkt.sizeFlits;
    q.pktSize = pkt.sizeFlits;
    q.pktOffset = headPacketOffset_;
    fc.nextFlitNo += n;

    headPacketOffset_ += n;
    if (headPacketOffset_ == pkt.sizeFlits) {
        queue_.pop_front();
        headPacketOffset_ = 0;
    }
}

Flit
LoftSourceUnit::flitOf(const Quantum &q, std::uint32_t i)
{
    Flit flit;
    const std::uint32_t pos = q.pktOffset + i;
    const bool head = pos == 0;
    const bool tail = pos + 1 == q.pktSize;
    flit.type = head && tail ? FlitType::HeadTail
              : head ? FlitType::Head
              : tail ? FlitType::Tail
              : FlitType::Body;
    flit.flow = q.la.flow;
    flit.flitNo = q.la.firstFlitNo + i;
    flit.packet = q.la.packet;
    flit.src = q.la.src;
    flit.dst = q.la.dst;
    flit.pktSize = q.pktSize;
    flit.createdAt = q.la.createdAt;
    flit.quantum = q.la.quantumNo;
    flit.quantumLast = i + 1 == q.la.quantumFlits;
    flit.payload = flitPayload(flit.flow, flit.flitNo);
    return flit;
}

// loft-tidy: steady-state-hot
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

    // The scheduler grants each slot once, so the slots are distinct.
    const auto pos = std::lower_bound(
        outbound_.begin(), outbound_.end(), granted,
        [](const Quantum &q, Slot s) { return q.la.departureSlot < s; });
    // loft-tidy: pooled(reserved at construction; grows past its peak)
    outbound_.insert(pos, *pending_);
    pending_.reset();
}

void
LoftSourceUnit::forwardData(Cycle now)
{
    if (!dataOut_ || outbound_.empty())
        return;
    const Slot now_slot = params_.slotOf(now);

    // Emergent quantum: the earliest booking whose slot has arrived;
    // with speculative switching the earliest is sent early otherwise.
    Quantum &cand = outbound_.front();
    const bool emergent = cand.la.departureSlot <= now_slot;
    if (!emergent && !params_.speculativeSwitching)
        return;

    // A quantum starting at its slot enters the tracked non-speculative
    // buffer; one starting early uses the speculative buffer. The
    // choice is sticky for the whole quantum (Section 4.3.1).
    if (cand.sent == 0)
        cand.sendSpec = !emergent;
    const bool to_spec = cand.sendSpec;
    if (to_spec ? dnSpecFree_ == 0 : dnNonspecFree_ == 0) {
        NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::SourceThrottled,
                                .node = node_, .flow = cand.la.flow,
                                .reason = to_spec
                                              ? StallReason::NoSpecCredit
                                              : StallReason::NoNonspecCredit,
                                .now = now});
        return;
    }
    const Flit flit = flitOf(cand, cand.sent);
    dataOut_->send(now, DataWireFlit{flit, to_spec});
    NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::FlitSourced,
                            .node = node_, .flit = flit, .spec = to_spec,
                            .now = now});
    if (to_spec)
        --dnSpecFree_;
    else
        --dnNonspecFree_;
    --queuedFlits_;
    ++cand.sent;

    if (cand.sent == cand.la.quantumFlits) {
        sched_.clearBooking(cand.la.departureSlot);
        outbound_.erase(outbound_.begin());
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
    [[maybe_unused]] const Slot due = sched_.recycleDueSlot();
    sched_.localReset(now);
    assert(sched_.recycleDueSlot() >= due);
}

void
LoftSourceUnit::tick(Cycle now)
{
    receiveCredits(now);
    // With no frame recycle due, advanceTo would only stamp the
    // advance cycle, which emitLookahead's trySchedule restamps.
    if (params_.slotOf(now) >= recycleDue_) {
        sched_.advanceTo(now);
        recycleDue_ = sched_.recycleDueSlot();
    }
    buildNextQuantum(now);
    emitLookahead(now);
    forwardData(now);
    maybeLocalReset(now);
}

bool
LoftSourceUnit::quiescent() const
{
    // Empty credit wires; nothing queued, segmented or
    // scheduled-but-unsent; and the local-link scheduler parked
    // post-reset (its advanceTo catch-up replays the skipped frames on
    // wake-up).
    return mail() == 0 && queue_.empty() && !pending_ &&
           outbound_.empty() && sched_.quiescent();
}

} // namespace noc
