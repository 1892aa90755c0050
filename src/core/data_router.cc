#include "core/data_router.hh"

#include <algorithm>
#include <tuple>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace noc
{

namespace
{

/** First entry of a slot-sorted list whose slot is not below @p slot. */
template <typename List>
auto
slotPosition(List &list, Slot slot)
{
    return std::lower_bound(
        list.begin(), list.end(), slot,
        [](const auto *rec, Slot s) { return rec->departSlot < s; });
}

} // namespace

LoftDataRouter::LoftDataRouter(NodeId id, const Mesh2D &mesh,
                               const LoftParams &params)
    : id_(id), mesh_(mesh), params_(params)
{
    params_.validate();
    // Bound on quanta simultaneously staged without a reservation: the
    // staged flits occupy physical buffer space, so the unclaimed map
    // can never outgrow the buffers' worth of quanta.
    const std::size_t unclaimed_cap =
        params_.bufferQuanta() +
        params_.specBufferFlits / params_.quantumFlits + 1;
    for (std::size_t p = 0; p < kNumPorts; ++p) {
        outputs_[p].sched = std::make_unique<OutputScheduler>(
            params_, csprintf("router%u.%s.sched", id,
                              portName(static_cast<Port>(p))),
            &pool_, SchedSite{id, static_cast<std::uint32_t>(p)});
        outputs_[p].dnNonspecFree = params_.centralBufferFlits;
        outputs_[p].dnSpecFree = params_.specBufferFlits;

        InputPort &ip = inputs_[p];
        // Rebind every node-churning container onto the router's pool
        // (allocators propagate on move assignment), then pre-size the
        // hash tables to their run-bounded key populations so they
        // never rehash mid-run.
        ip.records = decltype(ip.records)(
            0, PoolAlloc<std::pair<const std::uint64_t, QuantumRecord>>(
                   &pool_));
        ip.records.reserve(params_.windowSlots());
        ip.unclaimed = decltype(ip.unclaimed)(
            0,
            PoolAlloc<std::pair<const std::uint64_t, UnclaimedQuantum>>(
                &pool_));
        ip.unclaimed.reserve(unclaimed_cap);
        // Each index list starts with room for eight handles: one
        // 64-byte block, a size class the schedulers' booking-map nodes
        // already draw from this pool, so pre-sizing adds no size class
        // to it. Lists that outgrow it (hot spots) grow through the
        // pool.
        for (PoolVec<QuantumRecord *> *list :
             {&outputs_[p].scheduled, &pending_[p]}) {
            *list = PoolVec<QuantumRecord *>(
                PoolAlloc<QuantumRecord *>(&pool_));
            list->reserve(8);
        }
    }
    // One head entry per distinct flow with pending quanta at an
    // output; every such flow holds a scheduler table entry, so
    // maxFlows bounds the scratch and its growth stays in warm-up.
    headsScratch_.reserve(params_.maxFlows);
}

void
LoftDataRouter::setObserver(NetObserver *obs)
{
    observer_ = obs;
    for (auto &out : outputs_)
        out.sched->setObserver(obs);
}

void
LoftDataRouter::connectInput(Port p, Channel<DataWireFlit> *data_in,
                             Channel<ActualCreditMsg> *actual_credit_out,
                             Channel<VirtualCreditMsg> *virtual_credit_out)
{
    InputPort &in = inputs_[portIndex(p)];
    in.dataIn = data_in;
    in.actualCreditOut = actual_credit_out;
    in.virtualCreditOut = virtual_credit_out;
    data_in->setReader(this);
}

void
LoftDataRouter::connectOutput(Port p, Channel<DataWireFlit> *data_out,
                              Channel<ActualCreditMsg> *actual_credit_in,
                              Channel<VirtualCreditMsg> *virtual_credit_in)
{
    OutputPort &out = outputs_[portIndex(p)];
    out.dataOut = data_out;
    out.actualCreditIn = actual_credit_in;
    out.virtualCreditIn = virtual_credit_in;
    actual_credit_in->setReader(this);
    virtual_credit_in->setReader(this);
}

bool
LoftDataRouter::admitLookahead(Port in, const LookaheadFlit &la,
                               Cycle now, Cycle schedulable_at)
{
    (void)now;
    InputPort &ip = inputs_[portIndex(in)];
    // The input reservation table bounds the quanta a port may hold
    // (Table 1: one entry per time-window slot); a full table
    // back-pressures the look-ahead network.
    if (ip.records.size() >= params_.windowSlots())
        return false;
    const std::uint64_t key = recordKey(la.flow, la.quantumNo);
    if (ip.records.count(key)) {
        if (params_.recovery.enabled) {
            // The original look-ahead survived after all (e.g. stalled
            // long enough for the timeout to re-synthesize it). The
            // reservation exists; absorb the redundant flit.
            return true;
        }
        panic("router %u: duplicate look-ahead for flow %u quantum %llu",
              id_, la.flow,
              static_cast<unsigned long long>(la.quantumNo));
    }
    QuantumRecord &rec = ip.records.try_emplace(key, &pool_).first->second;
    rec.flow = la.flow;
    rec.quantumNo = la.quantumNo;
    rec.expectedFlits = la.quantumFlits;
    rec.dst = la.dst;
    rec.la = la;
    rec.schedulableAt = schedulable_at;
    rec.inPort = in;
    rec.outPort = xyRoute(mesh_, id_, la.dst);
    // The quantum departs the previous router at la.departureSlot; its
    // last flit is here linkLatency cycles after the slot ends.
    rec.arrivalSlot = la.departureSlot +
        (params_.quantumFlits - 1 + params_.linkLatency) /
            params_.quantumFlits;
    auto &pend = pending_[portIndex(rec.outPort)];
    pend.insert(std::upper_bound(pend.begin(), pend.end(), &rec,
                                 [](const QuantumRecord *a,
                                    const QuantumRecord *b) {
                                     return std::tie(a->flow, a->quantumNo) <
                                            std::tie(b->flow, b->quantumNo);
                                 }),
                &rec);
    // Claim any data flits that arrived ahead of this admission.
    auto un = ip.unclaimed.find(key);
    if (un != ip.unclaimed.end()) {
        rec.buffered = std::move(un->second.flits);
        ip.unclaimed.erase(un);
    }
    NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::LookaheadAdmitted,
                            .node = id_, .port = in, .la = la,
                            .now = now});
    return true;
}

bool
LoftDataRouter::schedulePending(Port outp, Cycle now,
                                LookaheadFlit &onward, bool &terminal)
{
    auto &pend = pending_[portIndex(outp)];
    if (pend.empty())
        return false;
    OutputScheduler &sched = *outputs_[portIndex(outp)].sched;
    const Slot stages_slots =
        (params_.routerStages + params_.quantumFlits - 1) /
        params_.quantumFlits;

    // Serve flows round-robin; within a flow, the oldest quantum
    // first. Gather each distinct flow's head entry (pend is ordered
    // by (flow, quantum)), then rotate past the last served flow.
    FlowId &ptr = flowPointer_[portIndex(outp)];
    auto &heads = headsScratch_;
    heads.clear();
    for (std::size_t i = 0; i < pend.size(); ++i)
        if (i == 0 || pend[i]->flow != pend[i - 1]->flow)
            heads.push_back(i);
    std::size_t start = 0;
    while (start < heads.size() && pend[heads[start]]->flow <= ptr)
        ++start;

    for (std::size_t k = 0; k < heads.size(); ++k) {
        const std::size_t at = heads[(start + k) % heads.size()];
        QuantumRecord &rec = *pend[at];
        const FlowId flow = rec.flow;
        InputPort &ip = inputs_[portIndex(rec.inPort)];

        if (rec.schedulableAt > now)
            continue; // still in the look-ahead router pipeline

        Slot granted;
        if (!sched.trySchedule(flow, now, rec.quantumNo,
                               rec.arrivalSlot + stages_slots,
                               granted)) {
            continue; // throttled: stays pending
        }

        rec.departSlot = granted;
        rec.scheduled = true;
        auto &scheduled = outputs_[portIndex(outp)].scheduled;
        const auto pos = slotPosition(scheduled, granted);
        if (pos != scheduled.end() && (*pos)->departSlot == granted)
            panic("router %u: slot %llu granted twice", id_,
                  static_cast<unsigned long long>(granted));
        scheduled.insert(pos, &rec);
        // Step 4: return a virtual credit (stamped with the onward
        // departure slot) to the upstream output scheduler.
        if (ip.virtualCreditOut)
            ip.virtualCreditOut->send(now, VirtualCreditMsg{granted});

        ptr = flow;
        rec.la.departureSlot = granted;
        onward = rec.la;
        terminal = outp == Port::Local;
        NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::QuantumScheduled,
                                .node = id_, .port = outp, .la = rec.la,
                                .slot = granted, .now = now});
        pend.erase(pend.begin() + static_cast<std::ptrdiff_t>(at));
        return true;
    }
    return false;
}

void
LoftDataRouter::receiveCredits(Cycle now)
{
    for (auto &out : outputs_) {
        if (out.actualCreditIn) {
            while (auto c = out.actualCreditIn->tryReceive(now)) {
                if (!acceptCredit(*c, observer_, id_, now))
                    continue;
                if (c->spec)
                    ++out.dnSpecFree;
                else
                    ++out.dnNonspecFree;
                if (out.dnSpecFree > params_.specBufferFlits ||
                    out.dnNonspecFree > params_.centralBufferFlits) {
                    panic("router %u: actual credit overflow", id_);
                }
            }
        }
        if (out.virtualCreditIn) {
            while (auto c = out.virtualCreditIn->tryReceive(now)) {
                if (!acceptCredit(*c, observer_, id_, now))
                    continue;
                out.sched->onCreditReturn(c->departSlot);
            }
        }
    }
}

void
LoftDataRouter::receiveData(Cycle now)
{
    for (std::size_t p = 0; p < kNumPorts; ++p) {
        InputPort &ip = inputs_[p];
        if (!ip.dataIn)
            continue;
        while (auto wf = ip.dataIn->tryReceive(now)) {
            const Flit &flit = wf->flit;
            if (wf->spec) {
                if (ip.specUsed >= params_.specBufferFlits)
                    panic("router %u: speculative buffer overflow", id_);
                ++ip.specUsed;
            } else {
                if (ip.nonspecUsed >= params_.centralBufferFlits)
                    panic("router %u: central buffer overflow "
                          "(scheduling anomaly)", id_);
                ++ip.nonspecUsed;
            }
            NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::FlitArrived,
                                    .node = id_,
                                    .port = static_cast<Port>(p),
                                    .flit = flit, .spec = wf->spec,
                                    .now = now});
            const std::uint64_t key =
                recordKey(flit.flow, flit.quantum);
            auto it = ip.records.find(key);
            if (it == ip.records.end()) {
                // The leading look-ahead is still waiting for a free
                // input-table entry; stage the flit until it lands.
                auto [un, staged] = ip.unclaimed.try_emplace(key, &pool_);
                if (staged) {
                    un->second.firstArrival = now;
                    un->second.nextReissueAt =
                        now + params_.lookaheadTimeout();
                }
                un->second.flits.push_back(
                    BufferedFlit{flit, wf->spec});
                continue;
            }
            it->second.buffered.push_back(BufferedFlit{flit, wf->spec});
        }
    }
}

void
LoftDataRouter::eraseRecord(std::size_t in, QuantumRecord &rec)
{
    if (rec.scheduled) {
        auto &scheduled = outputs_[portIndex(rec.outPort)].scheduled;
        scheduled.erase(slotPosition(scheduled, rec.departSlot));
    }
    inputs_[in].records.erase(recordKey(rec.flow, rec.quantumNo));
}

void
LoftDataRouter::forwardFlit(std::size_t in, QuantumRecord &rec,
                            std::size_t out, Cycle now, bool emergent)
{
    InputPort &ip = inputs_[in];
    OutputPort &op = outputs_[out];

    // Decide the downstream buffer: a quantum switched starting at its
    // scheduled slot is in order and enters the non-speculative buffer,
    // whose occupancy the reservation tables track; a quantum forwarded
    // ahead of schedule is out of (time) order and must use the
    // speculative buffer (Section 4.3.1 - with spec size 0 all early
    // forwarding is disabled). The choice is made at the quantum's
    // first flit and is sticky (the quantum is the scheduling unit).
    if (rec.forwardedFlits == 0)
        rec.sendSpec = !emergent;
    const bool to_spec = rec.sendSpec;

    if (to_spec ? op.dnSpecFree == 0 : op.dnNonspecFree == 0)
        panic("router %u: forwardFlit without downstream space", id_);

    BufferedFlit bf = rec.buffered.front();
    rec.buffered.pop_front();
    op.dataOut->send(now, DataWireFlit{bf.flit, to_spec});
    if (to_spec)
        --op.dnSpecFree;
    else
        --op.dnNonspecFree;

    // Free this router's buffer slot and tell upstream.
    if (bf.spec) {
        if (ip.specUsed == 0)
            panic("router %u: spec buffer underflow", id_);
        --ip.specUsed;
    } else {
        if (ip.nonspecUsed == 0)
            panic("router %u: central buffer underflow", id_);
        --ip.nonspecUsed;
    }
    if (ip.actualCreditOut)
        ip.actualCreditOut->send(now, ActualCreditMsg{bf.spec});

    ++rec.forwardedFlits;
    op.lastForward = now;
    ++op.flitsForwarded;
    NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::FlitForwarded,
                            .node = id_, .port = static_cast<Port>(out),
                            .flit = bf.flit, .spec = to_spec,
                            .now = now});
    DPRINTF(Data, now, "router %u: flow %u flit %llu out %s (%s)",
            id_, bf.flit.flow,
            static_cast<unsigned long long>(bf.flit.flitNo),
            portName(static_cast<Port>(out)),
            emergent ? "emergent" : "speculative");
    if (emergent)
        ++emergentForwards_;
    else
        ++specForwards_;

    if (rec.forwardedFlits == rec.expectedFlits) {
        op.sched->clearBooking(rec.departSlot);
        eraseRecord(in, rec);
    }
}

void
LoftDataRouter::switchOutputs(Cycle now)
{
    const Slot now_slot = params_.slotOf(now);
    for (std::size_t out = 0; out < kNumPorts; ++out) {
        OutputPort &op = outputs_[out];
        if (!op.dataOut)
            continue;

        // Emergent candidate: the earliest due quantum (scheduled slot
        // arrived or already missed) that has data. Guaranteed to win
        // arbitration.
        const auto &scheduled = op.scheduled;
        std::size_t i = 0;
        {
            QuantumRecord *due = nullptr;
            bool due_dataless = false;
            for (; i < scheduled.size() &&
                   scheduled[i]->departSlot <= now_slot;
                 ++i) {
                if (!scheduled[i]->buffered.empty()) {
                    due = scheduled[i];
                    break;
                }
                due_dataless = true; // late data upstream
            }
            if (due) {
                // A quantum that already started early stays in the
                // speculative lane; one starting at its slot uses the
                // tracked non-speculative buffer.
                const bool needs_spec =
                    due->forwardedFlits > 0 && due->sendSpec;
                if (needs_spec ? op.dnSpecFree > 0
                               : op.dnNonspecFree > 0) {
                    forwardFlit(portIndex(due->inPort), *due, out, now,
                                true);
                    continue;
                }
                // Downstream has no space: the scheduled switching
                // time is missed (for the non-speculative buffer this
                // is only possible when the anomaly guard is disabled,
                // Section 4.2).
                ++missedSlots_;
                NOC_OBSERVE(observer_,
                            {.kind = NetEvent::Kind::MissedSlot,
                             .node = id_, .port = static_cast<Port>(out),
                             .now = now});
                continue;
            }
            if (due_dataless) {
                ++missedSlots_;
                NOC_OBSERVE(observer_,
                            {.kind = NetEvent::Kind::MissedSlot,
                             .node = id_, .port = static_cast<Port>(out),
                             .now = now});
            }
        }

        // Speculative switching: forward a ready flit ahead of its
        // scheduled time if the link is otherwise idle.
        if (!params_.speculativeSwitching)
            continue;
        if (op.dnSpecFree == 0)
            continue; // early forwards need speculative buffer space
        // Every due entry is behind i: each input offers its earliest
        // ready record among the rest.
        constexpr std::uint64_t kAllInputs = (1u << kNumPorts) - 1;
        std::uint64_t req = 0;
        std::array<QuantumRecord *, kNumPorts> cand{};
        for (; i < scheduled.size() && req != kAllInputs; ++i) {
            QuantumRecord *rec = scheduled[i];
            const std::size_t in = portIndex(rec->inPort);
            if (rec->buffered.empty() || (req >> in & 1u))
                continue;
            req |= std::uint64_t(1) << in;
            cand[in] = rec;
        }
        const std::size_t win = op.arb.arbitrate(req);
        if (win == RoundRobinArbiter::npos)
            continue;
        forwardFlit(win, *cand[win], out, now, false);
    }
}

void
LoftDataRouter::maybeLocalReset(Cycle now)
{
    if (!params_.localStatusReset)
        return;
    for (std::size_t out = 0; out < kNumPorts; ++out) {
        OutputPort &op = outputs_[out];
        if (!op.dataOut)
            continue;
        if (!op.sched->dirty() || !op.sched->canLocalReset())
            continue;
        // Section 4.3.2: the downstream non-speculative buffer must be
        // empty (checked through the returned actual credits).
        if (op.dnNonspecFree != params_.centralBufferFlits)
            continue;
        op.sched->localReset(now);
    }
}

void
LoftDataRouter::dropQuantumFlits(std::size_t in, FlitFifo &flits,
                                 Cycle now)
{
    InputPort &ip = inputs_[in];
    for (BufferedFlit &bf : flits) {
        if (bf.spec) {
            if (ip.specUsed == 0)
                panic("router %u: spec buffer underflow (drop)", id_);
            --ip.specUsed;
        } else {
            if (ip.nonspecUsed == 0)
                panic("router %u: central buffer underflow (drop)", id_);
            --ip.nonspecUsed;
        }
        if (ip.actualCreditOut)
            ip.actualCreditOut->send(now, ActualCreditMsg{bf.spec});
        NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::FlitDropped,
                                .node = id_, .flit = bf.flit,
                                .now = now});
    }
    flits.clear();
}

void
LoftDataRouter::recoverLostLookaheads(Cycle now)
{
    if (!params_.recovery.enabled)
        return;
    for (std::size_t p = 0; p < kNumPorts; ++p) {
        InputPort &ip = inputs_[p];
        if (ip.unclaimed.empty())
            continue;
        recoveryScratch_.clear();
        // Key-collection only; the sort below erases the hash order
        // before anything observable happens.
        for (const auto &[key, u] : ip.unclaimed)
            if (now >= u.nextReissueAt && !u.flits.empty())
                recoveryScratch_.push_back(key);
        // Re-issue in quantum-id order: re-issues compete for output
        // slots and fire observer events, so hash order would leak
        // into the fingerprint.
        std::sort(recoveryScratch_.begin(), recoveryScratch_.end());
        for (std::uint64_t key : recoveryScratch_) {
            auto it = ip.unclaimed.find(key);
            if (it == ip.unclaimed.end())
                continue;
            UnclaimedQuantum &u = it->second;
            if (!u.detected) {
                // Timeout fired: the reservation for this data never
                // materialized — the look-ahead flit must be lost.
                u.detected = true;
                NOC_OBSERVE(observer_,
                            {.kind = NetEvent::Kind::FaultDetected,
                             .fault = FaultKind::LookaheadDrop,
                             .node = id_, .injectedAt = u.firstArrival,
                             .now = now});
            }
            // Re-synthesize only once the quantum is complete; data
            // flits of one quantum arrive in order, so the tail marker
            // or a full quantum's worth of flits closes it. Waiting for
            // the rest of the quantum (e.g. behind a stalled link) does
            // not consume re-issue budget.
            const BufferedFlit &first = u.flits.front();
            const BufferedFlit &last = u.flits.back();
            const bool complete =
                last.flit.quantumLast ||
                u.flits.size() >= params_.quantumFlits;
            if (!complete) {
                u.nextReissueAt =
                    now + params_.recovery.reissueBackoffCycles;
                continue;
            }
            if (u.reissues >= params_.recovery.maxReissues) {
                dropQuantumFlits(p, u.flits, now);
                ip.unclaimed.erase(it);
                continue;
            }
            ++u.reissues;
            u.nextReissueAt =
                now + (params_.recovery.reissueBackoffCycles
                       << std::min<std::uint32_t>(u.reissues, 6));
            LookaheadFlit la;
            la.flow = first.flit.flow;
            la.src = first.flit.src;
            la.dst = first.flit.dst;
            la.quantumNo = first.flit.quantum;
            la.quantumFlits =
                static_cast<std::uint32_t>(u.flits.size());
            la.firstFlitNo = first.flit.flitNo;
            la.packet = first.flit.packet;
            la.createdAt = first.flit.createdAt;
            la.leadsTail = last.flit.isTail();
            // The data is already here: backdate the departure slot so
            // the arrival estimate is immediately satisfied.
            la.departureSlot = params_.slotOf(u.firstArrival);
            // admitLookahead claims the staged flits and erases the
            // unclaimed entry on success; `it`/`u` are dead after the
            // call, so take what the observer needs by value first.
            [[maybe_unused]] const Cycle firstArrival = u.firstArrival;
            if (admitLookahead(static_cast<Port>(p), la, now, now)) {
                ++laReissues_;
                NOC_OBSERVE(observer_,
                            {.kind = NetEvent::Kind::FaultRecovered,
                             .fault = FaultKind::LookaheadDrop,
                             .node = id_, .injectedAt = firstArrival,
                             .now = now});
            }
        }
    }
}

void
LoftDataRouter::scrubStaleRecords(Cycle now)
{
    const Cycle timeout = params_.scrubTimeout();
    for (std::size_t p = 0; p < kNumPorts; ++p) {
        InputPort &ip = inputs_[p];
        if (ip.records.empty())
            continue;
        recoveryScratch_.clear();
        // Key-collection only; sorted before any mutation below.
        for (const auto &[key, rec] : ip.records) {
            if (!rec.scheduled || !rec.buffered.empty())
                continue;
            if (rec.forwardedFlits >= rec.expectedFlits)
                continue; // completes this cycle anyway
            if (params_.slotStart(rec.departSlot) + timeout <= now)
                recoveryScratch_.push_back(key);
        }
        std::sort(recoveryScratch_.begin(), recoveryScratch_.end());
        for (std::uint64_t key : recoveryScratch_) {
            QuantumRecord &rec = ip.records.at(key);
            // The remaining data flits of this quantum never arrived
            // (dropped upstream): reclaim the output slot and the
            // input-table entry so the tables re-converge.
            outputs_[portIndex(rec.outPort)].sched->clearBooking(
                rec.departSlot);
            eraseRecord(p, rec);
            ++quantaScrubbed_;
        }
    }
}

void
LoftDataRouter::tick(Cycle now)
{
    receiveCredits(now);
    for (auto &out : outputs_) {
        if (out.dataOut)
            out.sched->advanceTo(now);
    }
    receiveData(now);
    switchOutputs(now);
    maybeLocalReset(now);
    if (params_.recovery.enabled && now >= nextScrubAt_) {
        nextScrubAt_ = now + params_.scrubPeriod();
        scrubStaleRecords(now);
    }
    // The look-ahead router's quiescent() reads this router's pending
    // and unclaimed quanta, which this tick may have changed.
    if (lookahead_)
        lookahead_->wake();
}

bool
LoftDataRouter::quiescent() const
{
    // Inputs: no live or staged quanta, no buffered flits, and nothing
    // arriving on the data or credit wires.
    for (const InputPort &ip : inputs_) {
        if (!ip.records.empty() || !ip.unclaimed.empty())
            return false;
        if (ip.nonspecUsed != 0 || ip.specUsed != 0)
            return false;
        if (ip.dataIn && !ip.dataIn->empty())
            return false;
    }
    // Outputs: no incoming credits and every scheduler parked (no
    // bookings, no owed credits, reset done) so advanceTo may lag.
    for (const OutputPort &op : outputs_) {
        if (op.actualCreditIn && !op.actualCreditIn->empty())
            return false;
        if (op.virtualCreditIn && !op.virtualCreditIn->empty())
            return false;
        if (op.dataOut && !op.sched->quiescent())
            return false;
    }
    for (const auto &p : pending_)
        if (!p.empty())
            return false;
    return true;
}

std::uint64_t
LoftDataRouter::bufferedFlits() const
{
    std::uint64_t total = 0;
    for (const auto &ip : inputs_)
        total += ip.nonspecUsed + ip.specUsed;
    return total;
}

std::uint64_t
LoftDataRouter::anomalyViolations() const
{
    std::uint64_t total = 0;
    for (const auto &out : outputs_)
        total += out.sched->anomalyViolations();
    return total;
}

} // namespace noc
