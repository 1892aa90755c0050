#include "core/data_router.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <tuple>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace noc
{

namespace
{

/**
 * Records a router's arena starts with. On perfbench's workloads a
 * router's live quanta peak at 16-19 on uniform traffic (seeds 1, 2, 3
 * and 11) and at 6 on neighbor traffic, so those routers never grow;
 * the DoS hot spots (up to 91) double in warm-up.
 */
constexpr std::size_t kInitialRecords = 32;

/** Base backoff (cycles) between re-issue attempts of one quantum. */
constexpr Cycle kReissueBackoffCycles = 64;
/** Re-issue attempts before a quantum is dropped and accounted. */
constexpr std::uint32_t kMaxReissues = 8;

} // namespace

LoftDataRouter::LoftDataRouter(NodeId id, const Mesh2D &mesh,
                               const LoftParams &params)
    : id_(id), mesh_(mesh), params_(params),
      table_(params.quantumFlits, kInitialRecords)
{
    params_.validate();
    for (std::size_t p = 0; p < kNumPorts; ++p) {
        outputs_[p].sched = std::make_unique<OutputScheduler>(
            params_, csprintf("router%u.%s.sched", id,
                              portName(static_cast<Port>(p))),
            SchedSite{id, static_cast<std::uint32_t>(p)});
        outputs_[p].dnNonspecFree = params_.centralBufferFlits;
        outputs_[p].dnSpecFree = params_.specBufferFlits;
    }
    reserveLists();
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
    data_in->setReader(this, static_cast<unsigned>(portIndex(p)));
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
    out.recycleDue = 0;
    const auto credit_bit =
        static_cast<unsigned>(kNumPorts + 2 * portIndex(p));
    actual_credit_in->setReader(this, credit_bit);
    virtual_credit_in->setReader(this, credit_bit + 1);
}

bool
LoftDataRouter::admitLookahead(Port in, const LookaheadFlit &la,
                               Cycle now, Cycle schedulable_at)
{
    (void)now;
    // The input reservation table bounds the quanta a port may hold
    // (Table 1: one entry per time-window slot); a full table
    // back-pressures the look-ahead network.
    if (table_.claimed(in) >= params_.windowSlots())
        return false;
    Handle h = table_.find(la.flow, la.quantumNo);
    if (h == InputTable::kNone) {
        h = addRecord(in, la.flow, la.quantumNo,
                      InputTable::State::Claimed);
    } else if (table_[h].state == InputTable::State::Claimed) {
        if (params_.recovery) {
            // The original look-ahead survived after all (e.g. stalled
            // long enough for the timeout to re-synthesize it). The
            // reservation exists; absorb the redundant flit.
            return true;
        }
        panic("router %u: duplicate look-ahead for flow %u quantum %llu",
              id_, la.flow,
              static_cast<unsigned long long>(la.quantumNo));
    } else {
        // Claim the data flits that arrived ahead of this admission.
        if (table_[h].inPort != in)
            panic("router %u: flow %u quantum %llu on two inputs", id_,
                  la.flow, static_cast<unsigned long long>(la.quantumNo));
        table_.claim(h);
    }
    QuantumRecord &rec = table_[h];
    rec.la = la;
    rec.schedulableAt = schedulable_at;
    rec.outPort = xyRoute(mesh_, id_, la.dst);
    // The quantum departs the previous router at la.departureSlot; its
    // last flit is here linkLatency cycles after the slot ends.
    rec.arrivalSlot = la.departureSlot +
        (params_.quantumFlits - 1 + params_.linkLatency) /
            params_.quantumFlits;
    auto &pend = pending_[portIndex(rec.outPort)];
    const auto pos = std::upper_bound(
        pend.begin(), pend.end(), la,
        [this](const LookaheadFlit &a, const PendingEntry &b) {
            return std::tie(a.flow, a.quantumNo) <
                   std::tie(b.flow, table_[b.rec].la.quantumNo);
        });
    pend.insert(pos, PendingEntry{la.flow, h});
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
    // first. pend is ordered by (flow, quantum), so a flow's head is
    // its first entry: walk once around the list from the first flow
    // past the last served one, jumping from head to head. A failed
    // request still moves the flow's scheduler state, so the visiting
    // order is part of the behaviour.
    FlowId &ptr = flowPointer_[portIndex(outp)];
    // First entry at or after @p from whose flow is above @p flow.
    const auto past = [&pend](std::size_t from, FlowId flow) {
        return static_cast<std::size_t>(
            std::upper_bound(pend.begin() + static_cast<std::ptrdiff_t>(from),
                             pend.end(), flow,
                             [](FlowId f, const PendingEntry &e) {
                                 return f < e.flow;
                             }) -
            pend.begin());
    };
    // Each step visits one flow's head and skips the rest of its run;
    // the runs cover the list once, wrapping from its end to its front.
    const std::size_t n = pend.size();
    std::size_t next = 0;
    for (std::size_t at = past(0, ptr) % n, seen = 0; seen < n;
         seen += next - at, at = next % n) {
        next = past(at, pend[at].flow);
        const Handle h = pend[at].rec;
        QuantumRecord &rec = table_[h];
        const FlowId flow = rec.la.flow;

        if (rec.schedulableAt > now)
            continue; // still in the look-ahead router pipeline

        Slot granted;
        if (!sched.trySchedule(flow, now, rec.la.quantumNo,
                               rec.arrivalSlot + stages_slots,
                               granted)) {
            continue; // throttled: stays pending
        }

        rec.departSlot = granted;
        rec.scheduled = true;
        auto &scheduled = outputs_[portIndex(outp)].scheduled;
        const auto pos = slotPosition(portIndex(outp), granted);
        if (pos != scheduled.end() && table_[*pos].departSlot == granted)
            panic("router %u: slot %llu granted twice", id_,
                  static_cast<unsigned long long>(granted));
        scheduled.insert(pos, h);
        // Step 4: return a virtual credit (stamped with the onward
        // departure slot) to the upstream output scheduler.
        InputPort &ip = inputs_[portIndex(rec.inPort)];
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
    for (std::uint32_t m = mail() & kCreditMail; m != 0; m &= m - 1) {
        const auto bit =
            static_cast<std::size_t>(std::countr_zero(m)) - kNumPorts;
        OutputPort &out = outputs_[bit / 2];
        if (bit % 2 == 0) {
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
        } else {
            while (auto c = out.virtualCreditIn->tryReceive(now)) {
                if (!acceptCredit(*c, observer_, id_, now))
                    continue;
                out.sched->onCreditReturn(c->departSlot);
            }
        }
    }
}

void
LoftDataRouter::advanceSchedulers(Cycle now)
{
    // advanceTo with no frame recycle due only stamps the advance
    // cycle, which book() reads after trySchedule's own advanceTo:
    // skipping that call is invisible.
    const Slot now_slot = params_.slotOf(now);
    for (OutputPort &out : outputs_) {
        if (now_slot < out.recycleDue)
            continue;
        out.sched->advanceTo(now);
        out.recycleDue = out.sched->recycleDueSlot();
    }
}

void
LoftDataRouter::receiveData(Cycle now)
{
    for (std::uint32_t m = mail() & kDataMail; m != 0; m &= m - 1) {
        const auto p = static_cast<std::size_t>(std::countr_zero(m));
        InputPort &ip = inputs_[p];
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
            Handle h = table_.find(flit.flow, flit.quantum);
            if (h == InputTable::kNone) {
                // The leading look-ahead is still waiting for a free
                // input-table entry; stage the flit until it lands.
                h = addRecord(static_cast<Port>(p), flit.flow,
                              flit.quantum, InputTable::State::Unclaimed);
                QuantumRecord &u = table_[h];
                u.firstArrival = now;
                u.nextReissueAt = now + params_.lookaheadTimeout();
                // The look-ahead router sleeps unless unclaimed quanta
                // keep its re-issue timer running.
                if (params_.recovery && lookahead_)
                    lookahead_->wake();
            } else if (table_[h].inPort != static_cast<Port>(p)) {
                panic("router %u: flow %u quantum %llu on two inputs",
                      id_, flit.flow,
                      static_cast<unsigned long long>(flit.quantum));
            }
            if (!table_.push(h, BufferedFlit{flit, wf->spec}))
                panic("router %u: flow %u quantum %llu holds more than "
                      "%u flits", id_, flit.flow,
                      static_cast<unsigned long long>(flit.quantum),
                      params_.quantumFlits);
        }
    }
}

LoftDataRouter::Handle
LoftDataRouter::addRecord(Port in, FlowId flow, std::uint64_t quantum,
                          InputTable::State st)
{
    const std::size_t cap = table_.capacity();
    const Handle h = table_.insert(in, flow, quantum, st);
    if (table_.capacity() != cap)
        reserveLists();
    return h;
}

void
LoftDataRouter::reserveLists()
{
    // A list never holds more than the router's live records.
    for (std::size_t p = 0; p < kNumPorts; ++p) {
        outputs_[p].scheduled.reserve(table_.capacity());
        pending_[p].reserve(table_.capacity());
    }
}

std::vector<LoftDataRouter::Handle>::iterator
LoftDataRouter::slotPosition(std::size_t out, Slot slot)
{
    auto &list = outputs_[out].scheduled;
    return std::lower_bound(list.begin(), list.end(), slot,
                            [this](Handle h, Slot s) {
                                return table_[h].departSlot < s;
                            });
}

void
LoftDataRouter::eraseRecord(Handle h)
{
    const QuantumRecord &rec = table_[h];
    if (rec.scheduled) {
        const std::size_t out = portIndex(rec.outPort);
        outputs_[out].scheduled.erase(slotPosition(out, rec.departSlot));
    }
    table_.erase(h);
}

void
LoftDataRouter::forwardFlit(Handle h, std::size_t out, Cycle now,
                            bool emergent)
{
    QuantumRecord &rec = table_[h];
    InputPort &ip = inputs_[portIndex(rec.inPort)];
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

    const BufferedFlit bf = table_.front(h);
    table_.pop(h);
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

    if (rec.forwardedFlits == rec.la.quantumFlits) {
        op.sched->clearBooking(rec.departSlot);
        eraseRecord(h);
    }
}

void
LoftDataRouter::switchOutputs(Cycle now)
{
    const Slot now_slot = params_.slotOf(now);
    for (std::size_t out = 0; out < kNumPorts; ++out) {
        OutputPort &op = outputs_[out];
        // An output with nothing scheduled has no candidate and no
        // missed slot.
        if (!op.dataOut || op.scheduled.empty())
            continue;

        // Emergent candidate: the earliest due quantum (scheduled slot
        // arrived or already missed) that has data. Guaranteed to win
        // arbitration.
        const auto &scheduled = op.scheduled;
        std::size_t i = 0;
        {
            Handle due = InputTable::kNone;
            bool due_dataless = false;
            for (; i < scheduled.size() &&
                   table_[scheduled[i]].departSlot <= now_slot;
                 ++i) {
                if (table_[scheduled[i]].hasData()) {
                    due = scheduled[i];
                    break;
                }
                due_dataless = true; // late data upstream
            }
            if (due != InputTable::kNone) {
                // A quantum that already started early stays in the
                // speculative lane; one starting at its slot uses the
                // tracked non-speculative buffer.
                const QuantumRecord &rec = table_[due];
                const bool needs_spec =
                    rec.forwardedFlits > 0 && rec.sendSpec;
                if (needs_spec ? op.dnSpecFree > 0
                               : op.dnNonspecFree > 0) {
                    forwardFlit(due, out, now, true);
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
        std::array<Handle, kNumPorts> cand{};
        for (; i < scheduled.size() && req != kAllInputs; ++i) {
            const QuantumRecord &rec = table_[scheduled[i]];
            const std::size_t in = portIndex(rec.inPort);
            if (!rec.hasData() || (req >> in & 1u))
                continue;
            req |= std::uint64_t(1) << in;
            cand[in] = scheduled[i];
        }
        const std::size_t win = op.arb.arbitrate(req);
        if (win == RoundRobinArbiter::npos)
            continue;
        forwardFlit(cand[win], out, now, false);
    }
}

void
LoftDataRouter::maybeLocalReset(Cycle now)
{
    if (!params_.localStatusReset)
        return;
    for (std::size_t out = 0; out < kNumPorts; ++out) {
        OutputPort &op = outputs_[out];
        // Section 4.3.2: the downstream non-speculative buffer must be
        // empty (checked through the returned actual credits).
        if (!op.dataOut || op.dnNonspecFree != params_.centralBufferFlits)
            continue;
        if (!op.sched->dirty() || !op.sched->canLocalReset())
            continue;
        [[maybe_unused]] const Slot due = op.sched->recycleDueSlot();
        op.sched->localReset(now);
        // The reset's first recycle, one frame from now, is never
        // earlier than the one it replaces, so recycleDue stays low.
        assert(op.sched->recycleDueSlot() >= due);
    }
}

void
LoftDataRouter::dropQuantum(Handle h, Cycle now)
{
    InputPort &ip = inputs_[portIndex(table_[h].inPort)];
    for (const BufferedFlit &bf : table_.flits(h)) {
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
    table_.erase(h);
}

void
LoftDataRouter::recoverLostLookaheads(Cycle now)
{
    if (!params_.recovery || !table_.anyUnclaimed())
        return;
    // Re-issue in (input, quantum-id) order: re-issues compete for
    // output slots and fire observer events, so arena order would leak
    // into the fingerprint.
    table_.select(sweepScratch_, [now](const QuantumRecord &r) {
        return r.state == InputTable::State::Unclaimed &&
               now >= r.nextReissueAt;
    });
    for (const Handle h : sweepScratch_) {
        QuantumRecord &u = table_[h];
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
        // Re-synthesize only once the quantum is complete; data flits
        // of one quantum arrive in order, so the tail marker or a full
        // quantum's worth of flits closes it. Waiting for the rest of
        // the quantum (e.g. behind a stalled link) does not consume
        // re-issue budget.
        const auto flits = table_.flits(h);
        const BufferedFlit &first = flits.front();
        const BufferedFlit &last = flits.back();
        const bool complete = last.flit.quantumLast ||
                              flits.size() >= params_.quantumFlits;
        if (!complete) {
            u.nextReissueAt = now + kReissueBackoffCycles;
            continue;
        }
        if (u.reissues >= kMaxReissues) {
            dropQuantum(h, now);
            continue;
        }
        ++u.reissues;
        u.nextReissueAt =
            now + (kReissueBackoffCycles
                   << std::min<std::uint32_t>(u.reissues, 6));
        LookaheadFlit la;
        la.flow = first.flit.flow;
        la.src = first.flit.src;
        la.dst = first.flit.dst;
        la.quantumNo = first.flit.quantum;
        la.quantumFlits = static_cast<std::uint32_t>(flits.size());
        la.firstFlitNo = first.flit.flitNo;
        la.packet = first.flit.packet;
        la.createdAt = first.flit.createdAt;
        la.leadsTail = last.flit.isTail();
        // The data is already here: backdate the departure slot so the
        // arrival estimate is immediately satisfied.
        la.departureSlot = params_.slotOf(u.firstArrival);
        // admitLookahead claims the record in place and overwrites its
        // look-ahead, so take what the observer needs by value first.
        const Cycle firstArrival = u.firstArrival;
        if (admitLookahead(u.inPort, la, now, now)) {
            ++laReissues_;
            NOC_OBSERVE(observer_,
                        {.kind = NetEvent::Kind::FaultRecovered,
                         .fault = FaultKind::LookaheadDrop,
                         .node = id_, .injectedAt = firstArrival,
                         .now = now});
        }
    }
}

void
LoftDataRouter::scrubStaleRecords(Cycle now)
{
    const Cycle timeout = params_.scrubTimeout();
    // Sorted by (input, quantum id) before any mutation below.
    table_.select(sweepScratch_, [&](const QuantumRecord &r) {
        return r.state == InputTable::State::Claimed && r.scheduled &&
               !r.hasData() &&
               // A record at its last flit completes this cycle anyway.
               r.forwardedFlits < r.la.quantumFlits &&
               params_.slotStart(r.departSlot) + timeout <= now;
    });
    for (const Handle h : sweepScratch_) {
        const QuantumRecord &rec = table_[h];
        // The remaining data flits of this quantum never arrived
        // (dropped upstream): reclaim the output slot and the
        // input-table entry so the tables re-converge.
        outputs_[portIndex(rec.outPort)].sched->clearBooking(
            rec.departSlot);
        eraseRecord(h);
        ++quantaScrubbed_;
    }
}

void
LoftDataRouter::tick(Cycle now)
{
    receiveCredits(now);
    advanceSchedulers(now);
    receiveData(now);
    switchOutputs(now);
    maybeLocalReset(now);
    if (params_.recovery && now >= nextScrubAt_) {
        nextScrubAt_ = now + params_.scrubPeriod();
        scrubStaleRecords(now);
    }
}

bool
LoftDataRouter::quiescent() const
{
    // Nothing arriving on the data or credit wires; inputs: no live or
    // staged quanta and no buffered flits.
    if (mail() != 0 || !table_.empty())
        return false;
    for (const InputPort &ip : inputs_) {
        if (ip.nonspecUsed != 0 || ip.specUsed != 0)
            return false;
    }
    // Outputs: every scheduler parked (no bookings, no owed credits,
    // reset done) so advanceTo may lag.
    for (const OutputPort &op : outputs_) {
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
