#include "reference_network_auditor.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

#include "core/output_scheduler.hh"

namespace noc
{

namespace
{

/** printf-style helper for violation detail strings. */
std::string
detailf(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

} // namespace

ReferenceNetworkAuditor::ReferenceNetworkAuditor(Network &net,
                                                 AuditConfig config)
    : net_(&net), cfg_(config)
{
}

void
ReferenceNetworkAuditor::record(AuditKind kind, Cycle now, std::string detail)
{
    ++counts_[static_cast<std::size_t>(kind)];
    if (recorded_.size() < cfg_.maxRecorded)
        recorded_.emplace_back(kind, now, std::move(detail));
}

std::uint64_t
ReferenceNetworkAuditor::countOf(AuditKind kind) const
{
    return counts_[static_cast<std::size_t>(kind)];
}

// ---------------------------------------------------------------------
// Flit-conservation ledger
// ---------------------------------------------------------------------

void
ReferenceNetworkAuditor::noteMovement(NodeId node, FlowId flow, Cycle now)
{
    lastMovement_ = now;
    flowLastMovement_[flow] = now;
    nodeLastMovement_[node] = now;
}

void
ReferenceNetworkAuditor::onFlitSourced(NodeId node, const Flit &flit,
                                       bool spec, Cycle now)
{
    auto [it, inserted] =
        ledger_.try_emplace({flit.flow, flit.flitNo},
                            FlitState{node, true, spec, now});
    if (!inserted)
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu sourced twice (node %u, "
                       "first seen at node %u)", flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node, it->second.at));
    noteMovement(node, flit.flow, now);
}

void
ReferenceNetworkAuditor::onFlitArrived(NodeId node, Port, const Flit &flit,
                                       bool spec, Cycle now)
{
    auto it = ledger_.find({flit.flow, flit.flitNo});
    if (it == ledger_.end()) {
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu arrived at node %u but was "
                       "never sourced (duplication?)", flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node));
        it = ledger_.emplace(LedgerKey{flit.flow, flit.flitNo},
                             FlitState{}).first;
    } else if (!it->second.inFlight) {
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu arrived at node %u while "
                       "still buffered at node %u", flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node, it->second.at));
    }
    it->second = FlitState{node, false, spec, now};
    noteMovement(node, flit.flow, now);

    // FRS consistency: a non-speculative data flit must redeem a prior
    // look-ahead reservation at this node. Speculative flits run ahead
    // of their look-ahead by design and are exempt.
    if (loftProtocol_ && !spec) {
        const QuantumKey key{node, flit.flow, flit.quantum};
        if (expected_.count(key) == 0 && suspicions_.count(key) == 0)
            suspicions_.emplace(key, now);
    }
    if (flit.quantumLast)
        expected_.erase(QuantumKey{node, flit.flow, flit.quantum});
}

void
ReferenceNetworkAuditor::onFlitForwarded(NodeId node, Port, const Flit &flit,
                                         bool spec, Cycle now)
{
    auto it = ledger_.find({flit.flow, flit.flitNo});
    if (it == ledger_.end()) {
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu forwarded by node %u but "
                       "is unknown to the ledger", flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node));
        it = ledger_.emplace(LedgerKey{flit.flow, flit.flitNo},
                             FlitState{}).first;
    } else if (it->second.inFlight) {
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu forwarded by node %u while "
                       "already in flight from node %u", flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node, it->second.at));
    } else if (it->second.at != node) {
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu forwarded by node %u but "
                       "buffered at node %u", flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node, it->second.at));
    }
    it->second = FlitState{node, true, spec, now};
    noteMovement(node, flit.flow, now);
}

void
ReferenceNetworkAuditor::onFlitEjected(NodeId node, const Flit &flit,
                                       Cycle now)
{
    auto it = ledger_.find({flit.flow, flit.flitNo});
    if (it == ledger_.end()) {
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu ejected at node %u but is "
                       "unknown to the ledger (duplicate ejection?)",
                       flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node));
    } else {
        ledger_.erase(it);
    }
    if (flit.dst != node)
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu ejected at node %u but "
                       "addressed to node %u", flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node, flit.dst));
    noteMovement(node, flit.flow, now);
}

void
ReferenceNetworkAuditor::onFlitDropped(NodeId node, const Flit &flit,
                                       Cycle now)
{
    // Recovery gave up on the flit's quantum: an accounted exit, not a
    // conservation leak — retire the ledger entry so drain checks and
    // the watchdog stay meaningful.
    auto it = ledger_.find({flit.flow, flit.flitNo});
    if (it == ledger_.end()) {
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu dropped at node %u but is "
                       "unknown to the ledger", flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node));
    } else {
        ledger_.erase(it);
    }
    noteMovement(node, flit.flow, now);
}

// ---------------------------------------------------------------------
// Look-ahead reservations
// ---------------------------------------------------------------------

void
ReferenceNetworkAuditor::onLookaheadAdmitted(NodeId node, Port,
                                             const LookaheadFlit &la,
                                             Cycle now)
{
    loftProtocol_ = true;
    const QuantumKey key{node, la.flow, la.quantumNo};
    expected_[key] = ExpectedQuantum{la.quantumFlits, now};

    // A non-spec arrival only marginally ahead of this admission is a
    // tick-ordering artifact between the look-ahead and data planes,
    // not a protocol violation.
    auto sus = suspicions_.find(key);
    if (sus != suspicions_.end() &&
        now <= sus->second + kReservationGrace)
        suspicions_.erase(sus);
}

void
ReferenceNetworkAuditor::onNiQuantumScheduled(NodeId node,
                                              const LookaheadFlit &la, Slot,
                                              Cycle now)
{
    // The NI's quantum will arrive at the node's own router; treat the
    // NI grant as the reservation justifying that first hop.
    loftProtocol_ = true;
    expected_[QuantumKey{node, la.flow, la.quantumNo}] =
        ExpectedQuantum{la.quantumFlits, now};
}

void
ReferenceNetworkAuditor::matureSuspicions(Cycle now)
{
    for (auto it = suspicions_.begin(); it != suspicions_.end();) {
        if (now <= it->second + kReservationGrace) {
            ++it;
            continue;
        }
        const auto &[node, flow, quantum] = it->first;
        record(AuditKind::Reservation, it->second,
               detailf("node %u: non-speculative data of flow %u "
                       "quantum %llu arrived without a look-ahead "
                       "reservation", node, flow,
                       static_cast<unsigned long long>(quantum)));
        it = suspicions_.erase(it);
    }
}

// ---------------------------------------------------------------------
// Output-scheduler shadow state
// ---------------------------------------------------------------------

ReferenceNetworkAuditor::SchedShadow &
ReferenceNetworkAuditor::shadowOf(const OutputScheduler &sched)
{
    auto [it, first_seen] =
        shadowIndex_.try_emplace(&sched, shadows_.size());
    if (first_seen) {
        shadows_.emplace_back().sched = &sched;
        if (frameCycles_ == 0)
            frameCycles_ = sched.params().frameSizeFlits;
    }
    return shadows_[it->second];
}

void
ReferenceNetworkAuditor::onSchedFlowRegistered(const OutputScheduler &sched,
                                               FlowId flow,
                                               std::uint32_t quanta)
{
    shadowOf(sched).reservations[flow] = quanta;
}

void
ReferenceNetworkAuditor::onSchedGrant(const OutputScheduler &sched,
                                      FlowId flow, std::uint64_t quantum_no,
                                      Slot abs_slot, std::uint64_t frame,
                                      Cycle now)
{
    auto &sh = shadowOf(sched);
    auto [it, inserted] =
        sh.bookings.try_emplace(abs_slot, SlotBooking{flow, quantum_no});
    if (!inserted)
        record(AuditKind::StateMismatch, now,
               detailf("%s: slot %llu granted to flow %u while still "
                       "booked by flow %u", sched.name().c_str(),
                       static_cast<unsigned long long>(abs_slot), flow,
                       it->second.flow));

    // Per-frame R_ij budget (condition (1) precondition): a flow may
    // take at most r slots per injection frame, and a frame may hand
    // out at most frameSlots grants in total. A flow registered before
    // the auditor attached has an unknown budget — skip that check.
    const auto r = sh.reservations.find(flow);
    const std::uint32_t budget = r == sh.reservations.end()
                                     ? std::uint32_t(-1)
                                     : r->second;
    if (++sh.frameGrants[{frame, flow}] > budget)
        record(AuditKind::Anomaly, now,
               detailf("%s: flow %u took %u grants in frame %llu, "
                       "reservation is %u", sched.name().c_str(), flow,
                       sh.frameGrants[{frame, flow}],
                       static_cast<unsigned long long>(frame), budget));
    if (++sh.frameTotals[frame] > sched.params().frameSlots())
        record(AuditKind::Anomaly, now,
               detailf("%s: frame %llu over-committed (%u grants > "
                       "%u slots)", sched.name().c_str(),
                       static_cast<unsigned long long>(frame),
                       sh.frameTotals[frame],
                       sched.params().frameSlots()));
}

void
ReferenceNetworkAuditor::onSchedBookingCleared(const OutputScheduler &sched,
                                               Slot abs_slot)
{
    shadowOf(sched).bookings.erase(abs_slot);
}

void
ReferenceNetworkAuditor::onSchedCreditNegative(const OutputScheduler &sched,
                                               Cycle now)
{
    // With the guard disabled (ablation runs) negative credits are the
    // expected, documented consequence — only flag guarded schedulers.
    if (sched.params().anomalyGuard)
        record(AuditKind::Anomaly, now,
               detailf("%s: booking drove a virtual credit negative "
                       "despite condition (1)", sched.name().c_str()));
}

void
ReferenceNetworkAuditor::onSchedLocalReset(const OutputScheduler &sched, Cycle)
{
    // A local status reset rebases the scheduler's slot origin and
    // frame count; the replayed history no longer applies.
    auto &sh = shadowOf(sched);
    sh.bookings.clear();
    sh.frameGrants.clear();
    sh.frameTotals.clear();
}

// ---------------------------------------------------------------------
// Deep audit + watchdog
// ---------------------------------------------------------------------

Cycle
ReferenceNetworkAuditor::deepAuditPeriod() const
{
    if (cfg_.deepAuditPeriod)
        return cfg_.deepAuditPeriod;
    return frameCycles_ ? frameCycles_ : 1024;
}

void
ReferenceNetworkAuditor::tick(Cycle now)
{
    if (now < nextDeepAudit_)
        return;
    deepAudit(now);
    nextDeepAudit_ = now + deepAuditPeriod();
}

void
ReferenceNetworkAuditor::auditScheduler(SchedShadow &sh, Cycle now)
{
    const OutputScheduler &sched = *sh.sched;
    const Slot wstart = sched.windowStartAbsSlot();
    const Slot wend = sched.windowEndAbsSlot();

    // Every live booking must match the shadow replayed from grant /
    // clear events. (The converse is not checked: Algorithm 3 recycles
    // stale bookings of expired frames without an event.)
    sched.forEachBooking([&](Slot abs, const SlotBooking &actual) {
        auto it = sh.bookings.find(abs);
        if (it == sh.bookings.end()) {
            record(AuditKind::StateMismatch, now,
                   detailf("%s: slot %llu booked by flow %u but no "
                           "grant was observed", sched.name().c_str(),
                           static_cast<unsigned long long>(abs),
                           actual.flow));
        } else if (it->second.flow != actual.flow ||
                   it->second.quantumNo != actual.quantumNo) {
            record(AuditKind::StateMismatch, now,
                   detailf("%s: slot %llu holds flow %u quantum %llu, "
                           "granted to flow %u quantum %llu",
                           sched.name().c_str(),
                           static_cast<unsigned long long>(abs),
                           actual.flow,
                           static_cast<unsigned long long>(
                               actual.quantumNo),
                           it->second.flow,
                           static_cast<unsigned long long>(
                               it->second.quantumNo)));
        }
    });

    // Theorem I: under condition (1) no slot's cumulative virtual
    // credit is ever negative.
    if (sched.params().anomalyGuard) {
        for (Slot s = wstart; s < wend; ++s) {
            const std::int32_t credit = sched.virtualCreditAt(s);
            if (credit < 0)
                record(AuditKind::Credit, now,
                       detailf("%s: virtual credit of slot %llu is %d",
                               sched.name().c_str(),
                               static_cast<unsigned long long>(s),
                               credit));
        }
    }

    // Prune shadow state the scheduler has moved past.
    sh.bookings.erase(sh.bookings.begin(),
                      sh.bookings.lower_bound(wstart));
    const std::uint64_t head = sched.headFrame();
    sh.frameGrants.erase(sh.frameGrants.begin(),
                         sh.frameGrants.lower_bound({head, 0}));
    sh.frameTotals.erase(sh.frameTotals.begin(),
                         sh.frameTotals.lower_bound(head));
}

void
ReferenceNetworkAuditor::runWatchdog(Cycle now)
{
    if (ledger_.empty() || now < lastMovement_ + cfg_.watchdogWindow)
        return;
    std::set<FlowId> stuck;
    for (const auto &[key, st] : ledger_) {
        (void)st;
        if (now >= flowLastMovement_[key.first] + cfg_.watchdogWindow)
            stuck.insert(key.first);
    }
    std::ostringstream flows;
    for (FlowId f : stuck)
        flows << " " << f;
    // Per-node forensics: where flits last moved, oldest first, so a
    // watchdog report points at the routers that went quiet first.
    std::vector<std::pair<Cycle, NodeId>> idle;
    idle.reserve(nodeLastMovement_.size());
    for (const auto &[node, at] : nodeLastMovement_)
        idle.emplace_back(at, node);
    std::sort(idle.begin(), idle.end());
    std::ostringstream nodes;
    const std::size_t shown = std::min<std::size_t>(idle.size(), 8);
    for (std::size_t i = 0; i < shown; ++i)
        nodes << " node " << idle[i].second << "@" << idle[i].first;
    if (idle.size() > shown)
        nodes << " (+" << idle.size() - shown << " more)";
    record(AuditKind::Watchdog, now,
           detailf("no flit movement for %llu cycles with %zu flit(s) "
                   "in flight; stalled flows:%s; last movement:%s",
                   static_cast<unsigned long long>(now - lastMovement_),
                   ledger_.size(), flows.str().c_str(),
                   nodes.str().c_str()));
    lastMovement_ = now; // re-arm instead of repeating every audit
}

void
ReferenceNetworkAuditor::deepAudit(Cycle now)
{
    matureSuspicions(now);
    for (SchedShadow &sh : shadows_)
        auditScheduler(sh, now);
    runWatchdog(now);

    // Bound reservation-tracking memory: quanta whose last flit was
    // dropped from a speculative buffer never redeem their entry.
    const Cycle horizon = 8 * deepAuditPeriod();
    for (auto it = expected_.begin(); it != expected_.end();) {
        if (it->second.admitted + horizon < now)
            it = expected_.erase(it);
        else
            ++it;
    }
}

void
ReferenceNetworkAuditor::finalCheck(Cycle now)
{
    matureSuspicions(now + kReservationGrace + 1);
    for (SchedShadow &sh : shadows_)
        auditScheduler(sh, now);
    if (net_->flitsInFlight() == 0 && !ledger_.empty()) {
        const auto &[key, st] = *ledger_.begin();
        record(AuditKind::Conservation, now,
               detailf("network drained but %zu flit(s) unaccounted "
                       "for, first: flow %u flit %llu last seen at "
                       "node %u", ledger_.size(), key.first,
                       static_cast<unsigned long long>(key.second),
                       st.at));
    }
}

} // namespace noc
