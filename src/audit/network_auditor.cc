#include "audit/network_auditor.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <sstream>
#include <utility>

#include "core/output_scheduler.hh"
#include "sim/logging.hh"

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

const char *
auditKindName(AuditKind kind)
{
    switch (kind) {
      case AuditKind::Conservation:
        return "Conservation";
      case AuditKind::Reservation:
        return "Reservation";
      case AuditKind::Credit:
        return "Credit";
      case AuditKind::Anomaly:
        return "Anomaly";
      case AuditKind::StateMismatch:
        return "StateMismatch";
      case AuditKind::Watchdog:
        return "Watchdog";
    }
    return "?";
}

NetworkAuditor::NetworkAuditor(Network &net, AuditConfig config)
    : net_(&net), cfg_(config),
      shadows_(net.mesh().numNodes() * kNumLanes)
{
    net.setObserver(this);
}

void
NetworkAuditor::record(AuditKind kind, Cycle now, std::string detail)
{
    ++counts_[static_cast<std::size_t>(kind)];
    if (recorded_.size() < cfg_.maxRecorded) {
        if (postmortem_) {
            const std::string dump = postmortem_(kind, now);
            if (!dump.empty())
                detail += "; flight recorder: " + dump;
        }
        recorded_.emplace_back(kind, now, std::move(detail));
    }
}

std::uint64_t
NetworkAuditor::violationCount() const
{
    std::uint64_t total = 0;
    for (auto c : counts_)
        total += c;
    return total;
}

std::uint64_t
NetworkAuditor::hardViolationCount() const
{
    return violationCount() - countOf(AuditKind::Watchdog);
}

std::uint64_t
NetworkAuditor::countOf(AuditKind kind) const
{
    return counts_[static_cast<std::size_t>(kind)];
}

std::string
NetworkAuditor::report() const
{
    std::ostringstream os;
    os << "audit: " << violationCount() << " violation(s), "
       << hardViolationCount() << " hard\n";
    for (std::size_t k = 0; k < kNumAuditKinds; ++k) {
        if (counts_[k])
            os << "  " << auditKindName(static_cast<AuditKind>(k))
               << ": " << counts_[k] << "\n";
    }
    for (const auto &v : recorded_)
        os << "  [" << v.cycle << "] " << auditKindName(v.kind) << ": "
           << v.detail << "\n";
    if (violationCount() > recorded_.size())
        os << "  ... " << (violationCount() - recorded_.size())
           << " more not recorded\n";
    return os.str();
}

// ---------------------------------------------------------------------
// Flit-conservation ledger
// ---------------------------------------------------------------------

void
NetworkAuditor::noteMovement(NodeId node, FlowId flow, Cycle now)
{
    lastMovement_ = now;
    flowLastMovement_[flow] = now;
    nodeLastMovement_[node] = now;
}

void
NetworkAuditor::onFlitSourced(NodeId node, const Flit &flit, bool,
                              Cycle now)
{
    const auto [st, inserted] = ledger_.tryEmplace(
        FlitKey{flit.flow, flit.flitNo}, FlitState{node, true});
    if (!inserted)
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu sourced twice (node %u, "
                       "first seen at node %u)", flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node, st->at));
    noteMovement(node, flit.flow, now);
}

void
NetworkAuditor::onFlitArrived(NodeId node, Port, const Flit &flit,
                              bool spec, Cycle now)
{
    const auto [st, fresh] =
        ledger_.tryEmplace(FlitKey{flit.flow, flit.flitNo});
    if (fresh) {
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu arrived at node %u but was "
                       "never sourced (duplication?)", flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node));
    } else if (!st->inFlight) {
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu arrived at node %u while "
                       "still buffered at node %u", flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node, st->at));
    }
    *st = FlitState{node, false};
    noteMovement(node, flit.flow, now);

    // FRS consistency: a non-speculative data flit must redeem a prior
    // look-ahead reservation at this node. Speculative flits run ahead
    // of their look-ahead by design and are exempt.
    const QuantumKey key{node, flit.flow, flit.quantum};
    if (loftProtocol_ && !spec && !expected_.contains(key)) {
        const auto pos = std::lower_bound(
            suspicions_.begin(), suspicions_.end(), key,
            [](const Suspicion &s, const QuantumKey &k) {
                return s.key < k;
            });
        if (pos == suspicions_.end() || pos->key != key)
            suspicions_.insert(pos, Suspicion{key, now});
    }
    if (flit.quantumLast)
        expected_.erase(key);
}

void
NetworkAuditor::onFlitForwarded(NodeId node, Port, const Flit &flit,
                                bool, Cycle now)
{
    const auto [st, fresh] =
        ledger_.tryEmplace(FlitKey{flit.flow, flit.flitNo});
    if (fresh) {
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu forwarded by node %u but "
                       "is unknown to the ledger", flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node));
    } else if (st->inFlight) {
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu forwarded by node %u while "
                       "already in flight from node %u", flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node, st->at));
    } else if (st->at != node) {
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu forwarded by node %u but "
                       "buffered at node %u", flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node, st->at));
    }
    *st = FlitState{node, true};
    noteMovement(node, flit.flow, now);
}

void
NetworkAuditor::onFlitEjected(NodeId node, const Flit &flit, Cycle now)
{
    if (!ledger_.erase(FlitKey{flit.flow, flit.flitNo}))
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu ejected at node %u but is "
                       "unknown to the ledger (duplicate ejection?)",
                       flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node));
    if (flit.dst != node)
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu ejected at node %u but "
                       "addressed to node %u", flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node, flit.dst));
    noteMovement(node, flit.flow, now);
}

void
NetworkAuditor::onFlitDropped(NodeId node, const Flit &flit, Cycle now)
{
    // Recovery gave up on the flit's quantum: an accounted exit, not a
    // conservation leak — retire the ledger entry so drain checks and
    // the watchdog stay meaningful.
    if (!ledger_.erase(FlitKey{flit.flow, flit.flitNo}))
        record(AuditKind::Conservation, now,
               detailf("flow %u flit %llu dropped at node %u but is "
                       "unknown to the ledger", flit.flow,
                       static_cast<unsigned long long>(flit.flitNo),
                       node));
    noteMovement(node, flit.flow, now);
}

// ---------------------------------------------------------------------
// Look-ahead reservations
// ---------------------------------------------------------------------

void
NetworkAuditor::onLookaheadAdmitted(NodeId node, Port,
                                    const LookaheadFlit &la, Cycle now)
{
    loftProtocol_ = true;
    const QuantumKey key{node, la.flow, la.quantumNo};
    expected_[key] = now;

    // A non-spec arrival only marginally ahead of this admission is a
    // tick-ordering artifact between the look-ahead and data planes,
    // not a protocol violation.
    if (suspicions_.empty())
        return;
    const auto sus = std::lower_bound(
        suspicions_.begin(), suspicions_.end(), key,
        [](const Suspicion &s, const QuantumKey &k) { return s.key < k; });
    if (sus != suspicions_.end() && sus->key == key &&
        now <= sus->arrived + kReservationGrace)
        suspicions_.erase(sus);
}

void
NetworkAuditor::onNiQuantumScheduled(NodeId node, const LookaheadFlit &la,
                                     Slot, Cycle now)
{
    // The NI's quantum will arrive at the node's own router; treat the
    // NI grant as the reservation justifying that first hop.
    loftProtocol_ = true;
    expected_[QuantumKey{node, la.flow, la.quantumNo}] = now;
}

void
NetworkAuditor::matureSuspicions(Cycle now)
{
    std::size_t kept = 0;
    for (const Suspicion &s : suspicions_) {
        if (now <= s.arrived + kReservationGrace) {
            suspicions_[kept++] = s;
            continue;
        }
        record(AuditKind::Reservation, s.arrived,
               detailf("node %u: non-speculative data of flow %u "
                       "quantum %llu arrived without a look-ahead "
                       "reservation", s.key.node, s.key.flow,
                       static_cast<unsigned long long>(s.key.quantum)));
    }
    suspicions_.resize(kept);
}

// ---------------------------------------------------------------------
// Output-scheduler shadow state
// ---------------------------------------------------------------------

std::uint32_t
NetworkAuditor::siteOf(const OutputScheduler &sched)
{
    const SchedSite &site = sched.site();
    const std::size_t at = laneIndex(site.node, site.lane);
    if (site.lane >= kNumLanes || at >= shadows_.size())
        panic("audit: scheduler '%s' has no site in this mesh",
              sched.name().c_str());
    SchedShadow &sh = shadows_[at];
    if (sh.sched != &sched) {
        if (sh.sched)
            panic("audit: schedulers '%s' and '%s' share a site",
                  sh.sched->name().c_str(), sched.name().c_str());
        sh.sched = &sched;
        seenSites_.push_back(static_cast<std::uint32_t>(at));
        if (frameCycles_ == 0)
            frameCycles_ = sched.params().frameSizeFlits;
    }
    return static_cast<std::uint32_t>(at);
}

void
NetworkAuditor::onSchedFlowRegistered(const OutputScheduler &sched,
                                      FlowId flow, std::uint32_t quanta)
{
    reservations_[ShadowKey{siteOf(sched), 0, 0, flow}] = quanta;
}

void
NetworkAuditor::onSchedGrant(const OutputScheduler &sched, FlowId flow,
                             std::uint64_t quantum_no, Slot abs_slot,
                             std::uint64_t frame, Cycle now)
{
    const std::uint32_t site = siteOf(sched);
    const std::uint32_t gen = shadows_[site].gen;
    const auto [booked, inserted] =
        bookings_.tryEmplace(ShadowKey{site, gen, abs_slot, 0},
                             SlotBooking{flow, quantum_no});
    if (!inserted)
        record(AuditKind::StateMismatch, now,
               detailf("%s: slot %llu granted to flow %u while still "
                       "booked by flow %u", sched.name().c_str(),
                       static_cast<unsigned long long>(abs_slot), flow,
                       booked->flow));

    // Per-frame R_ij budget (condition (1) precondition): a flow may
    // take at most r slots per injection frame, and a frame may hand
    // out at most frameSlots grants in total. A flow registered before
    // the auditor attached has an unknown budget — skip that check.
    const std::uint32_t *r =
        reservations_.find(ShadowKey{site, 0, 0, flow});
    const std::uint32_t budget = r ? *r : std::uint32_t(-1);
    const std::uint32_t grants =
        ++frameGrants_[ShadowKey{site, gen, frame, flow}];
    if (grants > budget)
        record(AuditKind::Anomaly, now,
               detailf("%s: flow %u took %u grants in frame %llu, "
                       "reservation is %u", sched.name().c_str(), flow,
                       grants, static_cast<unsigned long long>(frame),
                       budget));
    const std::uint32_t total =
        ++frameTotals_[ShadowKey{site, gen, frame, 0}];
    if (total > sched.params().frameSlots())
        record(AuditKind::Anomaly, now,
               detailf("%s: frame %llu over-committed (%u grants > "
                       "%u slots)", sched.name().c_str(),
                       static_cast<unsigned long long>(frame), total,
                       sched.params().frameSlots()));
}

void
NetworkAuditor::onSchedBookingCleared(const OutputScheduler &sched,
                                      Slot abs_slot)
{
    const std::uint32_t site = siteOf(sched);
    bookings_.erase(ShadowKey{site, shadows_[site].gen, abs_slot, 0});
}

void
NetworkAuditor::onSchedCreditNegative(const OutputScheduler &sched,
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
NetworkAuditor::onSchedLocalReset(const OutputScheduler &sched, Cycle)
{
    // A local status reset rebases the scheduler's slot origin and
    // frame count; the replayed history no longer applies. A new
    // generation hides it in O(1); the next deep audit prunes it.
    ++shadows_[siteOf(sched)].gen;
}

// ---------------------------------------------------------------------
// Deep audit + watchdog
// ---------------------------------------------------------------------

Cycle
NetworkAuditor::deepAuditPeriod() const
{
    if (cfg_.deepAuditPeriod)
        return cfg_.deepAuditPeriod;
    return frameCycles_ ? frameCycles_ : 1024;
}

void
NetworkAuditor::tick(Cycle now)
{
    if (now < nextDeepAudit_)
        return;
    deepAudit(now);
    nextDeepAudit_ = now + deepAuditPeriod();
}

void
NetworkAuditor::auditScheduler(std::uint32_t site, Cycle now)
{
    SchedShadow &sh = shadows_[site];
    const OutputScheduler &sched = *sh.sched;
    const Slot wstart = sched.windowStartAbsSlot();
    const Slot wend = sched.windowEndAbsSlot();

    // Every live booking must match the shadow replayed from grant /
    // clear events. (The converse is not checked: Algorithm 3 recycles
    // stale bookings of expired frames without an event.)
    sched.forEachBooking([&](Slot abs, const SlotBooking &actual) {
        const SlotBooking *shadow =
            bookings_.find(ShadowKey{site, sh.gen, abs, 0});
        if (!shadow) {
            record(AuditKind::StateMismatch, now,
                   detailf("%s: slot %llu booked by flow %u but no "
                           "grant was observed", sched.name().c_str(),
                           static_cast<unsigned long long>(abs),
                           actual.flow));
        } else if (shadow->flow != actual.flow ||
                   shadow->quantumNo != actual.quantumNo) {
            record(AuditKind::StateMismatch, now,
                   detailf("%s: slot %llu holds flow %u quantum %llu, "
                           "granted to flow %u quantum %llu",
                           sched.name().c_str(),
                           static_cast<unsigned long long>(abs),
                           actual.flow,
                           static_cast<unsigned long long>(
                               actual.quantumNo),
                           shadow->flow,
                           static_cast<unsigned long long>(
                               shadow->quantumNo)));
        }
    });

    // Theorem I: under condition (1) no slot's cumulative virtual
    // credit is ever negative. The block minima clear the usual case;
    // only a negative window is walked to name its slots.
    if (sched.params().anomalyGuard && sched.lowestCredit() < 0) {
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

    // Mark shadow state the scheduler has moved past for pruning.
    sh.windowStart = wstart;
    sh.headFrame = sched.headFrame();
}

void
NetworkAuditor::pruneShadows()
{
    auto dead = [this](const ShadowKey &k) {
        return k.gen != shadows_[k.site].gen;
    };
    bookings_.eraseIf([&](const ShadowKey &k, const SlotBooking &) {
        return dead(k) || k.at < shadows_[k.site].windowStart;
    });
    auto past_frame = [&](const ShadowKey &k, std::uint32_t) {
        return dead(k) || k.at < shadows_[k.site].headFrame;
    };
    frameGrants_.eraseIf(past_frame);
    frameTotals_.eraseIf(past_frame);
}

void
NetworkAuditor::runWatchdog(Cycle now)
{
    if (ledger_.empty() || now < lastMovement_ + cfg_.watchdogWindow)
        return;
    std::vector<FlowId> stuck;
    ledger_.forEach([&](const FlitKey &key, const FlitState &) {
        const Cycle *moved = flowLastMovement_.find(key.flow);
        if (now >= (moved ? *moved : 0) + cfg_.watchdogWindow)
            stuck.push_back(key.flow);
    });
    std::sort(stuck.begin(), stuck.end());
    stuck.erase(std::unique(stuck.begin(), stuck.end()), stuck.end());
    std::ostringstream flows;
    for (FlowId f : stuck)
        flows << " " << f;
    // Per-node forensics: where flits last moved, oldest first, so a
    // watchdog report points at the routers that went quiet first.
    std::vector<std::pair<Cycle, NodeId>> idle;
    idle.reserve(nodeLastMovement_.size());
    nodeLastMovement_.forEach(
        [&](NodeId node, Cycle at) { idle.emplace_back(at, node); });
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
NetworkAuditor::deepAudit(Cycle now)
{
    matureSuspicions(now);
    for (std::uint32_t site : seenSites_)
        auditScheduler(site, now);
    pruneShadows();
    runWatchdog(now);

    // Bound reservation-tracking memory: quanta whose last flit was
    // dropped from a speculative buffer never redeem their entry.
    const Cycle horizon = 8 * deepAuditPeriod();
    expected_.eraseIf([&](const QuantumKey &, Cycle admitted) {
        return admitted + horizon < now;
    });
}

void
NetworkAuditor::finalCheck(Cycle now)
{
    matureSuspicions(now + kReservationGrace + 1);
    for (std::uint32_t site : seenSites_)
        auditScheduler(site, now);
    pruneShadows();
    if (net_->flitsInFlight() == 0 && !ledger_.empty()) {
        // Name the smallest live (flow, flitNo).
        FlitKey first{kInvalidFlow, ~std::uint64_t(0)};
        NodeId at = kInvalidNode;
        ledger_.forEach([&](const FlitKey &key, const FlitState &st) {
            if (key <= first) {
                first = key;
                at = st.at;
            }
        });
        record(AuditKind::Conservation, now,
               detailf("network drained but %zu flit(s) unaccounted "
                       "for, first: flow %u flit %llu last seen at "
                       "node %u", ledger_.size(), first.flow,
                       static_cast<unsigned long long>(first.flitNo),
                       at));
    }
}

} // namespace noc
