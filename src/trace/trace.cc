#include "trace/trace.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "sim/logging.hh"
#include "sim/report.hh"
#include "sim/rng.hh"

namespace noc
{

namespace
{

/** Flight-recorder ring capacity, events per node. */
constexpr std::size_t kFlightRingEvents = 128;
/** Blame ring capacity, forwards per (node, lane). */
constexpr std::size_t kBlameRingEvents = 256;
/** Interference-matrix entries exported into the summary and dump. */
constexpr std::size_t kMaxInterferencePairs = 64;

/** Flight-recorder event vocabulary (FlightEvent::kind). */
enum FlightKind : std::uint8_t
{
    kFlAccepted,
    kFlSourced,
    kFlArrived,
    kFlForwarded,
    kFlEjected,
    kFlDelivered,
    kFlLookaheadAdmitted,
    kFlQuantumScheduled,
    kFlNiQuantumScheduled,
    kFlMissedSlot,
    kFlDropped,
    kFlThrottled,
};

const char *
flightKindName(std::uint8_t kind)
{
    switch (kind) {
      case kFlAccepted:
        return "accepted";
      case kFlSourced:
        return "sourced";
      case kFlArrived:
        return "arrived";
      case kFlForwarded:
        return "forwarded";
      case kFlEjected:
        return "ejected";
      case kFlDelivered:
        return "delivered";
      case kFlLookaheadAdmitted:
        return "la_admitted";
      case kFlQuantumScheduled:
        return "quantum_sched";
      case kFlNiQuantumScheduled:
        return "ni_quantum_sched";
      case kFlMissedSlot:
        return "missed_slot";
      case kFlDropped:
        return "dropped";
      case kFlThrottled:
        return "throttled";
    }
    return "unknown";
}

constexpr std::size_t
stageIdx(TraceStage s)
{
    return static_cast<std::size_t>(s);
}

/** `"stages":{...}` fragment shared by summary/flow/exemplar rows. */
std::string
stagesJson(const std::array<std::uint64_t, kNumTraceStages> &stages)
{
    std::string out = "{";
    for (std::size_t s = 0; s < kNumTraceStages; ++s) {
        out += csprintf("%s\"%s\":%" PRIu64, s ? "," : "",
                        traceStageName(static_cast<TraceStage>(s)),
                        stages[s]);
    }
    out += "}";
    return out;
}

/** Interference matrix rows, descending by cycles (deterministic). */
std::vector<TraceInterference>
rankInterference(
    const std::map<std::pair<FlowId, FlowId>, std::uint64_t> &matrix,
    std::size_t cap)
{
    std::vector<TraceInterference> out;
    out.reserve(matrix.size());
    for (const auto &[key, cycles] : matrix)
        out.push_back(TraceInterference{key.first, key.second, cycles});
    std::sort(out.begin(), out.end(),
              [](const TraceInterference &a, const TraceInterference &b) {
                  if (a.cycles != b.cycles)
                      return a.cycles > b.cycles;
                  if (a.victim != b.victim)
                      return a.victim < b.victim;
                  return a.aggressor < b.aggressor;
              });
    if (out.size() > cap)
        out.resize(cap);
    return out;
}

} // namespace

const char *
traceStageName(TraceStage stage)
{
    switch (stage) {
      case TraceStage::SrcQueue:
        return "src_queue";
      case TraceStage::SrcReservation:
        return "src_reservation";
      case TraceStage::Link:
        return "link";
      case TraceStage::LookaheadWait:
        return "lookahead_wait";
      case TraceStage::ReservationWait:
        return "reservation_wait";
      case TraceStage::SwitchStall:
        return "switch_stall";
      case TraceStage::SpecSavings:
        return "spec_savings";
      case TraceStage::SinkReassembly:
        return "sink_reassembly";
    }
    return "unknown";
}

TraceSummary
mergeTraceSummaries(const std::vector<TraceSummary> &parts)
{
    TraceSummary out;
    std::map<std::pair<FlowId, FlowId>, std::uint64_t> matrix;
    for (const TraceSummary &p : parts) {
        if (!p.enabled)
            continue;
        out.enabled = true;
        out.packetsTraced += p.packetsTraced;
        out.packetsSampled += p.packetsSampled;
        out.decompositionMismatches += p.decompositionMismatches;
        out.totalLatencyCycles += p.totalLatencyCycles;
        for (std::size_t s = 0; s < kNumTraceStages; ++s)
            out.stageCycles[s] += p.stageCycles[s];
        out.blameAttributed += p.blameAttributed;
        out.blameUnattributed += p.blameUnattributed;
        for (const TraceInterference &i : p.topInterference)
            matrix[{i.victim, i.aggressor}] += i.cycles;
    }
    out.topInterference = rankInterference(matrix, kMaxInterferencePairs);
    return out;
}

TraceCollector::TraceCollector(const Mesh2D &mesh, TraceConfig config,
                               std::string kind_name,
                               std::uint32_t cycles_per_slot,
                               std::uint64_t seed)
    : width_(mesh.width()), height_(mesh.height()),
      numNodes_(mesh.numNodes()), cfg_(std::move(config)),
      kindName_(std::move(kind_name)), cyclesPerSlot_(cycles_per_slot),
      seed_(seed), spans_(cfg_.maxSpanEvents)
{
    live_.reserve(1024);
    blameRings_.resize(numNodes_ * kNumLanes);
    flight_.resize(numNodes_);
}

void
TraceCollector::consume(const NetEvent &e)
{
    if (!finished_)
        NetObserver::consume(e);
}

bool
TraceCollector::isSampled(FlowId flow, PacketId id) const
{
    if (cfg_.sampleRate >= 1.0)
        return true;
    if (cfg_.sampleRate <= 0.0)
        return false;
    // Not an RNG stream: a stateless mixSeed hash of the packet
    // identity, so the sample set is independent of event order and
    // identical for any worker count.
    const std::uint64_t h = mixSeed(mixSeed(seed_, flow), id);
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    return u < cfg_.sampleRate;
}

void
TraceCollector::notePortBusy(NodeId node, std::size_t lane, FlowId flow,
                             Cycle now)
{
    BlameRing &ring = blameRings_[laneIndex(node, lane)];
    if (ring.buf.size() < kBlameRingEvents) {
        ring.buf.emplace_back(now, flow);
        return;
    }
    ring.buf[ring.head] = {now, flow};
    if (++ring.head == ring.buf.size())
        ring.head = 0;
}

void
TraceCollector::noteFlight(NodeId node, std::uint8_t kind, FlowId flow,
                           std::size_t lane, bool spec, std::uint64_t a,
                           Cycle now)
{
    FlightRing &ring = flight_[node];
    FlightEvent e;
    e.cycle = now;
    e.kind = kind;
    e.flow = flow;
    e.lane = static_cast<std::uint8_t>(lane);
    e.spec = spec;
    e.a = a;
    if (ring.buf.size() < kFlightRingEvents) {
        ring.buf.push_back(e);
        return;
    }
    ring.buf[ring.head] = e;
    if (++ring.head == ring.buf.size())
        ring.head = 0;
}

std::vector<std::pair<FlowId, std::uint64_t>>
TraceCollector::scanBlame(NodeId node, std::size_t lane, FlowId victim,
                          Cycle from, Cycle to) const
{
    // Hot on fabrics without reservations (every hop's residency is
    // attributable): newest-to-oldest with early stop — pushes are in
    // cycle order, so below the window start nothing older matches —
    // and a small flat vector instead of a node-allocating map.
    std::vector<std::pair<FlowId, std::uint64_t>> counts;
    const BlameRing &ring = blameRings_[laneIndex(node, lane)];
    const std::size_t sz = ring.buf.size();
    for (std::size_t i = 0; i < sz; ++i) {
        const std::size_t idx = (ring.head + sz - 1 - i) % sz;
        const auto &[cycle, flow] = ring.buf[idx];
        if (cycle < from)
            break;
        if (cycle >= to || flow == victim)
            continue;
        bool found = false;
        for (auto &c : counts) {
            if (c.first == flow) {
                ++c.second;
                found = true;
                break;
            }
        }
        if (!found)
            counts.emplace_back(flow, 1);
    }
    std::sort(counts.begin(), counts.end());
    return counts;
}

void
TraceCollector::chargeBlame(
    FlowId victim, std::vector<std::pair<FlowId, std::uint64_t>> &blame,
    std::uint64_t attributable)
{
    // Each ring entry is one cycle of port occupancy; charge at most
    // the cycles the victim actually waited, in ascending-flow order
    // (deterministic), and count the rest as unattributed.
    std::uint64_t remaining = attributable;
    std::uint64_t charged_total = 0;
    for (auto &[flow, cycles] : blame) {
        const std::uint64_t charged = std::min(cycles, remaining);
        cycles = charged;
        remaining -= charged;
        charged_total += charged;
        if (charged)
            interference_[{victim, flow}] += charged;
    }
    blame.erase(std::remove_if(blame.begin(), blame.end(),
                               [](const auto &b) { return b.second == 0; }),
                blame.end());
    blameAttributed_ += charged_total;
    blameUnattributed_ += attributable - charged_total;
}

void
TraceCollector::closeHop(LivePacket &lp, Port out, Cycle now)
{
    HopRecord &h = lp.curHop;
    h.out = out;
    h.forward = now;
    const Cycle A = h.arrive;
    const Cycle F = now;

    std::uint64_t lw = 0, rw = 0, stall = 0, savings = 0;
    if (h.decision != kNeverCycle && h.hasBooking && cyclesPerSlot_) {
        // D' clamps the decision cycle into [A, F]: a decision made
        // before the head arrived costs the packet nothing, and one
        // recorded after the forward (cannot happen, defensively) is
        // treated as at-forward. B is when the booked slot opens.
        const Cycle B = slotStart(h.booked);
        const Cycle Dp = std::min(std::max(h.decision, A), F);
        lw = Dp - A;
        rw = B > Dp ? B - Dp : 0;
        savings = B > F ? B - F : 0;
        stall = F >= B ? F - std::max(Dp, B) : 0;
        // lw + rw + stall - savings == F - A in every ordering of
        // A, Dp, B, F; the whole decomposition telescopes from it.
    } else {
        stall = F - A;
    }
    h.stages.lookaheadWait = lw;
    h.stages.reservationWait = rw;
    h.stages.switchStall = stall;
    h.stages.specSavings = savings;

    const std::uint64_t attributable = rw + stall;
    if (attributable) {
        h.blame = scanBlame(h.node, static_cast<std::size_t>(out),
                            lp.flow, A, F);
        chargeBlame(lp.flow, h.blame, attributable);
    }

    lp.stages[stageIdx(TraceStage::Link)] += h.stages.link;
    lp.stages[stageIdx(TraceStage::LookaheadWait)] += lw;
    lp.stages[stageIdx(TraceStage::ReservationWait)] += rw;
    lp.stages[stageIdx(TraceStage::SwitchStall)] += stall;
    lp.stages[stageIdx(TraceStage::SpecSavings)] += savings;
    lp.hops.push_back(std::move(h));
    lp.curHop = HopRecord{};
    lp.hopOpen = false;
}

// ---------------------------------------------------------------------
// Event intake
// ---------------------------------------------------------------------

void
TraceCollector::onPacketAccepted(NodeId node, const Packet &pkt,
                                 Cycle now)
{
    // A queued packet has no timeline yet: its record opens when it
    // leaves the source queue, so the backlog costs no memory here.
    noteFlight(node, kFlAccepted, pkt.flow, kNiLane, false, pkt.id, now);
}

TraceCollector::LivePacket &
TraceCollector::openPacket(PacketId id, FlowId flow, NodeId src,
                           NodeId dst, Cycle accepted,
                           std::uint64_t head_quantum)
{
    const auto [it, opened] = live_.try_emplace(id);
    LivePacket &lp = it->second;
    if (opened) {
        lp.flow = flow;
        lp.src = src;
        lp.dst = dst;
        lp.accepted = accepted;
        lp.headQuantum = head_quantum;
    }
    return lp;
}

void
TraceCollector::onNiQuantumScheduled(NodeId node, const LookaheadFlit &la,
                                     Slot granted, Cycle now)
{
    noteFlight(node, kFlNiQuantumScheduled, la.flow, kNiLane, false,
               granted, now);
    // The NI schedules a packet's quanta in order, so the first grant
    // names the head quantum — the one whose timeline we follow.
    LivePacket &lp = openPacket(la.packet, la.flow, la.src, la.dst,
                                la.createdAt, la.quantumNo);
    if (lp.niSched == kNeverCycle)
        lp.niSched = now;
}

void
TraceCollector::onFlitSourced(NodeId node, const Flit &flit, bool spec,
                              Cycle now)
{
    notePortBusy(node, kNiLane, flit.flow, now);
    noteFlight(node, kFlSourced, flit.flow, kNiLane, spec, flit.flitNo,
               now);
    if (!flit.isHead())
        return;
    // On LOFT the NI grant opened the record already.
    LivePacket &lp = openPacket(flit.packet, flit.flow, flit.src, flit.dst,
                                flit.createdAt, flit.quantum);
    if (lp.sourced == kNeverCycle)
        lp.sourced = now;
}

void
TraceCollector::onLookaheadAdmitted(NodeId node, Port in,
                                    const LookaheadFlit &la, Cycle now)
{
    noteFlight(node, kFlLookaheadAdmitted, la.flow,
               static_cast<std::size_t>(in), false, la.quantumNo, now);
}

void
TraceCollector::onQuantumScheduled(NodeId node, Port out,
                                   const LookaheadFlit &la, Slot granted,
                                   Cycle now)
{
    noteFlight(node, kFlQuantumScheduled, la.flow,
               static_cast<std::size_t>(out), false, granted, now);
    auto it = live_.find(la.packet);
    if (it == live_.end())
        return;
    LivePacket &lp = it->second;
    if (la.quantumNo != lp.headQuantum)
        return;
    if (lp.hopOpen && lp.curHop.node == node) {
        // Decision after the head flit arrived (emergent path); a
        // re-issue (fault recovery) supersedes the stale booking.
        lp.curHop.decision = now;
        lp.curHop.booked = granted;
        lp.curHop.hasBooking = true;
        return;
    }
    // Look-ahead running ahead of the data: park the decision until
    // the head flit reaches this router.
    for (PendingDecision &pd : lp.pendingDecisions) {
        if (pd.node == node) {
            pd.cycle = now;
            pd.booked = granted;
            return;
        }
    }
    lp.pendingDecisions.push_back(PendingDecision{node, now, granted});
}

void
TraceCollector::onFlitArrived(NodeId node, Port in, const Flit &flit,
                              bool spec, Cycle now)
{
    noteFlight(node, kFlArrived, flit.flow,
               static_cast<std::size_t>(in), spec, flit.flitNo, now);
    if (!flit.isHead())
        return;
    auto it = live_.find(flit.packet);
    if (it == live_.end())
        return;
    LivePacket &lp = it->second;
    if (lp.hopOpen)
        return; // defensive: previous hop never closed
    const Cycle departed =
        lp.hops.empty() ? lp.sourced : lp.hops.back().forward;
    lp.curHop = HopRecord{};
    lp.curHop.node = node;
    lp.curHop.arrive = now;
    lp.curHop.stages.link =
        departed == kNeverCycle || now < departed ? 0 : now - departed;
    lp.hopOpen = true;
    for (std::size_t i = 0; i < lp.pendingDecisions.size(); ++i) {
        if (lp.pendingDecisions[i].node != node)
            continue;
        lp.curHop.decision = lp.pendingDecisions[i].cycle;
        lp.curHop.booked = lp.pendingDecisions[i].booked;
        lp.curHop.hasBooking = true;
        lp.pendingDecisions.erase(lp.pendingDecisions.begin() +
                                  static_cast<std::ptrdiff_t>(i));
        break;
    }
}

void
TraceCollector::onFlitForwarded(NodeId node, Port out, const Flit &flit,
                                bool spec, Cycle now)
{
    notePortBusy(node, static_cast<std::size_t>(out), flit.flow, now);
    noteFlight(node, kFlForwarded, flit.flow,
               static_cast<std::size_t>(out), spec, flit.flitNo, now);
    if (!flit.isHead())
        return;
    auto it = live_.find(flit.packet);
    if (it == live_.end())
        return;
    LivePacket &lp = it->second;
    if (lp.hopOpen && lp.curHop.node == node)
        closeHop(lp, out, now);
}

void
TraceCollector::onFlitEjected(NodeId node, const Flit &flit, Cycle now)
{
    noteFlight(node, kFlEjected, flit.flow, kNiLane, false, flit.flitNo,
               now);
    if (!flit.isHead())
        return;
    auto it = live_.find(flit.packet);
    if (it == live_.end())
        return;
    LivePacket &lp = it->second;
    // A sink that consumes without a Local-port forward event leaves
    // the last hop open; close it here so residency is still counted.
    if (lp.hopOpen && lp.curHop.node == node)
        closeHop(lp, Port::Local, now);
    if (lp.ejected != kNeverCycle)
        return;
    lp.ejected = now;
    // The final wire: last router forward (or the NI, when the sink
    // is fed directly) -> sink ejection.
    const Cycle departed =
        lp.hops.empty() ? lp.sourced : lp.hops.back().forward;
    if (departed != kNeverCycle && now > departed)
        lp.stages[stageIdx(TraceStage::Link)] += now - departed;
}

void
TraceCollector::onMissedSlot(NodeId node, Port out, Cycle now)
{
    noteFlight(node, kFlMissedSlot, kInvalidFlow,
               static_cast<std::size_t>(out), false, 0, now);
}

void
TraceCollector::onSourceThrottled(NodeId node, FlowId flow,
                                  StallReason reason, Cycle now)
{
    noteFlight(node, kFlThrottled, flow, kNiLane, false,
               static_cast<std::uint64_t>(reason), now);
    ++flows_[flow].throttled[static_cast<std::size_t>(reason)];
}

void
TraceCollector::onFlitDropped(NodeId node, const Flit &flit, Cycle now)
{
    noteFlight(node, kFlDropped, flit.flow, kNiLane, false, flit.flitNo,
               now);
    // Recovery gave up: the packet can never complete, so stop
    // tracking it, and leave a black-box dump behind.
    live_.erase(flit.packet);
    if (!cfg_.dumpDir.empty())
        dumpToFile("drop_giveup", now);
}

void
TraceCollector::onPacketDelivered(NodeId node, FlowId flow, PacketId pkt,
                                  Cycle now)
{
    noteFlight(node, kFlDelivered, flow, kNiLane, false, pkt, now);
    auto it = live_.find(pkt);
    if (it == live_.end())
        return;
    finalizePacket(pkt, it->second, node, now);
    live_.erase(it);
}

// ---------------------------------------------------------------------
// Packet finalization
// ---------------------------------------------------------------------

void
TraceCollector::finalizePacket(PacketId id, LivePacket &lp, NodeId node,
                               Cycle now)
{
    (void)node;
    if (lp.sourced == kNeverCycle)
        return; // zero-flit artifact; nothing to decompose
    if (lp.ejected == kNeverCycle)
        lp.ejected = now;

    const std::uint64_t total = now - lp.accepted;
    if (lp.niSched != kNeverCycle && cyclesPerSlot_) {
        lp.stages[stageIdx(TraceStage::SrcQueue)] =
            lp.niSched - lp.accepted;
        lp.stages[stageIdx(TraceStage::SrcReservation)] =
            lp.sourced - lp.niSched;
    } else {
        lp.stages[stageIdx(TraceStage::SrcQueue)] =
            lp.sourced - lp.accepted;
    }
    lp.stages[stageIdx(TraceStage::SinkReassembly)] = now - lp.ejected;

    const std::uint64_t src_wait =
        lp.stages[stageIdx(TraceStage::SrcQueue)] +
        lp.stages[stageIdx(TraceStage::SrcReservation)];
    if (src_wait) {
        lp.srcBlame = scanBlame(lp.src, kNiLane, lp.flow, lp.accepted,
                                lp.sourced);
        chargeBlame(lp.flow, lp.srcBlame, src_wait);
    }

    std::uint64_t sum = 0;
    for (std::size_t s = 0; s < kNumTraceStages; ++s) {
        if (s != stageIdx(TraceStage::SpecSavings))
            sum += lp.stages[s];
    }
    sum -= lp.stages[stageIdx(TraceStage::SpecSavings)];
    if (sum != total)
        ++decompositionMismatches_;

    ++packetsTraced_;
    totalLatency_ += total;
    for (std::size_t s = 0; s < kNumTraceStages; ++s)
        stageCycles_[s] += lp.stages[s];
    FlowAgg &agg = flows_[lp.flow];
    ++agg.packets;
    agg.totalLatency += total;
    agg.maxLatency = std::max(agg.maxLatency, total);
    for (std::size_t s = 0; s < kNumTraceStages; ++s)
        agg.stages[s] += lp.stages[s];

    const bool sampled = isSampled(lp.flow, id);
    bool tail = false;
    if (cfg_.tailExemplars) {
        if (tailRank_.size() < cfg_.tailExemplars) {
            tail = true;
        } else if (total > tailRank_.begin()->first) {
            const PacketId evicted = tailRank_.begin()->second;
            tailRank_.erase(tailRank_.begin());
            auto ex = exemplars_.find(evicted);
            if (ex != exemplars_.end() && !ex->second.sampled)
                exemplars_.erase(ex);
            tail = true;
        }
        if (tail)
            tailRank_.emplace(total, id);
    }

    if (!sampled && !tail)
        return;
    if (sampled) {
        ++packetsSampled_;
        sampledOrder_.push_back(id);
    }

    Exemplar ex;
    ex.id = id;
    ex.flow = lp.flow;
    ex.src = lp.src;
    ex.dst = lp.dst;
    ex.accepted = lp.accepted;
    ex.delivered = now;
    ex.latency = total;
    ex.sampled = sampled;
    ex.stages = lp.stages;
    ex.srcBlame = std::move(lp.srcBlame);
    ex.hops = std::move(lp.hops);
    exemplars_[id] = std::move(ex);
}

const ChromeTraceWriter &
TraceCollector::spanWriter() const
{
    std::call_once(spansBuilt_, [this] {
        spans_.metadata("{\"name\":\"process_name\",\"ph\":\"M\","
                        "\"pid\":2,\"args\":{\"name\":\"loft-trace\"}}");
        for (std::size_t n = 0; n < numNodes_; ++n)
            spans_.metadata(csprintf(
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,"
                "\"tid\":%zu,\"args\":{\"name\":\"node %zu\"}}",
                n, n));
        for (const PacketId id : sampledOrder_)
            emitSpans(exemplars_.at(id));
    });
    return spans_;
}

void
TraceCollector::emitSpans(const Exemplar &ex) const
{
    spans_.add(csprintf(
        "{\"cat\":\"trace\",\"name\":\"flow%u\",\"ph\":\"b\","
        "\"id\":%" PRIu64 ",\"pid\":2,\"tid\":%u,\"ts\":%" PRIu64
        ",\"args\":{\"flow\":%u,\"src\":%u,\"dst\":%u}}",
        ex.flow, ex.id, ex.src, ex.accepted, ex.flow, ex.src, ex.dst));
    if (ex.stages[stageIdx(TraceStage::SrcQueue)] +
        ex.stages[stageIdx(TraceStage::SrcReservation)]) {
        spans_.add(csprintf(
            "{\"cat\":\"stage\",\"name\":\"source\",\"ph\":\"X\","
            "\"pid\":2,\"tid\":%u,\"ts\":%" PRIu64 ",\"dur\":%" PRIu64
            ",\"args\":{\"src_queue\":%" PRIu64
            ",\"src_reservation\":%" PRIu64 "}}",
            ex.src, ex.accepted,
            ex.stages[stageIdx(TraceStage::SrcQueue)] +
                ex.stages[stageIdx(TraceStage::SrcReservation)],
            ex.stages[stageIdx(TraceStage::SrcQueue)],
            ex.stages[stageIdx(TraceStage::SrcReservation)]));
    }
    for (const HopRecord &h : ex.hops) {
        spans_.add(csprintf(
            "{\"cat\":\"stage\",\"name\":\"hop n%u %s\",\"ph\":\"X\","
            "\"pid\":2,\"tid\":%u,\"ts\":%" PRIu64 ",\"dur\":%" PRIu64
            ",\"args\":{\"lookahead_wait\":%" PRIu64
            ",\"reservation_wait\":%" PRIu64 ",\"switch_stall\":%" PRIu64
            ",\"spec_savings\":%" PRIu64 ",\"link\":%" PRIu64 "}}",
            h.node, portName(h.out), h.node, h.arrive,
            h.forward - h.arrive, h.stages.lookaheadWait,
            h.stages.reservationWait, h.stages.switchStall,
            h.stages.specSavings, h.stages.link));
    }
    if (ex.stages[stageIdx(TraceStage::SinkReassembly)]) {
        spans_.add(csprintf(
            "{\"cat\":\"stage\",\"name\":\"sink\",\"ph\":\"X\","
            "\"pid\":2,\"tid\":%u,\"ts\":%" PRIu64 ",\"dur\":%" PRIu64
            ",\"args\":{}}",
            ex.dst,
            ex.delivered -
                ex.stages[stageIdx(TraceStage::SinkReassembly)],
            ex.stages[stageIdx(TraceStage::SinkReassembly)]));
    }
    spans_.add(csprintf(
        "{\"cat\":\"trace\",\"name\":\"flow%u\",\"ph\":\"e\","
        "\"id\":%" PRIu64 ",\"pid\":2,\"tid\":%u,\"ts\":%" PRIu64
        ",\"args\":{\"latency\":%" PRIu64 "}}",
        ex.flow, ex.id, ex.src, ex.delivered, ex.latency));
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

TraceSummary
TraceCollector::summary() const
{
    TraceSummary s;
    s.enabled = true;
    s.packetsTraced = packetsTraced_;
    s.packetsSampled = packetsSampled_;
    s.decompositionMismatches = decompositionMismatches_;
    s.totalLatencyCycles = totalLatency_;
    s.stageCycles = stageCycles_;
    s.blameAttributed = blameAttributed_;
    s.blameUnattributed = blameUnattributed_;
    s.topInterference =
        rankInterference(interference_, kMaxInterferencePairs);
    return s;
}

std::string
TraceCollector::dumpJson(const std::string &reason, Cycle now) const
{
    std::string out;
    out.reserve(1 << 16);
    out += csprintf("{\"schema\":\"loft-trace-dump/1\","
                    "\"kind\":\"%s\",\"mesh\":\"%ux%u\","
                    "\"cycles_per_slot\":%u,"
                    "\"reason\":\"%s\",\"cycle\":%" PRIu64 ",\n",
                    jsonEscape(kindName_).c_str(), width_, height_,
                    cyclesPerSlot_, jsonEscape(reason).c_str(), now);
    out += csprintf("\"packets\":{\"traced\":%" PRIu64
                    ",\"sampled\":%" PRIu64 ",\"mismatches\":%" PRIu64
                    ",\"total_latency_cycles\":%" PRIu64 "},\n",
                    packetsTraced_, packetsSampled_,
                    decompositionMismatches_, totalLatency_);
    out += "\"stages\":" + stagesJson(stageCycles_) + ",\n";

    out += csprintf("\"blame\":{\"attributed\":%" PRIu64
                    ",\"unattributed\":%" PRIu64 ",\"pairs\":[",
                    blameAttributed_, blameUnattributed_);
    const std::vector<TraceInterference> pairs =
        rankInterference(interference_, kMaxInterferencePairs);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        out += csprintf("%s{\"victim\":%u,\"aggressor\":%u,"
                        "\"cycles\":%" PRIu64 "}",
                        i ? "," : "", pairs[i].victim,
                        pairs[i].aggressor, pairs[i].cycles);
    }
    out += "]},\n";

    out += "\"flows\":[";
    bool first = true;
    for (const auto &[flow, agg] : flows_) {
        out += csprintf("%s\n{\"flow\":%u,\"packets\":%" PRIu64
                        ",\"latency_cycles\":%" PRIu64
                        ",\"max_latency\":%" PRIu64 ",\"stages\":",
                        first ? "" : ",", flow, agg.packets,
                        agg.totalLatency, agg.maxLatency);
        first = false;
        out += stagesJson(agg.stages);
        out += ",\"throttled\":{";
        for (std::size_t r = 0; r < kNumStallReasons; ++r) {
            out += csprintf(
                "%s\"%s\":%" PRIu64, r ? "," : "",
                stallReasonName(static_cast<StallReason>(r)),
                agg.throttled[r]);
        }
        out += "}}";
    }
    out += "],\n";

    out += "\"exemplars\":[";
    first = true;
    for (const auto &[id, ex] : exemplars_) {
        bool tail = false;
        for (const auto &[lat, tid] : tailRank_) {
            (void)lat;
            if (tid == id) {
                tail = true;
                break;
            }
        }
        out += csprintf(
            "%s\n{\"packet\":%" PRIu64 ",\"flow\":%u,\"src\":%u,"
            "\"dst\":%u,\"accepted\":%" PRIu64 ",\"delivered\":%" PRIu64
            ",\"latency\":%" PRIu64 ",\"sampled\":%s,\"tail\":%s,"
            "\"stages\":",
            first ? "" : ",", id, ex.flow, ex.src, ex.dst, ex.accepted,
            ex.delivered, ex.latency, ex.sampled ? "true" : "false",
            tail ? "true" : "false");
        first = false;
        out += stagesJson(ex.stages);
        out += ",\"src_blame\":[";
        for (std::size_t i = 0; i < ex.srcBlame.size(); ++i) {
            out += csprintf("%s{\"flow\":%u,\"cycles\":%" PRIu64 "}",
                            i ? "," : "", ex.srcBlame[i].first,
                            ex.srcBlame[i].second);
        }
        out += "],\"hops\":[";
        for (std::size_t i = 0; i < ex.hops.size(); ++i) {
            const HopRecord &h = ex.hops[i];
            out += csprintf(
                "%s{\"node\":%u,\"out\":\"%s\",\"arrive\":%" PRIu64
                ",\"forward\":%" PRIu64,
                i ? "," : "", h.node, portName(h.out), h.arrive,
                h.forward);
            if (h.decision != kNeverCycle)
                out += csprintf(",\"decision\":%" PRIu64, h.decision);
            if (h.hasBooking)
                out += csprintf(",\"booked_slot\":%" PRIu64, h.booked);
            out += csprintf(
                ",\"lookahead_wait\":%" PRIu64
                ",\"reservation_wait\":%" PRIu64
                ",\"switch_stall\":%" PRIu64 ",\"spec_savings\":%" PRIu64
                ",\"link\":%" PRIu64 ",\"blame\":[",
                h.stages.lookaheadWait, h.stages.reservationWait,
                h.stages.switchStall, h.stages.specSavings,
                h.stages.link);
            for (std::size_t b = 0; b < h.blame.size(); ++b) {
                out += csprintf("%s{\"flow\":%u,\"cycles\":%" PRIu64 "}",
                                b ? "," : "", h.blame[b].first,
                                h.blame[b].second);
            }
            out += "]}";
        }
        out += "]}";
    }
    out += "],\n";

    out += "\"flight\":[";
    for (std::size_t n = 0; n < flight_.size(); ++n) {
        const FlightRing &ring = flight_[n];
        out += csprintf("%s\n{\"node\":%zu,\"events\":[", n ? "," : "",
                        n);
        // Logical ring order, oldest first.
        const std::size_t sz = ring.buf.size();
        const std::size_t start =
            sz < kFlightRingEvents ? 0 : ring.head;
        for (std::size_t i = 0; i < sz; ++i) {
            const FlightEvent &e = ring.buf[(start + i) % sz];
            out += csprintf("%s{\"cycle\":%" PRIu64
                            ",\"event\":\"%s\",\"lane\":\"%s\"",
                            i ? "," : "", e.cycle,
                            flightKindName(e.kind),
                            laneName(e.lane));
            if (e.flow != kInvalidFlow)
                out += csprintf(",\"flow\":%u", e.flow);
            if (e.spec)
                out += ",\"spec\":true";
            if (e.kind == kFlThrottled)
                out += csprintf(",\"reason\":\"%s\"",
                                stallReasonName(
                                    static_cast<StallReason>(e.a)));
            else
                out += csprintf(",\"arg\":%" PRIu64, e.a);
            out += "}";
        }
        out += "]}";
    }
    out += "]}\n";
    return out;
}

std::string
TraceCollector::dumpToFile(const std::string &reason, Cycle now)
{
    if (cfg_.dumpDir.empty())
        return "";
    std::string slug;
    for (char c : reason) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_';
        slug += ok ? c : '_';
    }
    if (!dumpedReasons_.insert(slug).second)
        return ""; // first trip per reason only
    const std::string path = cfg_.dumpDir + "/trace_" + slug + ".json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("trace: cannot write %s", path.c_str());
        return "";
    }
    const std::string json = dumpJson(reason, now);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return path;
}

void
TraceCollector::finish(Cycle now)
{
    if (!cfg_.dumpDir.empty())
        dumpToFile("blame", now);
    finished_ = true;
    std::vector<BlameRing>().swap(blameRings_);
    std::unordered_map<PacketId, LivePacket>().swap(live_);
}

} // namespace noc
