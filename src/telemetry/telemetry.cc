#include "telemetry/telemetry.hh"

#include <algorithm>
#include <cinttypes>

#include "core/output_scheduler.hh"
#include "net/flit.hh"
#include "sim/logging.hh"

namespace noc
{

namespace
{

/** Hard cap on buffered trace events; overflow is counted. */
constexpr std::size_t kMaxTraceEvents = 200000;

/** The counters stored under index @p i of a sparse epoch row, or a
 *  zero record. */
template <typename Counters>
const Counters &
sparseAt(const std::vector<std::pair<std::uint32_t, Counters>> &entries,
         std::size_t i)
{
    static const Counters kZero{};
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), i,
        [](const auto &e, std::size_t k) { return e.first < k; });
    return it != entries.end() && it->first == i ? it->second : kZero;
}

/** Store each nonzero delta(i), i < count, as (i, delta) in index
 *  order, allocating @p rows once at its final size. */
template <typename Counters, typename Delta>
void
keepNonzero(std::vector<std::pair<std::uint32_t, Counters>> &rows,
            std::size_t count, const Delta &delta)
{
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < count; ++i)
        nonzero += delta(i) != Counters{};
    rows.reserve(nonzero);
    for (std::size_t i = 0; i < count; ++i) {
        if (const Counters d = delta(i); d != Counters{})
            rows.emplace_back(static_cast<std::uint32_t>(i), d);
    }
}

} // namespace

const LaneCounters &
TelemetryEpoch::lane(std::size_t i) const
{
    return sparseAt(lanes, i);
}

const NodeCounters &
TelemetryEpoch::node(std::size_t n) const
{
    return sparseAt(nodes, n);
}

TelemetryCollector::TelemetryCollector(const Mesh2D &mesh,
                                       TelemetryConfig config,
                                       std::vector<std::uint32_t> class_of,
                                       std::vector<std::string> class_names)
    : width_(mesh.width()), height_(mesh.height()),
      numNodes_(mesh.numNodes()), cfg_(config),
      cur_(numNodes_ * kNumLanes), lastLanes_(numNodes_ * kNumLanes),
      buffered_(numNodes_, 0), ejected_(numNodes_, 0),
      delivered_(numNodes_, 0), lastEjected_(numNodes_, 0),
      lastDelivered_(numNodes_, 0), faultsInjected_(numNodes_, 0),
      faultsDetected_(numNodes_, 0), faultsRecovered_(numNodes_, 0),
      lastFaultsInjected_(numNodes_, 0),
      lastFaultsDetected_(numNodes_, 0),
      lastFaultsRecovered_(numNodes_, 0),
      schedOfLane_(numNodes_ * kNumLanes, nullptr),
      classOf_(std::move(class_of)),
      classNames_(std::move(class_names)),
      trace_(kMaxTraceEvents)
{
    if (cfg_.epochCycles == 0)
        panic("TelemetryCollector: epochCycles must be positive");
    std::uint32_t num_classes = 1;
    for (std::uint32_t c : classOf_)
        num_classes = std::max(num_classes, c + 1);
    classHist_.assign(num_classes,
                      LogHistogram(kLatencyHistLo, kLatencyHistHi,
                                   kLatencyHistBuckets));
    while (classNames_.size() < num_classes)
        classNames_.push_back(
            csprintf("class%zu", classNames_.size()));
    // Trace metadata: one process, one track (tid) per node.
    if (cfg_.tracePackets) {
        trace_.reserve(1 << 14);
        trace_.metadata("{\"name\":\"process_name\",\"ph\":\"M\","
                        "\"pid\":1,\"args\":{\"name\":\"loft-noc\"}}");
        for (std::size_t n = 0; n < numNodes_; ++n)
            trace_.metadata(csprintf(
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                "\"tid\":%zu,\"args\":{\"name\":\"node %zu\"}}",
                n, n));
    }
}

std::uint32_t
TelemetryCollector::classOfFlow(FlowId flow) const
{
    if (flow < classOf_.size())
        return classOf_[flow];
    return 0;
}

const LaneCounters &
TelemetryCollector::lane(NodeId node, std::size_t lane) const
{
    return cur_.at(laneIndex(node, lane));
}

const LogHistogram &
TelemetryCollector::classLatency(std::uint32_t cls) const
{
    return classHist_.at(cls);
}

void
TelemetryCollector::startMeasurement(Cycle)
{
    measuring_ = true;
    for (auto &h : classHist_)
        h.reset();
}

void
TelemetryCollector::stopMeasurement(Cycle)
{
    measuring_ = false;
}

std::size_t
TelemetryCollector::schedLane(const OutputScheduler &sched)
{
    const SchedSite &site = sched.site();
    if (site.node >= numNodes_ || site.lane >= kNumLanes)
        panic("telemetry: scheduler '%s' has no site in this mesh",
              sched.name().c_str());
    const std::size_t idx = laneIndex(site.node, site.lane);
    schedOfLane_[idx] = &sched;
    return idx;
}

void
TelemetryCollector::traceEvent(std::string json)
{
    trace_.add(std::move(json));
}

void
TelemetryCollector::consume(const NetEvent &e)
{
    if (finished_)
        return;
    if (e.kind != NetEvent::Kind::PacketDelivered) {
        NetObserver::consume(e);
        return;
    }
    // The delivering flit carries the packet's source and NI enqueue
    // cycle, so no record of the packet is kept while it is live.
    ++delivered_[e.node];
    const Cycle latency = e.now - e.flit.createdAt;
    if (measuring_)
        classHist_[classOfFlow(e.flow)].sample(
            static_cast<double>(latency));
    if (cfg_.tracePackets) {
        traceEvent(csprintf(
            "{\"cat\":\"packet\",\"name\":\"flow%u\",\"ph\":\"e\","
            "\"id\":%" PRIu64 ",\"pid\":1,\"tid\":%u,\"ts\":%" PRIu64
            ",\"args\":{\"delivered_at\":%u,\"latency\":%" PRIu64 "}}",
            e.flow, e.packet, e.flit.src, e.now, e.node, latency));
    }
}

// ---------------------------------------------------------------------
// Event intake
// ---------------------------------------------------------------------

void
TelemetryCollector::onPacketAccepted(NodeId node, const Packet &pkt,
                                     Cycle now)
{
    if (cfg_.tracePackets) {
        traceEvent(csprintf(
            "{\"cat\":\"packet\",\"name\":\"flow%u\",\"ph\":\"b\","
            "\"id\":%" PRIu64 ",\"pid\":1,\"tid\":%u,\"ts\":%" PRIu64
            ",\"args\":{\"flow\":%u,\"src\":%u,\"dst\":%u,"
            "\"size_flits\":%u}}",
            pkt.flow, pkt.id, node, now, pkt.flow, pkt.src, pkt.dst,
            pkt.sizeFlits));
    }
}

void
TelemetryCollector::onFlitSourced(NodeId node, const Flit &flit,
                                  bool spec, Cycle now)
{
    (void)now;
    (void)flit;
    LaneCounters &c = laneRef(node, kNiLane);
    ++c.flitsForwarded;
    if (spec)
        ++c.specForwards;
}

void
TelemetryCollector::onFlitArrived(NodeId node, Port in, const Flit &flit,
                                  bool spec, Cycle now)
{
    (void)in;
    (void)flit;
    (void)spec;
    (void)now;
    ++buffered_[node];
}

void
TelemetryCollector::onFlitForwarded(NodeId node, Port out, const Flit &,
                                    bool spec, Cycle)
{
    LaneCounters &c = laneRef(node, portIndex(out));
    ++c.flitsForwarded;
    if (spec)
        ++c.specForwards;
    if (buffered_[node] > 0)
        --buffered_[node];
}

void
TelemetryCollector::onFlitEjected(NodeId node, const Flit &, Cycle)
{
    ++ejected_[node];
}

void
TelemetryCollector::onFlitDropped(NodeId node, const Flit &, Cycle)
{
    // A recovery give-up frees the dropped flits' buffer slots.
    if (buffered_[node] > 0)
        --buffered_[node];
}

void
TelemetryCollector::onLookaheadAdmitted(NodeId node, Port in,
                                        const LookaheadFlit &la,
                                        Cycle now)
{
    (void)la;
    (void)now;
    ++laneRef(node, portIndex(in)).lookaheadAdmits;
}

void
TelemetryCollector::onMissedSlot(NodeId node, Port out, Cycle now)
{
    (void)now;
    ++laneRef(node, portIndex(out)).missedSlots;
}

void
TelemetryCollector::onSchedGrant(const OutputScheduler &sched,
                                 FlowId flow, std::uint64_t quantum_no,
                                 Slot abs_slot, std::uint64_t frame,
                                 Cycle now)
{
    (void)flow;
    (void)quantum_no;
    (void)abs_slot;
    (void)frame;
    (void)now;
    ++cur_[schedLane(sched)].grants;
}

void
TelemetryCollector::onSchedSkipped(const OutputScheduler &sched,
                                   FlowId flow, std::uint32_t quanta,
                                   std::uint64_t frame, Cycle now)
{
    (void)flow;
    (void)frame;
    (void)now;
    cur_[schedLane(sched)].skippedQuanta += quanta;
}

void
TelemetryCollector::onSchedCreditReturn(const OutputScheduler &sched,
                                        Slot abs_slot)
{
    (void)abs_slot;
    ++cur_[schedLane(sched)].creditReturns;
}

void
TelemetryCollector::onSchedLocalReset(const OutputScheduler &sched,
                                      Cycle now)
{
    (void)now;
    ++cur_[schedLane(sched)].localResets;
}

void
TelemetryCollector::onFaultInjected(FaultKind kind, NodeId node,
                                    Cycle now)
{
    (void)kind;
    (void)now;
    if (node < numNodes_)
        ++faultsInjected_[node];
}

void
TelemetryCollector::onFaultDetected(FaultKind kind, NodeId node, Cycle,
                                    Cycle now)
{
    (void)kind;
    (void)now;
    if (node < numNodes_)
        ++faultsDetected_[node];
}

void
TelemetryCollector::onFaultRecovered(FaultKind kind, NodeId node, Cycle,
                                     Cycle now)
{
    (void)kind;
    (void)now;
    if (node < numNodes_)
        ++faultsRecovered_[node];
}

// ---------------------------------------------------------------------
// Epoch sampling
// ---------------------------------------------------------------------

void
TelemetryCollector::tick(Cycle now)
{
    if (now + 1 >= epochStart_ + cfg_.epochCycles && !finished_)
        closeEpoch(now + 1);
}

void
TelemetryCollector::finish(Cycle now)
{
    if (finished_)
        return;
    if (now > epochStart_)
        closeEpoch(now);
    finished_ = true;
}

void
TelemetryCollector::closeEpoch(Cycle end)
{
    // Refresh the reservation-table occupancy gauges from the live
    // schedulers (event replay would drift: frame recycling drops
    // stale bookings without an event). Purely const access.
    for (std::size_t idx = 0; idx < schedOfLane_.size(); ++idx) {
        if (!schedOfLane_[idx])
            continue;
        std::uint64_t n = 0;
        schedOfLane_[idx]->forEachBooking(
            [&n](Slot, const SlotBooking &) { ++n; });
        cur_[idx].tableOccupancy = n;
    }

    const auto lane_delta = [this](std::size_t i) {
        const LaneCounters &a = lastLanes_[i];
        const LaneCounters &b = cur_[i];
        LaneCounters d;
        d.flitsForwarded = b.flitsForwarded - a.flitsForwarded;
        d.specForwards = b.specForwards - a.specForwards;
        d.missedSlots = b.missedSlots - a.missedSlots;
        d.lookaheadAdmits = b.lookaheadAdmits - a.lookaheadAdmits;
        d.grants = b.grants - a.grants;
        d.creditReturns = b.creditReturns - a.creditReturns;
        d.skippedQuanta = b.skippedQuanta - a.skippedQuanta;
        d.localResets = b.localResets - a.localResets;
        d.tableOccupancy = b.tableOccupancy; // gauge, not a delta
        return d;
    };
    const auto node_delta = [this](std::size_t n) {
        NodeCounters d;
        d.bufferOccupancy = buffered_[n]; // gauge
        d.flitsEjected = ejected_[n] - lastEjected_[n];
        d.packetsDelivered = delivered_[n] - lastDelivered_[n];
        d.faultsInjected = faultsInjected_[n] - lastFaultsInjected_[n];
        d.faultsDetected = faultsDetected_[n] - lastFaultsDetected_[n];
        d.faultsRecovered = faultsRecovered_[n] - lastFaultsRecovered_[n];
        return d;
    };
    TelemetryEpoch ep;
    ep.start = epochStart_;
    ep.end = end;
    keepNonzero(ep.lanes, cur_.size(), lane_delta);
    keepNonzero(ep.nodes, numNodes_, node_delta);
    epochs_.push_back(std::move(ep));
    lastLanes_ = cur_;
    lastEjected_ = ejected_;
    lastDelivered_ = delivered_;
    lastFaultsInjected_ = faultsInjected_;
    lastFaultsDetected_ = faultsDetected_;
    lastFaultsRecovered_ = faultsRecovered_;
    epochStart_ = end;
}

// ---------------------------------------------------------------------
// Exports
// ---------------------------------------------------------------------

std::string
TelemetryCollector::timeSeriesCsv() const
{
    std::string out =
        "epoch,start_cycle,end_cycle,node,lane,flits_forwarded,"
        "spec_forwards,missed_slots,lookahead_admits,grants,"
        "credit_returns,skipped_quanta,local_resets,table_occupancy,"
        "buffer_occupancy,flits_ejected,packets_delivered,"
        "faults_injected,faults_detected,faults_recovered\n";
    for (std::size_t e = 0; e < epochs_.size(); ++e) {
        const TelemetryEpoch &ep = epochs_[e];
        for (std::size_t n = 0; n < numNodes_; ++n) {
            for (std::size_t l = 0; l < kNumLanes; ++l) {
                const LaneCounters &c = ep.lane(n * kNumLanes + l);
                // Node-level gauges ride on the NI lane row so every
                // (epoch, node) has them exactly once.
                const bool node_row = l == kNiLane;
                const NodeCounters &nc = ep.node(n);
                out += csprintf(
                    "%zu,%" PRIu64 ",%" PRIu64 ",%zu,%s,%" PRIu64
                    ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                    ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                    ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                    ",%" PRIu64 ",%" PRIu64 "\n",
                    e, ep.start, ep.end, n, laneName(l),
                    c.flitsForwarded, c.specForwards, c.missedSlots,
                    c.lookaheadAdmits, c.grants, c.creditReturns,
                    c.skippedQuanta, c.localResets, c.tableOccupancy,
                    node_row ? nc.bufferOccupancy : 0,
                    node_row ? nc.flitsEjected : 0,
                    node_row ? nc.packetsDelivered : 0,
                    node_row ? nc.faultsInjected : 0,
                    node_row ? nc.faultsDetected : 0,
                    node_row ? nc.faultsRecovered : 0);
            }
        }
    }
    return out;
}

std::string
TelemetryCollector::chromeTraceJson() const
{
    return noc::chromeTraceJson(trace_, width_, height_);
}

std::string
TelemetryCollector::heatmapCsv() const
{
    // Cycles observed = the span of all closed epochs.
    const Cycle cycles =
        epochs_.empty() ? 0 : epochs_.back().end - epochs_.front().start;
    const Mesh2D mesh(width_, height_);
    std::string out;
    for (std::uint32_t y = 0; y < height_; ++y) {
        for (std::uint32_t x = 0; x < width_; ++x) {
            const NodeId n = x + y * width_;
            std::uint64_t flits = 0;
            std::uint32_t active = 0;
            for (std::size_t p = 0; p < kNumPorts; ++p) {
                const LaneCounters &c = cur_[laneIndex(n, p)];
                flits += c.flitsForwarded;
                // Local is always wired; mesh edges lack some ports.
                const Port port = static_cast<Port>(p);
                if (port == Port::Local || mesh.hasNeighbor(n, port))
                    ++active;
            }
            const double util =
                cycles && active
                    ? static_cast<double>(flits) /
                          (static_cast<double>(cycles) * active)
                    : 0.0;
            out += csprintf("%s%.6f", x ? "," : "", util);
        }
        out += "\n";
    }
    return out;
}

ReportTable
TelemetryCollector::classLatencyTable() const
{
    ReportTable t("per-class packet latency (cycles)",
                  {"class", "packets", "mean", "p50", "p90", "p99",
                   "max"});
    for (std::size_t c = 0; c < classHist_.size(); ++c) {
        const LogHistogram &h = classHist_[c];
        t.addRow({classNames_[c],
                  static_cast<std::int64_t>(h.count()), h.mean(),
                  h.percentile(0.50), h.percentile(0.90),
                  h.percentile(0.99), h.maxSample()});
    }
    return t;
}

ReportTable
TelemetryCollector::hotLinksTable(std::size_t n) const
{
    struct Hot
    {
        NodeId node;
        std::size_t lane;
        std::uint64_t flits;
    };
    std::vector<Hot> hot;
    for (std::size_t node = 0; node < numNodes_; ++node)
        for (std::size_t l = 0; l < kNumLanes; ++l) {
            const std::uint64_t f =
                cur_[laneIndex(static_cast<NodeId>(node), l)]
                    .flitsForwarded;
            if (f)
                hot.push_back(
                    {static_cast<NodeId>(node), l, f});
        }
    std::stable_sort(hot.begin(), hot.end(),
                     [](const Hot &a, const Hot &b) {
                         return a.flits > b.flits;
                     });
    if (hot.size() > n)
        hot.resize(n);
    ReportTable t("hottest links (flits forwarded, full run)",
                  {"node", "lane", "flits"});
    for (const Hot &h : hot)
        t.addRow({static_cast<std::int64_t>(h.node),
                  std::string(laneName(h.lane)),
                  static_cast<std::int64_t>(h.flits)});
    return t;
}

} // namespace noc
