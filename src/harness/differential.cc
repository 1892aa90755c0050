#include "harness/differential.hh"

#include <sstream>

#include "audit/network_auditor.hh"
#include "net/observer_mux.hh"
#include "sim/simulator.hh"

namespace noc
{

namespace
{

/** Logs what the sinks deliver into a ReplayOutcome, as it happens. */
class DeliveryLog final : public NetObserver
{
  public:
    explicit DeliveryLog(ReplayOutcome &out) : out_(out) {}

  protected:
    void onFlitEjected(NodeId, const Flit &flit, Cycle) override
    {
        ++out_.deliveredFlits[flit.flow];
    }

    void onPacketDelivered(NodeId, FlowId flow, PacketId pkt,
                           Cycle) override
    {
        out_.packetOrder[flow].push_back(pkt);
        ++out_.packetsDelivered;
    }

  private:
    ReplayOutcome &out_;
};

} // namespace

ReplayOutcome
replayTrace(const RunConfig &config, const Trace &trace,
            Cycle max_cycles)
{
    ReplayOutcome out;

    Mesh2D mesh(config.meshWidth, config.meshHeight);
    std::unique_ptr<Network> net = buildNetwork(config, mesh);
    NetworkAuditor auditor(*net);
    DeliveryLog log(out);
    ObserverMux mux;
    mux.add(&auditor);
    mux.add(&log);
    net->setObserver(&mux);
    net->registerFlows(trace.flowTable());

    TraceReplayer replayer(*net, trace);

    Simulator sim;
    sim.add(&replayer);
    net->attach(sim);
    auditor.attach(sim);
    sim.addMerged(&mux);

    const std::uint64_t expected = trace.size();
    out.drained = sim.runUntil(
        [&] {
            return replayer.done() && out.packetsDelivered >= expected;
        },
        max_cycles);
    // Let in-flight credits and counters settle before the final audit.
    sim.run(64);
    auditor.finalCheck(sim.now());

    out.cycles = sim.now();
    out.packetsInjected = replayer.injected();
    out.auditHardViolations = auditor.hardViolationCount();
    if (auditor.violationCount())
        out.auditReport = auditor.report();
    return out;
}

std::string
compareOutcomes(const ReplayOutcome &a, const ReplayOutcome &b)
{
    std::ostringstream os;
    int diffs = 0;
    const int maxDiffs = 8;

    auto note = [&](const std::string &line) {
        if (diffs < maxDiffs)
            os << line << "\n";
        ++diffs;
    };

    if (a.packetsDelivered != b.packetsDelivered)
        note("delivered packet totals differ: " +
             std::to_string(a.packetsDelivered) + " vs " +
             std::to_string(b.packetsDelivered));

    // Per-flow delivered flit counts.
    for (const auto &[flow, count] : a.deliveredFlits) {
        auto it = b.deliveredFlits.find(flow);
        const std::uint64_t other =
            it == b.deliveredFlits.end() ? 0 : it->second;
        if (count != other)
            note("flow " + std::to_string(flow) + ": " +
                 std::to_string(count) + " vs " + std::to_string(other) +
                 " flits delivered");
    }
    for (const auto &[flow, count] : b.deliveredFlits) {
        if (a.deliveredFlits.count(flow) == 0 && count != 0)
            note("flow " + std::to_string(flow) +
                 ": 0 vs " + std::to_string(count) + " flits delivered");
    }

    // Per-flow packet completion order.
    for (const auto &[flow, order] : a.packetOrder) {
        auto it = b.packetOrder.find(flow);
        if (it == b.packetOrder.end()) {
            note("flow " + std::to_string(flow) +
                 ": packets delivered by one network only");
            continue;
        }
        const auto &otherOrder = it->second;
        const std::size_t n =
            std::min(order.size(), otherOrder.size());
        for (std::size_t i = 0; i < n; ++i) {
            if (order[i] != otherOrder[i]) {
                note("flow " + std::to_string(flow) +
                     ": packet order diverges at position " +
                     std::to_string(i) + " (" +
                     std::to_string(order[i]) + " vs " +
                     std::to_string(otherOrder[i]) + ")");
                break;
            }
        }
        if (order.size() != otherOrder.size())
            note("flow " + std::to_string(flow) + ": " +
                 std::to_string(order.size()) + " vs " +
                 std::to_string(otherOrder.size()) +
                 " packets delivered");
    }

    if (diffs > maxDiffs)
        os << "... " << (diffs - maxDiffs) << " more difference(s)\n";
    return os.str();
}

} // namespace noc
