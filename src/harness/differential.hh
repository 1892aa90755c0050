/**
 * @file
 * Differential cross-network testing: replay one identical trace
 * through two different network architectures and compare what was
 * delivered. Any lossless in-order network must hand every flow the
 * same flits in the same per-flow packet order, whatever its internal
 * protocol — so LOFT can be checked against the much simpler wormhole
 * baseline as an executable specification. Delivery is observed
 * through the audit instrumentation.
 */

#ifndef NOC_HARNESS_DIFFERENTIAL_HH
#define NOC_HARNESS_DIFFERENTIAL_HH

#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "traffic/trace.hh"

namespace noc
{

/** What one network delivered when fed a trace. */
struct ReplayOutcome
{
    /** Data flits ejected, per flow. */
    std::map<FlowId, std::uint64_t> deliveredFlits;
    /** Packet completion order, per flow. */
    std::map<FlowId, std::vector<PacketId>> packetOrder;
    std::uint64_t packetsInjected = 0;
    std::uint64_t packetsDelivered = 0;
    /** Trace fully injected and every packet delivered. */
    bool drained = false;
    /** Cycles simulated until drained (or the cap). */
    Cycle cycles = 0;
    /** Hard audit violations observed during the replay. */
    std::uint64_t auditHardViolations = 0;
    std::string auditReport;
};

/**
 * Replay @p trace through the network selected by @p config and run
 * until every packet is delivered or @p max_cycles elapse.
 */
ReplayOutcome replayTrace(const RunConfig &config, const Trace &trace,
                          Cycle max_cycles = 2000000);

/**
 * Compare two replay outcomes: equal per-flow delivered-flit counts
 * and identical per-flow packet completion order.
 * @return an empty string if equivalent, else a description of the
 *         first few divergences.
 */
std::string compareOutcomes(const ReplayOutcome &a,
                            const ReplayOutcome &b);

} // namespace noc

#endif // NOC_HARNESS_DIFFERENTIAL_HH
