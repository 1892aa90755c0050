/**
 * @file
 * Property test for the Section 5.3.1 guarantee: on a LOFT network
 * whose flows stay within their reservations, every observed packet
 * latency respects the analytical bound F x WF x hops plus the NI
 * queue drain time, across traffic patterns and loads.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "qos/allocation.hh"
#include "qos/delay_bound.hh"

namespace noc
{
namespace
{

struct BoundCase
{
    const char *pattern;
    double rate;
    std::uint64_t seed;
};

// Without this gtest prints the raw bytes of the case, and the address
// of `pattern` in them changes from run to run, so the test names would.
void
PrintTo(const BoundCase &bc, std::ostream *os)
{
    *os << bc.pattern << " rate " << bc.rate << " seed " << bc.seed;
}

class DelayBound4x4 : public ::testing::TestWithParam<BoundCase>
{
};

TEST_P(DelayBound4x4, ObservedLatencyWithinAnalyticalBound)
{
    const BoundCase bc = GetParam();
    Mesh2D mesh(4, 4);
    RunConfig c;
    c.kind = NetKind::Loft;
    c.meshWidth = 4;
    c.meshHeight = 4;
    c.warmupCycles = 1000;
    c.measureCycles = 5000;
    c.seed = bc.seed;
    c.loft.frameSizeFlits = 64;
    c.loft.centralBufferFlits = 64;
    c.loft.specBufferFlits = 8;
    c.loft.maxFlows = 16;
    c.loft.sourceQueueFlits = 32;

    TrafficPattern p;
    const std::string name = bc.pattern;
    if (name == "hotspot")
        p = hotspotPattern(mesh, 15);
    else if (name == "transpose")
        p = transposePattern(mesh);
    else if (name == "neighbor")
        p = neighborPattern(mesh);
    else
        p = tornadoPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);

    const RunResult r = runExperiment(c, p, bc.rate);
    ASSERT_GT(r.totalPackets, 0u);

    for (std::size_t i = 0; i < p.flows.size(); ++i) {
        if (r.flowMaxLatency[i] == 0.0)
            continue;
        const std::uint32_t hops =
            flowHops(mesh, p.flows[i].src, p.flows[i].dst);
        const double bound =
            static_cast<double>(loftWorstCaseLatency(c.loft, hops));
        // Latency is measured from NI-queue entry: add the drain time
        // of a full 32-flit queue at the guaranteed rate (1/16), plus
        // the physical pipeline/link latency per hop, which the
        // frame-window bound does not count.
        const double queue_drain = 32.0 * 16.0;
        const double pipeline = hops *
            static_cast<double>(c.loft.routerStages +
                                c.loft.linkLatency + 2);
        // The queue drain and the per-hop windows compose with up to
        // one extra frame window of misalignment at the source NI.
        const double ni_window = static_cast<double>(
            c.loft.frameSizeFlits * c.loft.windowFrames);
        EXPECT_LE(r.flowMaxLatency[i],
                  bound + queue_drain + pipeline + ni_window)
            << bc.pattern << " flow " << i << " rate " << bc.rate;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DelayBound4x4,
    ::testing::Values(BoundCase{"hotspot", 0.05, 1},
                      BoundCase{"hotspot", 0.5, 2},
                      BoundCase{"transpose", 0.3, 3},
                      BoundCase{"neighbor", 0.6, 4},
                      BoundCase{"tornado", 0.4, 5}));

} // namespace
} // namespace noc
