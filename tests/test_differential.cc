/**
 * @file
 * Differential cross-network testing: the same trace replayed through
 * LOFT and through the plain wormhole baseline must deliver, per flow,
 * the same number of data flits and the same packet completion order.
 * The wormhole reference runs with a single virtual channel so it is a
 * strict per-flow FIFO — an executable specification of lossless
 * in-order delivery that LOFT's far more involved reservation protocol
 * has to match.
 */

#include <gtest/gtest.h>

#include "harness/differential.hh"
#include "sim/rng.hh"

namespace noc
{
namespace
{

/** Random trace over dedicated (src, dst) pairs of a 4x4 mesh. */
Trace
randomTrace(std::uint64_t seed, std::size_t packets, Cycle spreadCycles)
{
    // Distinct sources with distinct destinations: per-flow ordering
    // is well defined in both networks and flows never share an NI.
    const NodeId srcs[] = {0, 1, 2, 3, 4, 5, 6, 7};
    const NodeId dsts[] = {15, 14, 13, 12, 11, 10, 9, 8};

    Rng rng(seed);
    std::vector<Cycle> cycles;
    for (std::size_t i = 0; i < packets; ++i)
        cycles.push_back(rng.randRange(spreadCycles));
    std::sort(cycles.begin(), cycles.end());

    Trace t;
    for (std::size_t i = 0; i < packets; ++i) {
        const std::size_t f = rng.randRange(8);
        TraceEvent ev;
        ev.cycle = cycles[i];
        ev.src = srcs[f];
        ev.dst = dsts[f];
        ev.flow = static_cast<FlowId>(f);
        ev.sizeFlits = 1 + static_cast<std::uint32_t>(rng.randRange(6));
        t.add(ev);
    }
    return t;
}

RunConfig
loftConfig()
{
    RunConfig c;
    c.kind = NetKind::Loft;
    c.meshWidth = 4;
    c.meshHeight = 4;
    c.loft.frameSizeFlits = 64;
    c.loft.centralBufferFlits = 64;
    c.loft.specBufferFlits = 8;
    c.loft.maxFlows = 16;
    c.loft.sourceQueueFlits = 0; // never refuse a trace injection
    return c;
}

RunConfig
wormholeConfig()
{
    RunConfig c;
    c.kind = NetKind::Wormhole;
    c.meshWidth = 4;
    c.meshHeight = 4;
    // One VC: a strict per-flow FIFO reference. With several VCs a
    // wormhole network may legally reorder packets of one flow.
    c.wormhole.numVCs = 1;
    c.wormhole.vcDepthFlits = 8;
    return c;
}

class DifferentialSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DifferentialSweep, LoftMatchesWormholeReference)
{
    const Trace trace = randomTrace(GetParam(), 120, 3000);

    const ReplayOutcome loft = replayTrace(loftConfig(), trace);
    const ReplayOutcome worm = replayTrace(wormholeConfig(), trace);

    ASSERT_TRUE(loft.drained)
        << "LOFT failed to deliver the full trace: "
        << loft.packetsDelivered << "/" << trace.size()
        << "\n" << loft.auditReport;
    ASSERT_TRUE(worm.drained)
        << "wormhole failed to deliver the full trace: "
        << worm.packetsDelivered << "/" << trace.size();

    EXPECT_EQ(loft.auditHardViolations, 0u) << loft.auditReport;
    EXPECT_EQ(worm.auditHardViolations, 0u) << worm.auditReport;

    const std::string diff = compareOutcomes(loft, worm);
    EXPECT_TRUE(diff.empty()) << diff;
    EXPECT_EQ(loft.packetsDelivered, trace.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSweep,
                         ::testing::Values(1u, 2u, 3u, 21u, 77u,
                                           0xc0ffeeu));

TEST(Differential, SpeculationOffStillMatchesReference)
{
    const Trace trace = randomTrace(5, 80, 2000);
    RunConfig plain = loftConfig();
    plain.loft.speculativeSwitching = false;
    plain.loft.specBufferFlits = 0;

    const ReplayOutcome loft = replayTrace(plain, trace);
    const ReplayOutcome worm = replayTrace(wormholeConfig(), trace);
    ASSERT_TRUE(loft.drained) << loft.auditReport;
    ASSERT_TRUE(worm.drained);
    const std::string diff = compareOutcomes(loft, worm);
    EXPECT_TRUE(diff.empty()) << diff;
}

TEST(Differential, ReplayLogMatchesTrace)
{
    // The single-VC wormhole reference is a strict per-flow FIFO, so
    // its log must hold each flow's trace flits and packets in trace
    // order (the replayer numbers packets 1 + trace index).
    const Trace trace = randomTrace(9, 80, 2000);
    std::map<FlowId, std::uint64_t> flits;
    std::map<FlowId, std::vector<PacketId>> order;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceEvent &ev = trace.events()[i];
        flits[ev.flow] += ev.sizeFlits;
        order[ev.flow].push_back(i + 1);
    }

    const ReplayOutcome worm = replayTrace(wormholeConfig(), trace);
    ASSERT_TRUE(worm.drained);
    EXPECT_EQ(worm.deliveredFlits, flits);
    EXPECT_EQ(worm.packetOrder, order);
    EXPECT_EQ(worm.packetsDelivered, trace.size());
}

TEST(Differential, CompareDetectsDivergence)
{
    ReplayOutcome a;
    a.deliveredFlits[0] = 10;
    a.packetOrder[0] = {1, 2, 3};
    a.packetsDelivered = 3;
    ReplayOutcome b = a;
    EXPECT_TRUE(compareOutcomes(a, b).empty());

    b.deliveredFlits[0] = 9;
    b.packetOrder[0] = {1, 3, 2};
    EXPECT_FALSE(compareOutcomes(a, b).empty());
}

} // namespace
} // namespace noc
