/**
 * @file
 * Fault-injection & recovery tests: FaultingChannel semantics at the
 * single-link level, injector determinism, and end-to-end runs where
 * every fault class is injected, detected and recovered (or accounted
 * as dropped) without tripping the deadlock watchdog.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "faults/fault_injector.hh"
#include "faults/fault_monitor.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "net/flit.hh"
#include "qos/allocation.hh"

namespace noc
{
namespace
{

/** A plan with every class enabled at @p rate per link-cycle. */
FaultPlan
allFaultsPlan(double rate, std::uint64_t seed = 0)
{
    FaultPlan plan;
    plan.enabled = true;
    plan.lookaheadDropRate = rate;
    plan.creditLossRate = rate;
    plan.creditCorruptRate = rate;
    plan.dataCorruptRate = rate;
    plan.linkStallRate = rate;
    plan.seed = seed;
    return plan;
}

TEST(FaultInjector, InactivePlanInstrumentsNothing)
{
    FaultPlan inert; // default: disabled, all rates zero
    FaultInjector off(inert);
    Channel<DataWireFlit> ch(1);
    off.instrument(ch, 0);
    EXPECT_EQ(off.faultedLinks(), 0u);

    FaultPlan enabled_no_rates;
    enabled_no_rates.enabled = true;
    FaultInjector still_off(enabled_no_rates);
    still_off.instrument(ch, 0);
    EXPECT_EQ(still_off.faultedLinks(), 0u);
}

TEST(FaultInjector, SkipsClassesWithoutApplicableRates)
{
    // A LOFT-credit-only plan must leave a data link uninstrumented.
    FaultPlan plan;
    plan.enabled = true;
    plan.creditLossRate = 0.5;
    FaultInjector inj(plan);
    Channel<DataWireFlit> data(1);
    Channel<ActualCreditMsg> credit(1);
    inj.instrument(data, 0);
    inj.instrument(credit, 0);
    EXPECT_EQ(inj.faultedLinks(), 1u);
}

/** A plan that arms only @p kind. */
FaultPlan
onlyPlan(FaultKind kind)
{
    FaultPlan plan;
    plan.enabled = true;
    switch (kind) {
      case FaultKind::LookaheadDrop:
        plan.lookaheadDropRate = 0.5;
        break;
      case FaultKind::CreditLoss:
        plan.creditLossRate = 0.5;
        break;
      case FaultKind::CreditCorrupt:
        plan.creditCorruptRate = 0.5;
        break;
      case FaultKind::DataCorrupt:
        plan.dataCorruptRate = 0.5;
        break;
      case FaultKind::LinkStall:
        plan.linkStallRate = 0.5;
        break;
    }
    return plan;
}

/** The fault classes the injector attaches to a wire of type @p T. */
template <typename T>
std::vector<FaultKind>
classesCarriedBy()
{
    std::vector<FaultKind> carried;
    for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        FaultInjector inj(onlyPlan(kind));
        Channel<T> ch(1);
        inj.instrument(ch, 0);
        if (inj.faultedLinks() != 0)
            carried.push_back(kind);
    }
    return carried;
}

TEST(FaultInjector, WireTypeDecidesFaultClasses)
{
    using K = FaultKind;
    const std::vector<K> credit{K::CreditLoss, K::CreditCorrupt,
                                K::LinkStall};
    const std::vector<K> flit{K::DataCorrupt, K::LinkStall};
    EXPECT_EQ(classesCarriedBy<LaWireFlit>(),
              (std::vector<K>{K::LookaheadDrop, K::LinkStall}));
    EXPECT_EQ(classesCarriedBy<LaCredit>(), credit);
    EXPECT_EQ(classesCarriedBy<ActualCreditMsg>(), credit);
    EXPECT_EQ(classesCarriedBy<VirtualCreditMsg>(), credit);
    EXPECT_EQ(classesCarriedBy<DataWireFlit>(), flit);
    EXPECT_EQ(classesCarriedBy<WireFlit>(), flit);
    EXPECT_EQ(classesCarriedBy<Credit>(), std::vector<K>{K::LinkStall});
}

/** Records every onFault* event for the channel-level tests. */
struct RecordingObserver final : NetObserver
{
    struct Event
    {
        FaultKind kind;
        Cycle injectedAt;
        Cycle now;
    };
    std::array<std::uint64_t, kNumFaultKinds> injected{};
    std::vector<Event> detected;
    std::vector<Event> recovered;

    void
    onFaultInjected(FaultKind kind, NodeId, Cycle) override
    {
        ++injected[static_cast<std::size_t>(kind)];
    }
    void
    onFaultDetected(FaultKind kind, NodeId, Cycle at, Cycle now) override
    {
        detected.push_back({kind, at, now});
    }
    void
    onFaultRecovered(FaultKind kind, NodeId, Cycle at, Cycle now) override
    {
        recovered.push_back({kind, at, now});
    }
};

TEST(FaultingChannel, CreditLossResynchronizesLate)
{
    FaultPlan plan;
    plan.enabled = true;
    plan.creditLossRate = 1.0; // every send faulted
    plan.resyncLatency = 50;
    FaultInjector inj(plan);
    RecordingObserver obs;
    inj.setObserver(&obs);

    Channel<ActualCreditMsg> ch(1);
    inj.instrument(ch, 3);
    ASSERT_EQ(inj.faultedLinks(), 1u);

    ch.send(10, ActualCreditMsg{});
    EXPECT_FALSE(ch.ready(11)) << "lost credit must not arrive on time";
    // Resync rides on top of the wire delay: send at 10, latency 1,
    // resyncLatency 50 -> re-delivery at 61, never earlier.
    EXPECT_FALSE(ch.ready(60));
    auto msg = ch.tryReceive(61);
    ASSERT_TRUE(msg.has_value());
    EXPECT_TRUE(msg->fault.resync);
    EXPECT_FALSE(msg->fault.corrupted);
    EXPECT_EQ(msg->fault.kind, FaultKind::CreditLoss);
    EXPECT_EQ(msg->fault.faultAt, 10u);
    EXPECT_EQ(obs.injected[static_cast<std::size_t>(FaultKind::CreditLoss)],
              1u);

    // The receiver-side CRC check applies the resync and reports the
    // loss as detected + recovered at re-delivery time.
    EXPECT_TRUE(acceptCredit(*msg, &obs, 3, 61));
    ASSERT_EQ(obs.detected.size(), 1u);
    EXPECT_EQ(obs.detected[0].kind, FaultKind::CreditLoss);
    ASSERT_EQ(obs.recovered.size(), 1u);
    EXPECT_EQ(obs.recovered[0].now, 61u);
}

TEST(FaultingChannel, CreditCorruptDeliversGarbledCopyThenResync)
{
    FaultPlan plan;
    plan.enabled = true;
    plan.creditCorruptRate = 1.0;
    plan.resyncLatency = 40;
    FaultInjector inj(plan);
    RecordingObserver obs;
    inj.setObserver(&obs);

    Channel<VirtualCreditMsg> ch(1);
    inj.instrument(ch, 5);

    VirtualCreditMsg vc;
    vc.departSlot = 7;
    ch.send(10, vc);

    // The garbled copy arrives on time and fails its CRC.
    auto garbled = ch.tryReceive(11);
    ASSERT_TRUE(garbled.has_value());
    EXPECT_TRUE(garbled->fault.corrupted);
    EXPECT_FALSE(acceptCredit(*garbled, &obs, 5, 11));
    ASSERT_EQ(obs.detected.size(), 1u);
    EXPECT_EQ(obs.detected[0].kind, FaultKind::CreditCorrupt);

    // The intact original follows at the resynchronization horizon
    // (wire latency + resyncLatency after the send).
    EXPECT_FALSE(ch.ready(50));
    auto resync = ch.tryReceive(51);
    ASSERT_TRUE(resync.has_value());
    EXPECT_TRUE(resync->fault.resync);
    EXPECT_FALSE(resync->fault.corrupted);
    EXPECT_EQ(resync->departSlot, 7u);
    EXPECT_TRUE(acceptCredit(*resync, &obs, 5, 51));
    ASSERT_EQ(obs.recovered.size(), 1u);
    EXPECT_EQ(obs.recovered[0].kind, FaultKind::CreditCorrupt);
}

TEST(FaultingChannel, LookaheadDropArrivesCrcDead)
{
    FaultPlan plan;
    plan.enabled = true;
    plan.lookaheadDropRate = 1.0;
    FaultInjector inj(plan);

    Channel<LaWireFlit> ch(1);
    inj.instrument(ch, 2);

    LaWireFlit la;
    la.vc = 1;
    ch.send(5, la);
    auto msg = ch.tryReceive(6);
    ASSERT_TRUE(msg.has_value()) << "the CRC-failed frame still arrives";
    EXPECT_TRUE(msg->fault.corrupted);
    EXPECT_EQ(msg->fault.kind, FaultKind::LookaheadDrop);
    EXPECT_EQ(msg->vc, 1u) << "link framing (the VC tag) survives";
}

TEST(FaultingChannel, DataCorruptFlipsExactlyOnePayloadBit)
{
    FaultPlan plan;
    plan.enabled = true;
    plan.dataCorruptRate = 1.0;
    FaultInjector inj(plan);

    Channel<DataWireFlit> ch(1);
    inj.instrument(ch, 4);

    DataWireFlit wf;
    wf.flit.flow = 3;
    wf.flit.flitNo = 9;
    wf.flit.payload = flitPayload(3, 9);
    ch.send(20, wf);
    auto got = ch.tryReceive(21);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(std::popcount(got->flit.payload ^ flitPayload(3, 9)), 1);
    EXPECT_EQ(got->corruptedAt, 20u);
    EXPECT_EQ(got->flit.flow, 3u) << "headers are ECC-protected";
}

TEST(FaultingChannel, LinkStallGatesReadinessAndIsDetectedOnce)
{
    FaultPlan plan;
    plan.enabled = true;
    plan.linkStallRate = 1.0;
    plan.stallCycles = 16;
    plan.stopCycle = 2; // exactly one stall event (at cycle 1)
    FaultInjector inj(plan);
    RecordingObserver obs;
    inj.setObserver(&obs);

    Channel<DataWireFlit> ch(1);
    inj.instrument(ch, 6);

    ch.send(0, DataWireFlit{});
    EXPECT_FALSE(ch.ready(5)) << "stalled until cycle 17";
    EXPECT_FALSE(ch.ready(16));
    EXPECT_TRUE(ch.ready(17));
    EXPECT_EQ(obs.injected[static_cast<std::size_t>(FaultKind::LinkStall)],
              1u);
    ASSERT_EQ(obs.detected.size(), 1u);
    EXPECT_EQ(obs.detected[0].kind, FaultKind::LinkStall);
    EXPECT_EQ(obs.detected[0].injectedAt, 1u);
}

TEST(FaultingChannel, StallTallyIsIndependentOfQueryCadence)
{
    FaultPlan plan;
    plan.enabled = true;
    plan.linkStallRate = 1e-2;
    plan.seed = 4;
    FaultInjector every_inj(plan);
    FaultInjector seventh_inj(plan);
    RecordingObserver every_obs;
    RecordingObserver seventh_obs;
    every_inj.setObserver(&every_obs);
    seventh_inj.setObserver(&seventh_obs);
    Channel<DataWireFlit> every(1);
    Channel<DataWireFlit> seventh(1);
    every_inj.instrument(every, 3);
    seventh_inj.instrument(seventh, 3);
    // A value held in flight makes every ready() ask the stall stream.
    every.send(0, DataWireFlit{});
    seventh.send(0, DataWireFlit{});

    constexpr auto kStall = static_cast<std::size_t>(FaultKind::LinkStall);
    std::size_t stalled_answers = 0;
    for (Cycle t = 1; t <= 20000; ++t) {
        const bool ready = every.ready(t);
        if (t % 7 != 0)
            continue;
        // Events that fall between two of the sparse receiver's queries
        // are each injected, not folded into one.
        EXPECT_EQ(seventh.ready(t), ready) << "cycle " << t;
        EXPECT_EQ(seventh_obs.injected[kStall], every_obs.injected[kStall])
            << "cycle " << t;
        stalled_answers += !ready;
    }
    EXPECT_GT(every_obs.injected[kStall], 100u);
    EXPECT_GT(stalled_answers, 0u);
}

TEST(FaultingChannel, StreamsAreDeterministicPerSeed)
{
    const auto trace = [](std::uint64_t seed) {
        FaultPlan plan;
        plan.enabled = true;
        plan.dataCorruptRate = 0.05;
        plan.seed = seed;
        FaultInjector inj(plan);
        Channel<DataWireFlit> ch(1);
        inj.instrument(ch, 0);
        std::vector<std::uint64_t> payloads;
        for (Cycle t = 0; t < 2000; ++t) {
            DataWireFlit wf;
            wf.flit.payload = flitPayload(0, t);
            ch.send(t, wf);
            auto got = ch.tryReceive(t + 1);
            payloads.push_back(got ? got->flit.payload : 0);
        }
        return payloads;
    };
    EXPECT_EQ(trace(7), trace(7));
    EXPECT_NE(trace(7), trace(8));
}

/// ---------------------------------------------------------------
/// End-to-end: faulted runs through the experiment harness.
/// ---------------------------------------------------------------

RunConfig
faultyLoft(std::uint64_t seed, const FaultPlan &plan)
{
    RunConfig c;
    c.kind = NetKind::Loft;
    c.meshWidth = 4;
    c.meshHeight = 4;
    c.warmupCycles = 1500;
    c.measureCycles = 6000;
    c.seed = seed;
    c.loft.frameSizeFlits = 64;
    c.loft.centralBufferFlits = 64;
    c.loft.specBufferFlits = 8;
    c.loft.maxFlows = 16;
    c.loft.sourceQueueFlits = 32;
    c.faults = plan;
    return c;
}

RunResult
faultyRun(const RunConfig &c, double load = 0.2)
{
    Mesh2D mesh(c.meshWidth, c.meshHeight);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    return runExperiment(c, p, load);
}

std::uint64_t
countOf(const std::array<std::uint64_t, kNumFaultKinds> &a, FaultKind k)
{
    return a[static_cast<std::size_t>(k)];
}

TEST(FaultRuns, EveryClassInjectedDetectedAndSurvivedOnLoft)
{
    const RunResult r = faultyRun(faultyLoft(42, allFaultsPlan(1e-3)));

    for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        EXPECT_GT(countOf(r.faultsInjected, kind), 0u)
            << faultKindName(kind);
        EXPECT_GT(countOf(r.faultsDetected, kind), 0u)
            << faultKindName(kind);
    }
    // Recoverable classes actually recover.
    EXPECT_GT(countOf(r.faultsRecovered, FaultKind::CreditLoss), 0u);
    EXPECT_GT(countOf(r.faultsRecovered, FaultKind::CreditCorrupt), 0u);
    EXPECT_GT(countOf(r.faultsRecovered, FaultKind::DataCorrupt), 0u);

    // The network keeps making progress: no deadlock-watchdog trips
    // and the vast majority of accepted packets still deliver.
    EXPECT_EQ(r.auditWatchdogs, 0u);
    EXPECT_GT(r.packetSurvivalRate, 0.9);
    EXPECT_GT(r.networkThroughput, 0.1);
    EXPECT_GT(r.faultDetectionP99, 0.0);
}

TEST(FaultRuns, LookaheadDropsAreReissuedByRecovery)
{
    FaultPlan plan;
    plan.enabled = true;
    plan.lookaheadDropRate = 2e-3;
    const RunResult r = faultyRun(faultyLoft(7, plan));

    EXPECT_GT(countOf(r.faultsInjected, FaultKind::LookaheadDrop), 0u);
    EXPECT_GT(r.lookaheadReissues, 0u)
        << "recovery must re-issue timed-out reservations";
    EXPECT_GT(countOf(r.faultsDetected, FaultKind::LookaheadDrop), 0u);
    // Every drop is recovered or its flits are accounted as dropped;
    // nothing may linger unclaimed (the watchdog would trip).
    EXPECT_EQ(r.auditWatchdogs, 0u);
    EXPECT_GT(r.packetSurvivalRate, 0.9);
}

TEST(FaultRuns, FaultedRunsAreDeterministic)
{
    const RunConfig c = faultyLoft(42, allFaultsPlan(1e-3));
    EXPECT_EQ(sweepFingerprint(faultyRun(c)),
              sweepFingerprint(faultyRun(c)));

    RunConfig other = c;
    other.faults.seed = 99;
    EXPECT_NE(sweepFingerprint(faultyRun(c)),
              sweepFingerprint(faultyRun(other)));
}

TEST(FaultRuns, NonLoftNetworksSeeOnlyFabricFaultClasses)
{
    for (const NetKind kind : {NetKind::Wormhole, NetKind::Gsf}) {
        RunConfig c = faultyLoft(42, allFaultsPlan(1e-3));
        c.kind = kind;
        c.gsf.frameSizeFlits = 500;
        const RunResult r = faultyRun(c, 0.1);

        EXPECT_EQ(countOf(r.faultsInjected, FaultKind::LookaheadDrop),
                  0u);
        EXPECT_EQ(countOf(r.faultsInjected, FaultKind::CreditLoss), 0u);
        EXPECT_EQ(countOf(r.faultsInjected, FaultKind::CreditCorrupt),
                  0u);
        EXPECT_GT(countOf(r.faultsInjected, FaultKind::DataCorrupt), 0u);
        EXPECT_GT(countOf(r.faultsInjected, FaultKind::LinkStall), 0u);
        EXPECT_GT(countOf(r.faultsDetected, FaultKind::DataCorrupt), 0u);
        EXPECT_GT(r.packetSurvivalRate, 0.9);
    }
}

TEST(FaultRuns, LoftOnlyClassesLeaveFabricsBare)
{
    // No wormhole or GSF wire carries look-ahead or credit faults, so
    // such a plan instruments nothing there and the run stays bare.
    FaultPlan plan;
    plan.enabled = true;
    plan.lookaheadDropRate = 1e-3;
    plan.creditLossRate = 1e-3;
    plan.creditCorruptRate = 1e-3;
    for (const NetKind kind : {NetKind::Wormhole, NetKind::Gsf}) {
        RunConfig bare = faultyLoft(42, FaultPlan{});
        bare.kind = kind;
        bare.gsf.frameSizeFlits = 500;
        RunConfig faulted = bare;
        faulted.faults = plan;
        const RunResult r = faultyRun(faulted, 0.1);

        EXPECT_EQ(sweepFingerprint(r),
                  sweepFingerprint(faultyRun(bare, 0.1)))
            << netKindName(kind);
        EXPECT_EQ(r.packetSurvivalRate, 1.0);
        for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
            EXPECT_EQ(r.faultsInjected[k], 0u);
            EXPECT_EQ(r.faultsDetected[k], 0u);
            EXPECT_EQ(r.faultsRecovered[k], 0u);
        }
    }
}

} // namespace
} // namespace noc
