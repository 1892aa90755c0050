/**
 * @file
 * PhaseSanitizer tests: deliberate violations of the three-phase
 * concurrency contract must abort with the (component, cycle, phase,
 * domain) report, the shims must be inert when disabled, and enabling
 * the sanitizer must not perturb a run's fingerprint at any worker
 * count (the shims only read simulation state).
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "harness/sweep.hh"
#include "net/channel.hh"
#include "net/metrics.hh"
#include "net/observer_mux.hh"
#include "qos/allocation.hh"
#include "sim/parallel.hh"
#include "sim/phase_sanitizer.hh"
#include "sim/simulator.hh"

namespace noc
{
namespace
{

RunConfig
smallConfig(NetKind kind)
{
    RunConfig c;
    c.kind = kind;
    c.meshWidth = 4;
    c.meshHeight = 4;
    c.warmupCycles = 400;
    c.measureCycles = 900;
    c.loft.frameSizeFlits = 64;
    c.loft.centralBufferFlits = 64;
    c.loft.specBufferFlits = 8;
    c.loft.maxFlows = 16;
    c.loft.sourceQueueFlits = 32;
    c.applyEnvScale();
    return c;
}

TrafficPattern
smallPattern()
{
    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    return p;
}

/// ---------------------------------------------------------------
/// Deliberate contract violations: each must abort with the full
/// (component, cycle, phase, domain) attribution. All state is set
/// inside the death statement so only the forked child is poisoned.
/// ---------------------------------------------------------------

TEST(PhaseSanitizerDeathTest, FlushPendingInsidePartitionedPhaseAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            psan::setEnabledForTest(1);
            Channel<int> ch;
            ch.setConcurrent(true);
            par::ctx().component = 7;
            par::ctx().domain = 2;
            LOFT_PSAN_SET_PHASE(SimPhase::Partitioned, 42);
            ch.flushPending(); // the PR-6 opportunistic local reset
        },
        "PhaseSanitizer: Channel::flushPending: barrier-owned seam "
        "entered from inside a simulation phase "
        "\\(component 7, cycle 42, phase partitioned, domain 2\\)");
}

TEST(PhaseSanitizerDeathTest, SendWhileBarrierPublishesAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            psan::setEnabledForTest(1);
            Channel<int> ch;
            ch.setConcurrent(true);
            par::ctx().component = 3;
            LOFT_PSAN_SET_PHASE(SimPhase::Barrier, 9);
            ch.send(9, 1);
        },
        "PhaseSanitizer: Channel::send: send while the barrier "
        "publishes channel state "
        "\\(component 3, cycle 9, phase barrier,");
}

TEST(PhaseSanitizerDeathTest, MergeDomainsInsidePartitionedPhaseAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            psan::setEnabledForTest(1);
            MetricsCollector mc(4);
            mc.beginParallel(2); // legal: still idle
            LOFT_PSAN_SET_PHASE(SimPhase::Partitioned, 11);
            mc.mergeDomains();
        },
        "PhaseSanitizer: MetricsCollector::mergeDomains: barrier-owned "
        "seam entered from inside a simulation phase");
}

TEST(PhaseSanitizerDeathTest, DirectDeliveryInsidePartitionedPhaseAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A shared consumer whose hook takes the direct path while the
    // partitioned phase runs: exactly the PR-6 bug class at runtime.
    EXPECT_DEATH(
        {
            psan::setEnabledForTest(1);
            MetricsCollector mc(4);
            LOFT_PSAN_SET_PHASE(SimPhase::Partitioned, 5);
            mc.onFlitEjected(0); // no domain buffers -> direct path
        },
        "PhaseSanitizer: MetricsCollector::onFlitEjected: shared "
        "consumer state mutated directly from the partitioned phase");
}

TEST(PhaseSanitizerDeathTest, LeakedDomainContextAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A thread still claiming a domain after the partitioned phase
    // ended would keep buffering events the barrier already merged.
    EXPECT_DEATH(
        {
            psan::setEnabledForTest(1);
            MetricsCollector mc(4);
            mc.beginParallel(2);
            par::ctx().domain = 0;
            LOFT_PSAN_SET_PHASE(SimPhase::Epilogue, 13);
            mc.onFlitEjected(1);
        },
        "PhaseSanitizer: MetricsCollector::onFlitEjected: per-domain "
        "deferred buffering outside the partitioned phase "
        "\\(leaked domain context\\)");
}

TEST(PhaseSanitizerDeathTest, LeakedDomainContextAbortsInAOneDomainWindow)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A one-domain window applies records at once instead of buffering
    // them, and still catches a thread claiming its domain too long.
    EXPECT_DEATH(
        {
            psan::setEnabledForTest(1);
            MetricsCollector mc(4);
            mc.beginParallel(1);
            par::ctx().domain = 0;
            LOFT_PSAN_SET_PHASE(SimPhase::Epilogue, 13);
            mc.onFlitEjected(1);
        },
        "PhaseSanitizer: MetricsCollector::onFlitEjected: per-domain "
        "deferred buffering outside the partitioned phase "
        "\\(leaked domain context\\)");
}

TEST(PhaseSanitizerDeathTest, UnregisteredObserverMuxAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // No simulator opened a window on this mux (Simulator::addMerged),
    // so the domain's event would reach the targets unmerged.
    EXPECT_DEATH(
        {
            psan::setEnabledForTest(1);
            ObserverMux mux;
            par::ctx().domain = 0;
            LOFT_PSAN_SET_PHASE(SimPhase::Partitioned, 5);
            mux.consume({.kind = NetEvent::Kind::FlitEjected, .node = 2});
        },
        "PhaseSanitizer: ObserverMux::consume: shared consumer state "
        "mutated directly from the partitioned phase");
}

/** A keyed component that sleeps while it has no work. */
class Napper final : public Clocked
{
  public:
    void
    tick(Cycle now) override
    {
        if (work != 0)
            --work;
        if (onTick)
            onTick(now);
    }

    bool quiescent() const override { return work == 0; }

    std::uint32_t work = 0;
    std::function<void(Cycle)> onTick;
};

TEST(PhaseSanitizerDeathTest, MutationWithoutWakeAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A hands b work from its tick but forgets b.wake(): b stays
    // asleep though no longer quiescent, and the next phase start
    // catches it.
    EXPECT_DEATH(
        {
            psan::setEnabledForTest(1);
            Simulator sim;
            Napper a;
            Napper b;
            sim.add(&a, 0);
            sim.add(&b, 0);
            a.work = 5;
            a.onTick = [&](Cycle now) {
                if (now == 2)
                    b.work = 1;
            };
            sim.run(5);
        },
        "PhaseSanitizer: Simulator::runDomain: sleeping component is "
        "not quiescent .*\\(component 1, cycle 3, phase partitioned, "
        "domain 0\\)");
}

TEST(PhaseSanitizerDeathTest, CrossDomainWakeAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Keys 0 and 3 split into domains 0 and 1 at two workers; domain
    // 1's bitset belongs to the worker thread during the phase.
    EXPECT_DEATH(
        {
            psan::setEnabledForTest(1);
            Simulator sim;
            Napper near;
            Napper far;
            sim.add(&near, 0);
            sim.add(&far, 3);
            sim.setWorkers(2);
            near.work = 5;
            near.onTick = [&](Cycle now) {
                if (now == 2)
                    far.wake();
            };
            sim.run(5);
        },
        "PhaseSanitizer: Clocked::wake: cross-domain wake of a "
        "domain-1 component .*\\(component 0, cycle 2, phase "
        "partitioned, domain 0\\)");
}

/** Reads one wire but clears its mail bit instead of draining it. */
class PostDropper final : public Clocked
{
  public:
    explicit PostDropper(Channel<int> *in) : in_(in)
    {
        in->setReader(this, 2);
    }

    void tick(Cycle) override { in_->debugDropPost(); }

    bool quiescent() const override { return mail() == 0; }

  private:
    Channel<int> *in_;
};

TEST(PhaseSanitizerDeathTest, LostPostAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // The value sent at cycle 2 wakes the reader for cycle 3, whose
    // tick drops the post with the value still queued: the reader
    // would sleep on it, and its quiescent() cannot tell.
    EXPECT_DEATH(
        {
            psan::setEnabledForTest(1);
            Simulator sim;
            Channel<int> wire(1);
            PostDropper reader(&wire);
            Napper sender;
            sim.add(&reader, 0);
            sim.add(&sender, 0);
            sim.addPort(&wire);
            sender.work = 5;
            sender.onTick = [&](Cycle now) {
                if (now == 2)
                    wire.send(now, 1);
            };
            sim.run(5);
        },
        "PhaseSanitizer: Simulator::runCycle: mail bit of input port 2 "
        "of its reader \\(.*PostDropper\\) is clear though the channel "
        "holds a value .*\\(component 0, cycle 3, phase barrier");
}

/// ---------------------------------------------------------------
/// Gating: every shim sits behind the enable check, so a disabled
/// sanitizer never inspects (or aborts on) anything.
/// ---------------------------------------------------------------

TEST(PhaseSanitizer, DisabledShimsAreInert)
{
    Channel<int> ch;
    ch.setConcurrent(true);
    psan::setEnabledForTest(1);
    LOFT_PSAN_SET_PHASE(SimPhase::Partitioned, 5);
    psan::setEnabledForTest(0);
    ch.flushPending(); // would abort if the shims ran
    // Restore: stamp Idle (needs the gate open), then fall back to
    // the environment verdict.
    psan::setEnabledForTest(1);
    LOFT_PSAN_SET_PHASE(SimPhase::Idle, 0);
    ch.setConcurrent(false);
    psan::setEnabledForTest(-1);
}

/// ---------------------------------------------------------------
/// The sanitizer only reads simulation state: enabling it must keep
/// the fingerprint bit-identical to a sanitizer-off run, serial and
/// partitioned alike. Without speculative switching a LOFT data router
/// idles between a look-ahead's admission and its quantum's arrival,
/// so the missed-wake oracle also checks the co-located block wakes.
/// ---------------------------------------------------------------

TEST(PhaseSanitizer, FingerprintIdenticalWithSanitizerEnabled)
{
    const TrafficPattern pattern = smallPattern();
    RunConfig nonspec = smallConfig(NetKind::Loft);
    nonspec.loft.speculativeSwitching = false;
    nonspec.loft.specBufferFlits = 0;
    for (const RunConfig &base :
         {smallConfig(NetKind::Loft), nonspec,
          smallConfig(NetKind::Wormhole)}) {
        psan::setEnabledForTest(0);
        const RunResult ref = runExperiment(base, pattern, 0.15);
        const std::string want = sweepFingerprint(ref);

        psan::setEnabledForTest(1);
        for (unsigned workers : {1u, 4u}) {
            RunConfig cfg = base;
            cfg.intraRunWorkers = workers;
            const RunResult got = runExperiment(cfg, pattern, 0.15);
            EXPECT_EQ(want, sweepFingerprint(got))
                << "kind=" << (base.kind == NetKind::Loft ? "loft" : "wh")
                << " spec=" << base.loft.speculativeSwitching
                << " workers=" << workers;
        }
        psan::setEnabledForTest(-1);
    }
}

} // namespace
} // namespace noc
