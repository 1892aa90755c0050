/**
 * @file
 * Differential test of the flat-table NetworkAuditor against the
 * map-based ReferenceNetworkAuditor (tests/reference_network_auditor.*).
 *
 * One ObserverMux feeds both auditors the same event stream. After
 * every deep audit and at finalCheck they must agree on violations()
 * (kind, cycle, detail and order), on countOf() for every kind and on
 * flitsInLedger(). The streams are clean runs of all three networks, a
 * LOFT run under a fault plan, and runs with a seeded mutator between
 * the network and the mux that drops, duplicates and re-addresses flit
 * events, drops look-ahead admissions, grants a slot twice, grants
 * over budget and resets schedulers mid-frame.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "audit/network_auditor.hh"
#include "core/loft_network.hh"
#include "faults/fault_injector.hh"
#include "harness/experiment.hh"
#include "net/observer_mux.hh"
#include "qos/allocation.hh"
#include "reference_network_auditor.hh"
#include "sim/rng.hh"
#include "traffic/generator.hh"

namespace noc
{
namespace
{

constexpr Cycle kAuditPeriod = 64;

RunConfig
oracleConfig(NetKind kind)
{
    RunConfig c;
    c.kind = kind;
    c.meshWidth = 4;
    c.meshHeight = 4;
    c.loft.frameSizeFlits = 64;
    c.loft.centralBufferFlits = 64;
    c.loft.specBufferFlits = 8;
    c.loft.maxFlows = 16;
    c.loft.sourceQueueFlits = 32;
    return c;
}

AuditConfig
oracleAuditConfig()
{
    AuditConfig a;
    a.deepAuditPeriod = kAuditPeriod;
    // Short enough that flits a mutated stream leaks trip the
    // watchdog during the drain; every violation keeps its detail.
    a.watchdogWindow = 1500;
    a.maxRecorded = 1 << 16;
    return a;
}

/**
 * Corrupts the event stream on its way to the auditors. Each event
 * draws once; one draw in @p one_in picks each mutation.
 */
class Mutator final : public NetObserver
{
  public:
    Mutator(NetObserver &next, std::size_t nodes, std::uint64_t seed,
            std::uint64_t one_in)
        : next_(next), nodes_(nodes), rng_(seed), oneIn_(one_in)
    {
    }

    void
    consume(const NetEvent &e) override
    {
        const std::uint64_t draw = rng_.randRange(oneIn_);
        switch (e.kind) {
          case NetEvent::Kind::FlitSourced:
          case NetEvent::Kind::FlitArrived:
          case NetEvent::Kind::FlitForwarded:
          case NetEvent::Kind::FlitEjected:
          case NetEvent::Kind::FlitDropped:
            if (draw == 0)
                return; // drop
            if (draw == 1) {
                next_.consume(e); // duplicate
                break;
            }
            if (draw == 2) {
                NetEvent moved = e; // re-address to another node
                moved.node = static_cast<NodeId>(
                    (e.node + 1 + rng_.randRange(nodes_ - 1)) % nodes_);
                next_.consume(moved);
                return;
            }
            break;
          case NetEvent::Kind::LookaheadAdmitted:
          case NetEvent::Kind::NiQuantumScheduled:
            if (draw == 0)
                return; // the data arrives unreserved
            break;
          case NetEvent::Kind::SchedGrant:
            if (draw == 0) {
                next_.consume(e); // the same slot twice
                break;
            }
            if (draw == 1) {
                // Over budget: extra grants of the flow in its frame,
                // at slots far from any real booking.
                for (Slot extra = 1; extra <= 4; ++extra) {
                    NetEvent more = e;
                    more.slot = e.slot + (extra << 40);
                    next_.consume(more);
                }
                break;
            }
            if (draw == 2) {
                next_.consume(e); // then reset mid-frame
                next_.consume({.kind = NetEvent::Kind::SchedLocalReset,
                               .sched = e.sched, .now = e.now});
                return;
            }
            break;
          default:
            break;
        }
        next_.consume(e);
    }

  private:
    NetObserver &next_;
    std::size_t nodes_;
    Rng rng_;
    std::uint64_t oneIn_;
};

/** A network, both auditors behind one mux, and traffic. */
struct OracleRig
{
    RunConfig cfg;
    Mesh2D mesh;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<Network> net;
    std::unique_ptr<NetworkAuditor> flat;
    std::unique_ptr<ReferenceNetworkAuditor> ref;
    ObserverMux mux;
    std::unique_ptr<Mutator> mutator;
    std::unique_ptr<TrafficGenerator> gen;
    Simulator sim;

    /** @p mutate_one_in 0 leaves the stream intact. */
    OracleRig(RunConfig config, double load, std::uint64_t seed,
              std::uint64_t mutate_one_in = 0)
        : cfg(config), mesh(cfg.meshWidth, cfg.meshHeight)
    {
        if (cfg.faults.active()) {
            injector = std::make_unique<FaultInjector>(
                cfg.faults, cfg.loft.frameSizeFlits);
            cfg.loft.recovery = cfg.kind == NetKind::Loft;
        }
        net = buildNetwork(cfg, mesh, injector.get());
        flat = std::make_unique<NetworkAuditor>(*net, oracleAuditConfig());
        ref = std::make_unique<ReferenceNetworkAuditor>(
            *net, oracleAuditConfig());
        mux.add(flat.get());
        mux.add(ref.get());
        NetObserver *sink = &mux;
        if (mutate_one_in) {
            mutator = std::make_unique<Mutator>(mux, mesh.numNodes(), seed,
                                                mutate_one_in);
            sink = mutator.get();
        }
        net->setObserver(sink);
        if (injector)
            injector->setObserver(sink);

        TrafficPattern p = uniformPattern(mesh);
        setEqualSharesByMaxFlows(p.flows, cfg.loft.maxFlows);
        net->registerFlows(p.flows);
        gen = std::make_unique<TrafficGenerator>(*net, 4, seed);
        gen->configure(p.flows, uniformRates(p.flows.size(), load));

        sim.add(gen.get());
        net->attach(sim);
        sim.add(flat.get());
        sim.add(ref.get());
        sim.addMerged(&mux);
    }

    /** Run @p cycles, comparing the auditors after each deep audit. */
    ::testing::AssertionResult
    runAndCompare(Cycle cycles)
    {
        for (Cycle done = 0; done < cycles; done += kAuditPeriod) {
            sim.run(kAuditPeriod);
            auto same = agree();
            if (!same)
                return same;
        }
        return ::testing::AssertionSuccess();
    }

    /** Inject for @p busy cycles, drain, and finish both auditors. */
    ::testing::AssertionResult
    runToEnd(Cycle busy, Cycle drain)
    {
        auto same = runAndCompare(busy);
        if (!same)
            return same;
        gen->setUniformRate(0.0);
        same = runAndCompare(drain);
        if (!same)
            return same;
        flat->finalCheck(sim.now());
        ref->finalCheck(sim.now());
        return agree();
    }

    ::testing::AssertionResult
    agree() const
    {
        const Cycle at = sim.now();
        const auto &a = flat->violations();
        const auto &b = ref->violations();
        for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
            if (a[i].kind != b[i].kind || a[i].cycle != b[i].cycle ||
                a[i].detail != b[i].detail)
                return ::testing::AssertionFailure()
                       << "cycle " << at << ": violation " << i
                       << " differs:\n  flat ["
                       << a[i].cycle << "] " << auditKindName(a[i].kind)
                       << ": " << a[i].detail << "\n  ref  ["
                       << b[i].cycle << "] " << auditKindName(b[i].kind)
                       << ": " << b[i].detail;
        }
        if (a.size() != b.size())
            return ::testing::AssertionFailure()
                   << "cycle " << at << ": " << a.size() << " vs "
                   << b.size() << " violations recorded";
        for (std::size_t k = 0; k < kNumAuditKinds; ++k) {
            const auto kind = static_cast<AuditKind>(k);
            if (flat->countOf(kind) != ref->countOf(kind))
                return ::testing::AssertionFailure()
                       << "cycle " << at << ": " << auditKindName(kind)
                       << " count " << flat->countOf(kind) << " vs "
                       << ref->countOf(kind);
        }
        if (flat->flitsInLedger() != ref->flitsInLedger())
            return ::testing::AssertionFailure()
                   << "cycle " << at << ": ledger " << flat->flitsInLedger()
                   << " vs " << ref->flitsInLedger();
        return ::testing::AssertionSuccess();
    }
};

/** Corrupt live scheduler state the deep audit must report: a credit
 *  word and the first live booking of every scheduler of node 5. */
void
corruptSchedulers(LoftNetwork &net)
{
    std::vector<OutputScheduler *> scheds{&net.source(5).scheduler()};
    for (std::size_t p = 0; p < kNumPorts; ++p)
        scheds.push_back(&net.dataRouter(5).scheduler(static_cast<Port>(p)));
    for (OutputScheduler *s : scheds) {
        s->debugAdjustCredit(s->windowEndAbsSlot() - 1, -1000000);
        if (const auto first = s->earliestBookedSlot())
            s->debugCorruptBookingFlow(*first);
    }
}

class AuditOracle : public ::testing::TestWithParam<NetKind>
{
};

TEST_P(AuditOracle, CleanRunAgrees)
{
    OracleRig rig(oracleConfig(GetParam()), 0.3, 7);
    EXPECT_TRUE(rig.runToEnd(3000, 2000));
    EXPECT_EQ(rig.flat->violationCount(), 0u) << rig.flat->report();
    EXPECT_EQ(rig.flat->flitsInLedger(), 0u);
}

TEST_P(AuditOracle, MutatedStreamAgrees)
{
    RunConfig c = oracleConfig(GetParam());
    // Speculative arrivals are exempt from the reservation check; keep
    // every arrival in order so dropped admissions are caught.
    c.loft.speculativeSwitching = false;
    c.loft.specBufferFlits = 0;
    for (std::uint64_t seed : {3, 11}) {
        OracleRig rig(c, 0.1, seed, 400);
        EXPECT_TRUE(rig.runAndCompare(1536)) << "seed " << seed;
        if (auto *loft = dynamic_cast<LoftNetwork *>(rig.net.get()))
            corruptSchedulers(*loft);
        EXPECT_TRUE(rig.runToEnd(1536, 6000)) << "seed " << seed;
        // The mutations must actually be caught, or agreement proves
        // nothing about the checks.
        EXPECT_GT(rig.flat->countOf(AuditKind::Conservation), 0u)
            << "seed " << seed;
        EXPECT_GT(rig.flat->countOf(AuditKind::Watchdog), 0u)
            << "seed " << seed;
        if (GetParam() == NetKind::Loft) {
            EXPECT_GT(rig.flat->countOf(AuditKind::Reservation), 0u)
                << "seed " << seed;
            EXPECT_GT(rig.flat->countOf(AuditKind::Anomaly), 0u)
                << "seed " << seed;
            EXPECT_GT(rig.flat->countOf(AuditKind::StateMismatch), 0u)
                << "seed " << seed;
            EXPECT_GT(rig.flat->countOf(AuditKind::Credit), 0u)
                << "seed " << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Networks, AuditOracle,
                         ::testing::Values(NetKind::Loft, NetKind::Gsf,
                                           NetKind::Wormhole));

TEST(AuditOracleFaults, LoftFaultPlanAgrees)
{
    RunConfig c = oracleConfig(NetKind::Loft);
    c.faults.enabled = true;
    c.faults.lookaheadDropRate = 1e-3;
    c.faults.creditLossRate = 1e-3;
    c.faults.creditCorruptRate = 1e-3;
    c.faults.dataCorruptRate = 1e-3;
    c.faults.linkStallRate = 1e-3;
    c.faults.seed = 5;
    OracleRig rig(c, 0.2, 5);
    EXPECT_TRUE(rig.runToEnd(4000, 4000));
}

} // namespace
} // namespace noc
