/**
 * @file
 * Long-soak determinism for the partitioned simulator: a 16x16 LOFT
 * mesh driven for a long window (cycle count scalable via
 * LOFT_SOAK_CYCLES; CI's sanitizer job runs it in the millions) must
 * produce a fingerprint bit-identical to the serial run, and repeated
 * partitioned runs must not grow resident memory — the domain buffers
 * (pending channel slots, deferred observer events, deferred metric
 * samples) are drained every cycle and reused, never accreted.
 *
 * The ScaleSoak suite scales the discipline up: a 32x32 mesh (LOFT and
 * wormhole) must run its whole measurement window with a heap
 * allocation count of exactly zero (docs/SCALE.md) and a flat resident
 * set across repeated runs.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "harness/sweep.hh"
#include "qos/allocation.hh"

#ifdef __linux__
#include <fstream>
#include <unistd.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define LOFT_SOAK_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LOFT_SOAK_ASAN 1
#endif
#endif

#ifdef LOFT_SOAK_ASAN
// Declared in <sanitizer/allocator_interface.h>, which GCC does not
// install; libasan exports it under both compilers.
extern "C" void __sanitizer_purge_allocator();
#endif

namespace noc
{
namespace
{

/** Measured cycles: LOFT_SOAK_CYCLES env override, else a smoke run. */
Cycle
soakCycles()
{
    if (const char *env = std::getenv("LOFT_SOAK_CYCLES")) {
        const long long v = std::atoll(env);
        if (v > 0)
            return static_cast<Cycle>(v);
    }
    return 1500;
}

RunConfig
soakConfig()
{
    RunConfig c;
    c.kind = NetKind::Loft;
    c.meshWidth = 16;
    c.meshHeight = 16;
    c.warmupCycles = 300;
    c.measureCycles = soakCycles();
    c.audit = true;
    // 256 uniform random-destination flows reserve on every output
    // port, so the frame must cover maxFlows x quantum bookings
    // (1024 / 256 flows = 4 flits of quantum headroom per flow), and
    // Theorem I wants the central buffer at least one frame deep.
    c.loft.frameSizeFlits = 1024;
    c.loft.centralBufferFlits = 1024;
    c.loft.specBufferFlits = 16;
    c.loft.maxFlows = 256;
    c.loft.sourceQueueFlits = 64;
    return c;
}

TrafficPattern
soakPattern()
{
    Mesh2D mesh(16, 16);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 256);
    return p;
}

#ifdef __linux__
std::size_t
residentBytes()
{
#ifdef LOFT_SOAK_ASAN
    // ASan parks freed blocks in a quarantine that stays resident;
    // drain it first so the budgets measure growth, not the quarantine.
    __sanitizer_purge_allocator();
#endif
    std::ifstream statm("/proc/self/statm");
    std::size_t pages = 0;
    std::size_t resident = 0;
    statm >> pages >> resident;
    return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}
#endif

TEST(ParallelSoak, LargeMeshLongRunIsBitIdentical)
{
    const RunConfig base = soakConfig();
    const TrafficPattern pattern = soakPattern();
    constexpr double kLoad = 0.08;

    RunConfig serial_cfg = base;
    serial_cfg.intraRunWorkers = 1;
    const RunResult serial = runExperiment(serial_cfg, pattern, kLoad);
    ASSERT_GT(serial.totalPackets, 0u);
    ASSERT_EQ(serial.auditHardViolations, 0u) << serial.auditReport;

    RunConfig par_cfg = base;
    par_cfg.intraRunWorkers = 4;
    const RunResult par = runExperiment(par_cfg, pattern, kLoad);
    EXPECT_EQ(sweepFingerprint(serial), sweepFingerprint(par));
    EXPECT_EQ(par.auditHardViolations, 0u) << par.auditReport;
}

TEST(ParallelSoak, RepeatedPartitionedRunsKeepMemoryFlat)
{
#ifndef __linux__
    GTEST_SKIP() << "resident-set accounting requires /proc";
#else
    RunConfig cfg = soakConfig();
    // Memory flatness is about the per-cycle drain of the domain
    // buffers, not the cycle horizon; a shorter window keeps the
    // sanitizer-job runtime inside budget (identity above covers the
    // full horizon).
    cfg.measureCycles = std::min<Cycle>(cfg.measureCycles, 50000);
    cfg.intraRunWorkers = 4;
    const TrafficPattern pattern = soakPattern();

    // First run pays one-time costs (allocator warmup, pool spawn,
    // buffer high-water marks); later runs must plateau.
    runExperiment(cfg, pattern, 0.08);
    const std::size_t baseline = residentBytes();
    runExperiment(cfg, pattern, 0.08);
    const std::size_t after = residentBytes();

    constexpr std::size_t kBudget = 64u << 20;
    EXPECT_LT(after, baseline + kBudget)
        << "resident set grew " << (after - baseline)
        << " bytes across one partitioned run";
#endif
}

// ---- ScaleSoak: 32x32, zero allocations and flat memory -------------

RunConfig
scaleSoakConfig(NetKind kind)
{
    RunConfig c;
    c.kind = kind;
    c.meshWidth = 32;
    c.meshHeight = 32;
    // Warm-up is the allocation ramp (pool spawn, ring and buffer
    // high-water growth); the measurement window then runs with the
    // census asserting an exact zero.
    c.warmupCycles = 4000;
    c.measureCycles = soakCycles();
    c.audit = false;
    c.intraRunWorkers = 2;
    c.loft.frameSizeFlits = 256;
    c.loft.centralBufferFlits = 256;
    c.loft.specBufferFlits = 16;
    c.loft.maxFlows = 64;
    c.loft.sourceQueueFlits = 64;
    return c;
}

void
expectFlatScaleSoak(NetKind kind)
{
    const RunConfig cfg = scaleSoakConfig(kind);
    Mesh2D mesh(cfg.meshWidth, cfg.meshHeight);
    TrafficPattern pattern = neighborPattern(mesh);
    setEqualSharesByMaxFlows(pattern.flows, cfg.loft.maxFlows);

    const RunResult first = runExperiment(cfg, pattern, 0.05);
    ASSERT_GT(first.totalPackets, 0u);
    EXPECT_EQ(first.steadyStateHeapAllocs, 0u)
        << "32x32 measurement window allocated on the heap";

#ifdef __linux__
    // A second full run re-pays only per-run state (network, pools);
    // the resident set must not creep across runs.
    const std::size_t baseline = residentBytes();
    const RunResult second = runExperiment(cfg, pattern, 0.05);
    EXPECT_EQ(second.steadyStateHeapAllocs, 0u);
    const std::size_t after = residentBytes();
    constexpr std::size_t kBudget = 64u << 20;
    EXPECT_LT(after, baseline + kBudget)
        << "resident set grew " << (after - baseline)
        << " bytes across one 32x32 run";
#endif
}

TEST(ScaleSoak, Loft32x32MeasureWindowIsAllocationFree)
{
    expectFlatScaleSoak(NetKind::Loft);
}

TEST(ScaleSoak, Wormhole32x32MeasureWindowIsAllocationFree)
{
    expectFlatScaleSoak(NetKind::Wormhole);
}

} // namespace
} // namespace noc
