/**
 * @file
 * Parallel-execution throughput bench, two sections:
 *
 * 1. Sweep section — runs a fixed cross-network parameter sweep
 *    (3 kinds x 2 loads x 4 seeds on a 4x4 mesh) once serially and
 *    once on the worker budget, verifies the two executions are
 *    bit-identical (the engine's core guarantee), and reports
 *    runs/sec, simulated cycles/sec and p50/p99 per-run wall time.
 *    The budget is split between the sweep pool and intra-run workers
 *    by planWorkerSplit (wide sweeps keep it on the sweep axis).
 *
 * 2. Intra-run section — a single 16x16 run per network kind, serial
 *    vs spatially partitioned across intra-run workers, reporting the
 *    wall-clock speedup a single large simulation gets from the
 *    domain-partitioned run loop (docs/PARALLEL.md) and verifying the
 *    partitioned fingerprints are bit-identical to serial for all
 *    three kinds.
 *
 * 3. Trace section — the serial sweep once more with sampled causal
 *    tracing attached (docs/TRACING.md), reporting the wall-clock
 *    overhead of observation, verifying tracing is passive (the traced
 *    fingerprint is bit-identical to the untraced serial one), and
 *    recording the consolidated packet/blame counts.
 *
 * With --json PATH the report is written as BENCH_sweep.json
 * (schema 3) for the CI regression gate (scripts/check_bench.py
 * compares it against bench/baselines/BENCH_sweep.json; see
 * docs/BENCH.md). hw_threads records the hardware concurrency of the
 * capture host so the gate can tell real parallel speedups from
 * time-sliced ones. Trace overhead is informational (timing), but
 * trace passivity is gated as a correctness bit.
 *
 * Usage: bench_sweep [--threads N] [--intra N] [--json PATH]
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>

#include "bench_common.hh"

namespace
{

using namespace noc;
using noc::bench::benchThreads;

SweepConfig
benchSweepConfig(unsigned threads, unsigned intra_workers)
{
    RunConfig base;
    base.meshWidth = 4;
    base.meshHeight = 4;
    base.warmupCycles = 1500;
    base.measureCycles = 4000;
    base.loft.frameSizeFlits = 64;
    base.loft.centralBufferFlits = 64;
    base.loft.specBufferFlits = 8;
    base.loft.maxFlows = 16;
    base.loft.sourceQueueFlits = 32;
    // Measure the simulation hot path, not the invariant auditor.
    base.audit = false;
    base.intraRunWorkers = intra_workers;
    base.applyEnvScale();

    SweepConfig sc;
    sc.base = base;
    sc.kinds = {NetKind::Loft, NetKind::Gsf, NetKind::Wormhole};
    sc.loads = {0.1, 0.3};
    sc.seeds = {1, 2, 3, 4};
    sc.threads = threads;
    return sc;
}

/** The 16x16 single-run configuration of the intra-run section. */
RunConfig
intraRunConfig(NetKind kind, unsigned workers)
{
    RunConfig c;
    c.kind = kind;
    c.meshWidth = 16;
    c.meshHeight = 16;
    c.warmupCycles = 500;
    c.measureCycles = 3000;
    c.audit = false;
    c.intraRunWorkers = workers;
    // 256 uniform random-destination flows reserve on every output
    // port: the frame must cover maxFlows x quantum bookings and
    // Theorem I wants the central buffer at least one frame deep.
    c.loft.frameSizeFlits = 1024;
    c.loft.centralBufferFlits = 1024;
    c.loft.specBufferFlits = 16;
    c.loft.maxFlows = 256;
    c.loft.sourceQueueFlits = 64;
    c.applyEnvScale();
    return c;
}

constexpr double kIntraLoad = 0.08;

/** One serial-vs-partitioned comparison of a single 16x16 run. */
struct IntraKindResult
{
    double serialWallSeconds = 0.0;
    double parallelWallSeconds = 0.0;
    bool identical = false;
};

IntraKindResult
runIntraKind(NetKind kind, unsigned workers,
             const TrafficPattern &pattern)
{
    using clock = std::chrono::steady_clock;
    IntraKindResult out;

    const RunConfig serial_cfg = intraRunConfig(kind, 1);
    const auto t0 = clock::now();
    const RunResult serial =
        runExperiment(serial_cfg, pattern, kIntraLoad);
    const auto t1 = clock::now();

    const RunConfig par_cfg = intraRunConfig(kind, workers);
    const auto t2 = clock::now();
    const RunResult par = runExperiment(par_cfg, pattern, kIntraLoad);
    const auto t3 = clock::now();

    out.serialWallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    out.parallelWallSeconds =
        std::chrono::duration<double>(t3 - t2).count();
    out.identical = sweepFingerprint(serial) == sweepFingerprint(par);
    return out;
}

void
printSummary(const char *label, const SweepSummary &s)
{
    std::printf("%-8s threads=%-2u wall=%7.3fs runs/s=%7.2f "
                "cycles/s=%.3g p50=%.1fms p99=%.1fms\n",
                label, s.threadsUsed, s.wallSeconds, s.runsPerSecond,
                s.cyclesPerSecond, s.p50RunSeconds * 1e3,
                s.p99RunSeconds * 1e3);
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned threads = benchThreads();
    unsigned intra_workers = 4;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            threads = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (!std::strcmp(argv[i], "--intra") && i + 1 < argc) {
            intra_workers = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(
                stderr,
                "usage: %s [--threads N] [--intra N] [--json PATH]\n",
                argv[0]);
            return 2;
        }
    }
    if (threads < 1)
        threads = 1;
    if (intra_workers < 1)
        intra_workers = 1;

    const unsigned hw_threads = hardwareThreads();

    // ---- Sweep section -------------------------------------------
    Mesh2D mesh(4, 4);
    TrafficPattern pattern = uniformPattern(mesh);
    setEqualSharesByMaxFlows(pattern.flows, 16);
    const auto factory = [&](const SweepCase &) { return pattern; };

    SweepConfig serial_cfg = benchSweepConfig(1, 1);
    const std::size_t cases = expandSweep(serial_cfg).size();
    // Wide sweeps spend the whole budget on the sweep axis; narrow
    // ones shift the surplus into intra-run workers.
    const WorkerSplit split = planWorkerSplit(threads, cases);
    SweepConfig parallel_cfg =
        benchSweepConfig(split.sweepThreads, split.intraRunWorkers);

    std::printf("bench_sweep: %zu cases (3 kinds x 2 loads x 4 "
                "seeds), 4x4 mesh, budget %u -> %u sweep x %u intra "
                "(hw=%u)\n",
                cases, threads, split.sweepThreads,
                split.intraRunWorkers, hw_threads);

    const SweepResults serial = runSweep(serial_cfg, factory);
    const SweepResults parallel = runSweep(parallel_cfg, factory);

    printSummary("serial", serial.summary);
    printSummary("parallel", parallel.summary);

    const bool identical =
        sweepFingerprint(serial) == sweepFingerprint(parallel);
    const double speedup =
        parallel.summary.wallSeconds > 0.0
            ? serial.summary.wallSeconds / parallel.summary.wallSeconds
            : 0.0;
    std::printf("speedup: %.2fx   parallel == serial: %s\n", speedup,
                identical ? "yes" : "NO (BUG)");

    // ---- Trace section -------------------------------------------
    // Serial sweep once more with sampled causal tracing attached:
    // the fingerprint must not move (tracing is passive) and the wall
    // delta is the observation overhead.
    SweepConfig traced_cfg = benchSweepConfig(1, 1);
    traced_cfg.base.trace.enabled = true;
    traced_cfg.base.trace.sampleRate = 0.05;
    const SweepResults traced = runSweep(traced_cfg, factory);
    const bool trace_identical =
        sweepFingerprint(serial) == sweepFingerprint(traced);
    const double trace_overhead_pct =
        serial.summary.wallSeconds > 0.0
            ? 100.0 * (traced.summary.wallSeconds /
                           serial.summary.wallSeconds -
                       1.0)
            : 0.0;
    const TraceSummary trace_sum = consolidateTraceSummaries(traced);
    std::printf("trace:   wall=%7.3fs overhead=%+.1f%% packets=%llu "
                "blame=%llu passive: %s\n",
                traced.summary.wallSeconds, trace_overhead_pct,
                static_cast<unsigned long long>(
                    trace_sum.packetsTraced),
                static_cast<unsigned long long>(
                    trace_sum.blameAttributed),
                trace_identical ? "yes" : "NO (BUG)");

    // ---- Intra-run section ---------------------------------------
    Mesh2D intra_mesh(16, 16);
    TrafficPattern intra_pattern = uniformPattern(intra_mesh);
    setEqualSharesByMaxFlows(intra_pattern.flows, 256);

    const RunConfig intra_cfg =
        intraRunConfig(NetKind::Loft, intra_workers);
    std::printf("intra-run: 16x16 mesh, %llu+%llu cycles, %u workers\n",
                static_cast<unsigned long long>(intra_cfg.warmupCycles),
                static_cast<unsigned long long>(
                    intra_cfg.measureCycles),
                intra_workers);

    double intra_serial_wall = 0.0;
    double intra_parallel_wall = 0.0;
    bool intra_identical = true;
    for (NetKind kind :
         {NetKind::Loft, NetKind::Gsf, NetKind::Wormhole}) {
        const IntraKindResult r =
            runIntraKind(kind, intra_workers, intra_pattern);
        intra_serial_wall += r.serialWallSeconds;
        intra_parallel_wall += r.parallelWallSeconds;
        intra_identical = intra_identical && r.identical;
        std::printf("intra %-8s serial=%6.3fs partitioned=%6.3fs "
                    "speedup=%.2fx identical: %s\n",
                    netKindName(kind), r.serialWallSeconds,
                    r.parallelWallSeconds,
                    r.parallelWallSeconds > 0.0
                        ? r.serialWallSeconds / r.parallelWallSeconds
                        : 0.0,
                    r.identical ? "yes" : "NO (BUG)");
    }
    const double intra_speedup =
        intra_parallel_wall > 0.0
            ? intra_serial_wall / intra_parallel_wall
            : 0.0;
    const double intra_cycles = 3.0 *
        static_cast<double>(intra_cfg.warmupCycles +
                            intra_cfg.measureCycles);
    std::printf("intra total: serial=%6.3fs partitioned=%6.3fs "
                "speedup=%.2fx identical: %s\n",
                intra_serial_wall, intra_parallel_wall, intra_speedup,
                intra_identical ? "yes" : "NO (BUG)");

    if (!json_path.empty()) {
        noc::bench::Json config;
        config.set("cases", static_cast<std::uint64_t>(cases))
            .set("mesh", "4x4")
            .set("warmup_cycles", static_cast<std::uint64_t>(
                                      serial_cfg.base.warmupCycles))
            .set("measure_cycles", static_cast<std::uint64_t>(
                                       serial_cfg.base.measureCycles))
            .set("intra_mesh", "16x16")
            .set("intra_warmup_cycles",
                 static_cast<std::uint64_t>(intra_cfg.warmupCycles))
            .set("intra_measure_cycles",
                 static_cast<std::uint64_t>(intra_cfg.measureCycles))
            .set("intra_load", kIntraLoad);
        noc::bench::Json intra;
        intra.set("workers", intra_workers)
            .set("serial_wall_sec", intra_serial_wall)
            .set("parallel_wall_sec", intra_parallel_wall)
            .set("serial_cycles_per_sec",
                 intra_serial_wall > 0.0
                     ? intra_cycles / intra_serial_wall
                     : 0.0)
            .set("parallel_cycles_per_sec",
                 intra_parallel_wall > 0.0
                     ? intra_cycles / intra_parallel_wall
                     : 0.0)
            .set("speedup", intra_speedup)
            .set("identical", intra_identical);
        noc::bench::Json trace;
        trace.set("wall_sec", traced.summary.wallSeconds)
            .set("overhead_pct", trace_overhead_pct)
            .set("sample_rate", traced_cfg.base.trace.sampleRate)
            .set("packets_traced", trace_sum.packetsTraced)
            .set("blame_attributed", trace_sum.blameAttributed)
            .set("decomposition_mismatches",
                 trace_sum.decompositionMismatches)
            .set("identical", trace_identical);
        noc::bench::Json report;
        report.set("bench", "bench_sweep")
            .set("schema", std::uint64_t(3))
            .set("hw_threads", hw_threads)
            .set("config", config)
            .set("serial", noc::bench::summaryJson(serial.summary))
            .set("parallel",
                 noc::bench::summaryJson(parallel.summary))
            .set("speedup", speedup)
            .set("identical", identical)
            .set("intra", intra)
            .set("trace", trace);
        if (!noc::bench::writeJsonFile(json_path, report)) {
            std::fprintf(stderr, "bench_sweep: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", json_path.c_str());
    }

    // A parallel/serial or traced/untraced divergence is a correctness
    // bug, not a perf number: fail loudly so CI catches it even
    // without the checker.
    const bool trace_ok = trace_identical &&
                          trace_sum.decompositionMismatches == 0;
    return (identical && intra_identical && trace_ok) ? 0 : 1;
}
