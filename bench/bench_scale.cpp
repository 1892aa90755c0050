/**
 * @file
 * Large-mesh scale-up bench: simulation throughput (simulated
 * cycles/sec) versus mesh size for all three network kinds, plus the
 * zero-allocation steady-state check at scale (docs/SCALE.md).
 *
 * One serial run per (mesh, kind) on 8x8, 16x16, 32x32 and 64x64
 * meshes under nearest-neighbor traffic (the one pattern whose per-hop
 * work is mesh-size independent, so the cycles/sec curve isolates the
 * cost of the fabric itself). Each run reports:
 *
 *  - cycles_per_sec — simulated cycles per wall-clock second,
 *  - node_cycles_per_sec — the same scaled by node count (the
 *    mesh-size-independent work rate; flat-ish when scaling is linear),
 *  - steady_allocs — heap allocations during the measurement window,
 *    which must be exactly zero at every size (the census in
 *    sim/alloc.hh counts every operator new in the process),
 *  - throughput — accepted flits/cycle/node (sanity: traffic flowed).
 *
 * With --json PATH the report is written as BENCH_scale.json
 * (schema 1) for the CI regression gate (scripts/check_bench.py
 * compares it against bench/baselines/BENCH_scale.json with
 * directional cycles/sec floors and a hard zero-allocation gate).
 *
 * Usage: bench_scale [--json PATH]
 */

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace
{

using namespace noc;

constexpr unsigned kSizes[] = {8, 16, 32, 64};
constexpr NetKind kKinds[] = {NetKind::Loft, NetKind::Gsf,
                              NetKind::Wormhole};

RunConfig
scaleConfig(NetKind kind, unsigned size)
{
    RunConfig c;
    c.kind = kind;
    c.meshWidth = size;
    c.meshHeight = size;
    // Warm-up absorbs the allocation ramp (pools, rings, buffer
    // high-water marks); the measurement window must then be
    // allocation-free. Cycle counts scale with LOFT_SIM_SCALE.
    c.warmupCycles = 2000;
    c.measureCycles = 4000;
    c.audit = false;
    c.loft.frameSizeFlits = 256;
    c.loft.centralBufferFlits = 256;
    c.loft.specBufferFlits = 16;
    c.loft.maxFlows = 64;
    c.loft.sourceQueueFlits = 64;
    c.applyEnvScale();
    return c;
}

struct ScalePoint
{
    double cyclesPerSec = 0.0;
    double nodeCyclesPerSec = 0.0;
    double throughput = 0.0;
    std::uint64_t steadyAllocs = 0;
    std::uint64_t totalPackets = 0;
};

ScalePoint
runPoint(NetKind kind, unsigned size)
{
    const RunConfig cfg = scaleConfig(kind, size);
    Mesh2D mesh(cfg.meshWidth, cfg.meshHeight);
    TrafficPattern pattern = neighborPattern(mesh);
    setEqualSharesByMaxFlows(pattern.flows, cfg.loft.maxFlows);

    const auto t0 = std::chrono::steady_clock::now();
    const RunResult r = runExperiment(cfg, pattern, 0.05);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    const double cycles =
        static_cast<double>(cfg.warmupCycles + cfg.measureCycles);

    ScalePoint p;
    p.cyclesPerSec = wall > 0.0 ? cycles / wall : 0.0;
    p.nodeCyclesPerSec =
        p.cyclesPerSec * static_cast<double>(mesh.numNodes());
    p.throughput = r.networkThroughput;
    p.steadyAllocs = r.steadyStateHeapAllocs;
    p.totalPackets = r.totalPackets;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
            return 2;
        }
    }

    std::printf("LOFT scale-up bench: cycles/sec vs mesh size "
                "(neighbor traffic, serial runs)\n");
    noc::bench::printRule();
    std::printf("%-8s %-10s %14s %18s %12s %8s\n", "mesh", "network",
                "cycles/sec", "node-cycles/sec", "throughput",
                "allocs");
    noc::bench::printRule();

    bool zero_allocs = true;
    bool traffic_flowed = true;
    noc::bench::Json meshes;
    for (const unsigned size : kSizes) {
        const std::string mesh_key =
            std::to_string(size) + "x" + std::to_string(size);
        noc::bench::Json per_kind;
        for (const NetKind kind : kKinds) {
            const ScalePoint p = runPoint(kind, size);
            std::printf("%-8s %-10s %14.3g %18.3g %12.4f %8llu\n",
                        mesh_key.c_str(), netKindName(kind),
                        p.cyclesPerSec, p.nodeCyclesPerSec,
                        p.throughput,
                        static_cast<unsigned long long>(p.steadyAllocs));
            if (p.steadyAllocs != 0)
                zero_allocs = false;
            if (p.totalPackets == 0)
                traffic_flowed = false;
            noc::bench::Json point;
            point.set("cycles_per_sec", p.cyclesPerSec)
                .set("node_cycles_per_sec", p.nodeCyclesPerSec)
                .set("throughput", p.throughput)
                .set("steady_allocs", p.steadyAllocs);
            per_kind.set(netKindName(kind), point);
        }
        meshes.set(mesh_key, per_kind);
    }
    noc::bench::printRule();
    std::printf("steady-state allocations: %s\n",
                zero_allocs ? "0 everywhere (PASS)" : "NONZERO (FAIL)");

    if (!json_path.empty()) {
        noc::bench::Json report;
        report.set("bench", "scale")
            .set("schema", std::uint64_t{1})
            .set("hw_threads",
                 static_cast<std::uint64_t>(noc::bench::benchThreads()))
            .set("zero_allocs", zero_allocs)
            .set("meshes", meshes);
        if (!noc::bench::writeJsonFile(json_path, report)) {
            std::fprintf(stderr, "failed to write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", json_path.c_str());
    }

    return zero_allocs && traffic_flowed ? 0 : 1;
}
