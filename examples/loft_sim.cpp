/**
 * @file
 * Command-line simulator driver: the general-purpose front end to the
 * whole library. Configure the network (LOFT / GSF / wormhole), a
 * traffic pattern, reservations, and run lengths from key=value
 * arguments or a config file; results are printed as text, CSV, or
 * JSON.
 *
 * Usage examples:
 *   loft_sim net=loft pattern=hotspot rate=0.5
 *   loft_sim net=gsf pattern=uniform rate=0.3 format=json
 *   loft_sim config=run.cfg   # same keys, one per line
 *
 * Keys (defaults in parentheses):
 *   config           path of a config file to load first
 *   net              loft | gsf | wormhole            (loft)
 *   pattern          uniform | hotspot | transpose | bitcomp |
 *                    neighbor | tornado | shuffle |
 *                    dos | pathological               (uniform)
 *   rate             offered load, flits/cycle/node   (0.2)
 *   hotspot          hotspot node id                  (63)
 *   width, height    mesh dimensions                  (8, 8)
 *   packet           packet size in flits             (4)
 *   warmup, measure  run lengths in cycles            (5000, 10000)
 *   seed             RNG seed                         (1)
 *   share            per-flow bandwidth share         (1/64)
 *   format           text | csv | json                (text)
 *   flows            also print the per-flow table    (false)
 *   links            also print the ten busiest links (false)
 *   spec             LOFT speculative buffer, flits   (12)
 *   frame            LOFT frame size F, flits         (256)
 *   window           LOFT frame window WF             (2)
 *   central          LOFT central buffer, flits       (frame)
 *   speculative, reset, guard   LOFT mechanism toggles (true)
 *   gsf_frame, gsf_window, gsf_barrier, gsf_queue     GSF knobs
 */

#include <algorithm>
#include <cstdio>

#include "harness/experiment.hh"
#include "qos/allocation.hh"
#include "sim/config.hh"
#include "sim/report.hh"

namespace
{

using namespace noc;

TrafficPattern
makePattern(const Config &cfg, const Mesh2D &mesh)
{
    const std::string name = cfg.getString("pattern", "uniform");
    const NodeId hotspot = static_cast<NodeId>(
        cfg.getUInt("hotspot", mesh.numNodes() - 1));
    if (name == "uniform")
        return uniformPattern(mesh);
    if (name == "hotspot")
        return hotspotPattern(mesh, hotspot);
    if (name == "transpose")
        return transposePattern(mesh);
    if (name == "bitcomp")
        return bitComplementPattern(mesh);
    if (name == "neighbor")
        return neighborPattern(mesh);
    if (name == "tornado")
        return tornadoPattern(mesh);
    if (name == "shuffle")
        return shufflePattern(mesh);
    if (name == "dos")
        return dosPattern(mesh);
    if (name == "pathological")
        return pathologicalPattern(mesh);
    fatal("unknown pattern '%s'", name.c_str());
}

NetKind
makeKind(const Config &cfg)
{
    const std::string name = cfg.getString("net", "loft");
    if (name == "loft")
        return NetKind::Loft;
    if (name == "gsf")
        return NetKind::Gsf;
    if (name == "wormhole")
        return NetKind::Wormhole;
    fatal("unknown network '%s'", name.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace noc;

    Config cfg;
    cfg.parseArgs(argc, argv);
    if (cfg.has("config"))
        cfg.parseFile(cfg.getString("config", ""));

    RunConfig run;
    run.kind = makeKind(cfg);
    run.meshWidth =
        static_cast<std::uint32_t>(cfg.getUInt("width", 8));
    run.meshHeight =
        static_cast<std::uint32_t>(cfg.getUInt("height", 8));
    run.packetSizeFlits =
        static_cast<std::uint32_t>(cfg.getUInt("packet", 4));
    run.warmupCycles = cfg.getUInt("warmup", 5000);
    run.measureCycles = cfg.getUInt("measure", 10000);
    run.seed = cfg.getUInt("seed", 1);

    run.loft.specBufferFlits =
        static_cast<std::uint32_t>(cfg.getUInt("spec", 12));
    run.loft.frameSizeFlits =
        static_cast<std::uint32_t>(cfg.getUInt("frame", 256));
    run.loft.windowFrames =
        static_cast<std::uint32_t>(cfg.getUInt("window", 2));
    run.loft.centralBufferFlits = static_cast<std::uint32_t>(
        cfg.getUInt("central", run.loft.frameSizeFlits));
    run.loft.speculativeSwitching =
        cfg.getBool("speculative", true);
    run.loft.localStatusReset = cfg.getBool("reset", true);
    run.loft.anomalyGuard = cfg.getBool("guard", true);

    run.gsf.frameSizeFlits = static_cast<std::uint32_t>(
        cfg.getUInt("gsf_frame", 2000));
    run.gsf.windowFrames =
        static_cast<std::uint32_t>(cfg.getUInt("gsf_window", 6));
    run.gsf.barrierDelay = cfg.getUInt("gsf_barrier", 16);
    run.gsf.sourceQueueFlits = cfg.getUInt("gsf_queue", 2000);

    run.applyEnvScale();

    Mesh2D mesh(run.meshWidth, run.meshHeight);
    TrafficPattern pattern = makePattern(cfg, mesh);

    const double default_share = 1.0 / 64.0;
    const double share = cfg.getDouble("share", default_share);
    // The DoS pattern carries the paper's prescribed 1/4 shares.
    if (cfg.getString("pattern", "uniform") != "dos" ||
        cfg.has("share")) {
        setEqualShares(pattern.flows, share);
    }
    if (!validateShares(pattern.flows, mesh))
        fatal("share=%g oversubscribes a link for this pattern", share);

    const double rate = cfg.getDouble("rate", 0.2);
    const std::string format = cfg.getString("format", "text");
    const bool per_flow = cfg.getBool("flows", false);
    const bool show_links = cfg.getBool("links", false);

    const auto unused = cfg.unusedKeys();
    for (const auto &k : unused) {
        if (k != "config")
            fatal("unknown option '%s'", k.c_str());
    }

    const RunResult r = runExperiment(run, pattern, rate);

    ReportTable summary(
        "loft_sim summary",
        {"metric", "value"});
    summary.addRow({std::string("network"),
                    cfg.getString("net", "loft")});
    summary.addRow({std::string("pattern"),
                    cfg.getString("pattern", "uniform")});
    summary.addRow({std::string("offered (flits/cycle/node)"), rate});
    summary.addRow({std::string("accepted (flits/cycle/node)"),
                    r.networkThroughput});
    summary.addRow({std::string("avg latency (cycles)"),
                    r.avgPacketLatency});
    summary.addRow({std::string("p50 latency"), r.p50PacketLatency});
    summary.addRow({std::string("p95 latency"), r.p95PacketLatency});
    summary.addRow({std::string("p99 latency"), r.p99PacketLatency});
    summary.addRow({std::string("max latency"), r.maxPacketLatency});
    summary.addRow({std::string("packets delivered"),
                    static_cast<std::int64_t>(r.totalPackets)});
    summary.addRow({std::string("speculative forwards"),
                    static_cast<std::int64_t>(r.speculativeForwards)});
    summary.addRow({std::string("local resets"),
                    static_cast<std::int64_t>(r.localResets)});
    summary.addRow({std::string("anomaly violations"),
                    static_cast<std::int64_t>(r.anomalyViolations)});
    summary.addRow({std::string("gsf frame recycles"),
                    static_cast<std::int64_t>(r.frameRecycles)});
    summary.write(stdout, format);

    if (show_links && !r.linkUtilization.empty()) {
        // The ten busiest links of the run.
        std::vector<std::size_t> idx(r.linkUtilization.size());
        for (std::size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        std::sort(idx.begin(), idx.end(), [&](auto a, auto b) {
            return r.linkUtilization[a] > r.linkUtilization[b];
        });
        ReportTable links("busiest links", {"node", "port", "util"});
        for (std::size_t i = 0; i < idx.size() && i < 10; ++i) {
            const std::size_t l = idx[i];
            links.addRow({static_cast<std::int64_t>(l / kNumPorts),
                          std::string(portName(
                              static_cast<Port>(l % kNumPorts))),
                          r.linkUtilization[l]});
        }
        links.write(stdout, format);
    }

    if (per_flow) {
        ReportTable flows("per-flow results",
                          {"flow", "src", "dst", "share",
                           "throughput", "avg latency"});
        for (std::size_t i = 0; i < pattern.flows.size(); ++i) {
            const FlowSpec &f = pattern.flows[i];
            flows.addRow({static_cast<std::int64_t>(f.id),
                          static_cast<std::int64_t>(f.src),
                          f.randomDst()
                              ? ReportCell{std::string("random")}
                              : ReportCell{static_cast<std::int64_t>(
                                    f.dst)},
                          f.bwShare, r.flowThroughput[i],
                          r.flowAvgLatency[i]});
        }
        flows.write(stdout, format);
    }
    return r.anomalyViolations == 0 ? 0 : 1;
}
