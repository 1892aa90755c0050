/**
 * @file
 * Fault-resilience bench: sweeps the per-link-cycle fault rate (all
 * fault classes armed at once) across LOFT, GSF and wormhole on the
 * parallel sweep engine and reports packet survival rate, p99 packet
 * latency, fault detection/recovery counts and watchdog trips per
 * (network, rate) point, averaged over seeds.
 *
 * LOFT runs with the recovery machinery enabled by the harness; GSF
 * and wormhole only receive the fabric fault classes (payload
 * corruption, link stalls), since their wires carry no look-ahead flits
 * or LOFT credits.
 *
 * With --json PATH the table is written as BENCH_faults.json for the
 * CI regression gate. Exit status is non-zero if any run trips the
 * deadlock watchdog: at these rates every fault must be recovered or
 * accounted, never deadlock.
 *
 * Usage: bench_faults [--threads N] [--json PATH]
 */

#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace
{

using namespace noc;
using noc::bench::benchThreads;

const std::vector<double> kFaultRates{0.0, 1e-5, 1e-4, 5e-4, 1e-3};
const std::vector<std::uint64_t> kSeeds{1, 2, 3};
constexpr double kLoad = 0.2;

std::string
rateLabel(double rate)
{
    if (rate == 0.0)
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0e", rate);
    return buf;
}

SweepConfig
faultSweepConfig(unsigned threads)
{
    RunConfig base;
    base.meshWidth = 4;
    base.meshHeight = 4;
    base.warmupCycles = 1500;
    base.measureCycles = 6000;
    base.loft.frameSizeFlits = 64;
    base.loft.centralBufferFlits = 64;
    base.loft.specBufferFlits = 8;
    base.loft.maxFlows = 16;
    base.loft.sourceQueueFlits = 32;
    base.applyEnvScale();

    SweepConfig sc;
    sc.base = base;
    sc.kinds = {NetKind::Loft, NetKind::Gsf, NetKind::Wormhole};
    sc.loads = {kLoad};
    sc.seeds = kSeeds;
    sc.threads = threads;
    // The fault-rate axis rides on the override dimension: one plan
    // per rate, every fault class armed (the harness strips classes
    // that do not apply to the case's network).
    for (double rate : kFaultRates) {
        sc.overrides.push_back(
            {rateLabel(rate), [rate](RunConfig &c) {
                 c.faults.enabled = rate > 0.0;
                 c.faults.lookaheadDropRate = rate;
                 c.faults.creditLossRate = rate;
                 c.faults.creditCorruptRate = rate;
                 c.faults.dataCorruptRate = rate;
                 c.faults.linkStallRate = rate;
             }});
    }
    return sc;
}

/** Seed-averaged metrics of one (kind, rate) sweep cell. */
struct Cell
{
    double survival = 0.0;
    double p99Latency = 0.0;
    double detectP99 = 0.0;
    double recoverP99 = 0.0;
    std::uint64_t injected = 0;
    std::uint64_t detected = 0;
    std::uint64_t recovered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t watchdogs = 0;
};

Cell
summarizeCell(const SweepResults &sweep, NetKind kind,
              const std::string &rate_label)
{
    Cell cell;
    std::size_t n = 0;
    for (std::size_t i = 0; i < sweep.cases.size(); ++i) {
        const SweepCase &c = sweep.cases[i];
        if (c.kind != kind || c.overrideLabel != rate_label)
            continue;
        const RunResult &r = sweep.results[i];
        cell.survival += r.packetSurvivalRate;
        cell.p99Latency += r.p99PacketLatency;
        cell.detectP99 += r.faultDetectionP99;
        cell.recoverP99 += r.faultRecoveryP99;
        for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
            cell.injected += r.faultsInjected[k];
            cell.detected += r.faultsDetected[k];
            cell.recovered += r.faultsRecovered[k];
        }
        cell.dropped += r.faultFlitsDropped;
        cell.watchdogs += r.auditWatchdogs;
        ++n;
    }
    if (n) {
        cell.survival /= static_cast<double>(n);
        cell.p99Latency /= static_cast<double>(n);
        cell.detectP99 /= static_cast<double>(n);
        cell.recoverP99 /= static_cast<double>(n);
    }
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned threads = benchThreads();
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            threads = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--threads N] [--json PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    if (threads < 1)
        threads = 1;

    const SweepConfig sc = faultSweepConfig(threads);
    std::printf("bench_faults: %zu cases (3 kinds x %zu rates x %zu "
                "seeds), 4x4 mesh, load %.2f\n",
                expandSweep(sc).size(), kFaultRates.size(),
                kSeeds.size(), kLoad);

    Mesh2D mesh(4, 4);
    TrafficPattern pattern = uniformPattern(mesh);
    setEqualSharesByMaxFlows(pattern.flows, 16);
    const SweepResults sweep =
        runSweep(sc, [&](const SweepCase &) { return pattern; });

    std::uint64_t total_watchdogs = 0;
    noc::bench::Json networks;
    for (NetKind kind :
         {NetKind::Loft, NetKind::Gsf, NetKind::Wormhole}) {
        std::printf("\n%s\n", netKindName(kind));
        noc::bench::printRule();
        std::printf("%-8s %9s %9s %9s %8s %9s %9s %9s\n", "rate",
                    "injected", "detected", "recovered", "dropped",
                    "survival", "p99 lat", "det p99");
        noc::bench::printRule();
        noc::bench::Json rates;
        for (double rate : kFaultRates) {
            const std::string label = rateLabel(rate);
            const Cell cell = summarizeCell(sweep, kind, label);
            total_watchdogs += cell.watchdogs;
            std::printf("%-8s %9llu %9llu %9llu %8llu %9.4f %9.1f "
                        "%9.1f%s\n",
                        label.c_str(),
                        static_cast<unsigned long long>(cell.injected),
                        static_cast<unsigned long long>(cell.detected),
                        static_cast<unsigned long long>(cell.recovered),
                        static_cast<unsigned long long>(cell.dropped),
                        cell.survival, cell.p99Latency, cell.detectP99,
                        cell.watchdogs ? "  WATCHDOG" : "");
            noc::bench::Json j;
            j.set("survival", cell.survival)
                .set("p99_latency", cell.p99Latency)
                .set("detect_p99", cell.detectP99)
                .set("recover_p99", cell.recoverP99)
                .set("injected", cell.injected)
                .set("detected", cell.detected)
                .set("recovered", cell.recovered)
                .set("dropped", cell.dropped)
                .set("watchdogs", cell.watchdogs);
            rates.set(label, j);
        }
        networks.set(netKindName(kind), rates);
    }

    noc::bench::printRule();
    std::printf("expected shape: survival stays near 1.0 through 1e-4 "
                "and degrades\ngracefully at 1e-3; LOFT detects and "
                "recovers look-ahead and credit\nfaults the other "
                "fabrics never see; no watchdog may trip.\n");

    if (!json_path.empty()) {
        noc::bench::Json config;
        config.set("mesh", "4x4")
            .set("load", kLoad)
            .set("seeds", static_cast<std::uint64_t>(kSeeds.size()))
            .set("warmup_cycles",
                 static_cast<std::uint64_t>(sc.base.warmupCycles))
            .set("measure_cycles",
                 static_cast<std::uint64_t>(sc.base.measureCycles));
        noc::bench::Json report;
        report.set("bench", "bench_faults")
            .set("schema", std::uint64_t(1))
            .set("config", config)
            .set("networks", networks)
            .set("sweep", noc::bench::summaryJson(sweep.summary))
            .set("watchdogs", total_watchdogs);
        if (!noc::bench::writeJsonFile(json_path, report)) {
            std::fprintf(stderr, "bench_faults: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", json_path.c_str());
    }

    if (total_watchdogs) {
        std::fprintf(stderr,
                     "bench_faults: %llu watchdog trip(s) — faults at "
                     "these rates must never deadlock the network\n",
                     static_cast<unsigned long long>(total_watchdogs));
        return 1;
    }
    return 0;
}
