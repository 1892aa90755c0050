/**
 * @file
 * Fig. 12 reproduction - Case Study I (denial-of-service): nodes 0
 * (victim, regulated at 0.2 flits/cycle), 48 and 56 (aggressors) send
 * to hotspot node 63, each holding a 1/4 link-bandwidth reservation.
 * Per-flow average latency and accepted throughput are reported versus
 * the aggressor injection rate, for GSF and LOFT.
 *
 * Paper shapes: in GSF the victim's latency blows up (~60 to ~2000
 * cycles) as aggression rises and aggregate throughput stays below
 * ~60% of the link; in LOFT the victim's latency rises only slightly
 * while aggressors are the ones penalized, and utilization exceeds 90%.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace
{

using namespace noc;
using noc::bench::gsfConfig;
using noc::bench::loftConfig;
using noc::bench::printRule;

const std::vector<double> kAggressorRates{0.1, 0.2, 0.4, 0.6, 0.8};

struct DosPoint
{
    double latency[3];
    double throughput[3];
};

std::map<std::string, std::vector<DosPoint>> g_results;
std::string g_traceFailure;

void
writeFile(const std::string &path, const std::string &content)
{
    if (std::FILE *f = std::fopen(path.c_str(), "w")) {
        std::fwrite(content.data(), 1, content.size(), f);
        std::fclose(f);
        std::printf("trace: wrote %s\n", path.c_str());
    }
}

/**
 * With LOFT_TRACE_DIR set: re-run the highest-aggression point twice —
 * untraced and traced — to (a) verify tracing is passive (bit-identical
 * fingerprint), (b) measure the sampled-tracing wall-time overhead
 * (enforced against LOFT_TRACE_OVERHEAD_LIMIT, %, default 10), and
 * (c) drop the blame dump + Chrome spans for loft-blame / CI schema
 * checks.
 */
void
runTraceSmoke(const std::string &name, const RunConfig &config,
              const TrafficPattern &p, const char *tdir)
{
    std::vector<FlowRate> rates(3);
    rates[0].flitsPerCycle = 0.2;
    rates[0].process = InjectionProcess::Periodic;
    rates[1].flitsPerCycle = kAggressorRates.back();
    rates[2].flitsPerCycle = kAggressorRates.back();

    RunConfig traced = config;
    traced.trace.enabled = true;
    traced.trace.sampleRate = 0.05; // production sampling rate

    // Interleaved min-of-five: bare and traced repetitions alternate
    // so CPU-frequency/scheduler noise phases hit both variants, and
    // the min discards the slow outliers.
    auto timedRun = [&](const RunConfig &c, RunResult &out) {
        const auto t0 = std::chrono::steady_clock::now();
        out = runExperiment(c, p, rates);
        const auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(t1 - t0).count();
    };
    RunResult bare_r, traced_r;
    double bare_s = 0.0, traced_s = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
        const double b = timedRun(config, bare_r);
        const double t = timedRun(traced, traced_r);
        if (rep == 0 || b < bare_s)
            bare_s = b;
        if (rep == 0 || t < traced_s)
            traced_s = t;
    }

    if (sweepFingerprint(bare_r) != sweepFingerprint(traced_r))
        g_traceFailure = name + ": tracing perturbed the run "
                                "(fingerprint mismatch)";
    const double overhead =
        bare_s > 0.0 ? 100.0 * (traced_s / bare_s - 1.0) : 0.0;
    std::printf("trace: %s overhead %.1f%% (bare %.3fs, traced %.3fs), "
                "%llu packets traced\n",
                name.c_str(), overhead, bare_s, traced_s,
                static_cast<unsigned long long>(
                    traced_r.traceSummary.packetsTraced));
    double budget = 10.0;
    if (const char *env = std::getenv("LOFT_TRACE_OVERHEAD_LIMIT"))
        budget = std::atof(env);
    if (overhead > budget)
        g_traceFailure = name + ": trace overhead over budget";
    if (traced_r.traceSummary.decompositionMismatches != 0)
        g_traceFailure = name + ": stage decomposition mismatch";

    const std::string base = std::string(tdir) + "/fig12_" + name;
    const Cycle end = config.warmupCycles + config.measureCycles;
    writeFile(base + "_trace.json",
              traced_r.trace->dumpJson("blame", end));
    writeFile(base + "_spans.json",
              chromeTraceJson(traced_r.trace->spanWriter(),
                              config.meshWidth, config.meshHeight));
}

void
runDos(const std::string &name, const RunConfig &config)
{
    // With LOFT_TELEMETRY_DIR set, the highest-aggression point runs
    // with the telemetry collector attached and drops its link
    // heatmap + epoch time series there (see docs/TELEMETRY.md).
    const char *tdir = std::getenv("LOFT_TELEMETRY_DIR");
    Mesh2D mesh(8, 8);
    const TrafficPattern p = dosPattern(mesh);

    // Aggression points run concurrently on the sweep engine: the case
    // load is the aggressor rate, the victim stays regulated at 0.2.
    SweepConfig sc;
    sc.base = config;
    sc.loads = kAggressorRates;
    sc.threads = noc::bench::benchThreads();
    const SweepResults sweep = runSweep(sc, [&](const SweepCase &cs) {
        std::vector<FlowRate> rates(3);
        rates[0].flitsPerCycle = 0.2; // regulated victim
        rates[0].process = InjectionProcess::Periodic;
        rates[1].flitsPerCycle = cs.load;
        rates[2].flitsPerCycle = cs.load;
        RunConfig c = cs.config;
        if (tdir && cs.load == kAggressorRates.back()) {
            c.telemetry.enabled = true;
            c.telemetry.epochCycles = 500;
            c.telemetry.tracePackets = false; // counters only
        }
        return runExperiment(c, p, rates);
    });

    std::vector<DosPoint> series;
    for (const RunResult &r : sweep.results) {
        DosPoint pt;
        for (int f = 0; f < 3; ++f) {
            pt.latency[f] = r.flowAvgLatency[f];
            pt.throughput[f] = r.flowThroughput[f];
        }
        series.push_back(pt);
        if (r.telemetry) {
            auto dump = [&](const std::string &path,
                            const std::string &content) {
                if (std::FILE *f = std::fopen(path.c_str(), "w")) {
                    std::fwrite(content.data(), 1, content.size(), f);
                    std::fclose(f);
                    std::printf("telemetry: wrote %s\n", path.c_str());
                }
            };
            const std::string base =
                std::string(tdir) + "/fig12_" + name;
            dump(base + "_heatmap.csv", r.telemetry->heatmapCsv());
            dump(base + "_timeseries.csv",
                 r.telemetry->timeSeriesCsv());
        }
    }
    g_results[name] = std::move(series);

    if (const char *trace_dir = std::getenv("LOFT_TRACE_DIR"))
        runTraceSmoke(name, config, p, trace_dir);
}

void
BM_Gsf(benchmark::State &state)
{
    for (auto _ : state)
        runDos("GSF", gsfConfig());
    state.counters["victim_latency_at_0.8"] =
        g_results["GSF"].back().latency[0];
}

void
BM_Loft(benchmark::State &state)
{
    for (auto _ : state)
        runDos("LOFT", loftConfig());
    state.counters["victim_latency_at_0.8"] =
        g_results["LOFT"].back().latency[0];
}

BENCHMARK(BM_Gsf)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Loft)->Iterations(1)->Unit(benchmark::kMillisecond);

void
printNet(const std::string &name)
{
    const auto &series = g_results[name];
    std::printf("\nFig. 12%s - %s\n", name == "GSF" ? "a" : "b",
                name.c_str());
    printRule();
    std::printf("%-10s | %-26s | %-26s\n", "aggr rate",
                "avg latency (vic/a48/a56)",
                "throughput (vic/a48/a56)");
    printRule();
    for (std::size_t i = 0; i < series.size(); ++i) {
        const DosPoint &pt = series[i];
        std::printf("%-10.2f | %8.1f %8.1f %8.1f | %8.4f %8.4f %8.4f\n",
                    kAggressorRates[i], pt.latency[0], pt.latency[1],
                    pt.latency[2], pt.throughput[0], pt.throughput[1],
                    pt.throughput[2]);
    }
    const DosPoint &last = series.back();
    std::printf("aggregate throughput at max aggression: %.3f "
                "flits/cycle (link utilization)\n",
                last.throughput[0] + last.throughput[1] +
                    last.throughput[2]);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    std::printf("\nCase Study I - DoS robustness (flows 0,48,56 -> 63, "
                "victim fixed at 0.2 flits/cycle)\n");
    printNet("GSF");
    printNet("LOFT");
    noc::bench::printRule();
    std::printf("expected shape: GSF victim latency degrades by over an "
                "order of magnitude\nwith aggression; LOFT victim stays "
                "near its uncontended latency while the\naggressors pay, "
                "and LOFT's aggregate link utilization is much higher.\n");
    if (!g_traceFailure.empty()) {
        std::fprintf(stderr, "ERROR: %s\n", g_traceFailure.c_str());
        return 1;
    }
    return 0;
}
