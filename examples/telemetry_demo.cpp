/**
 * @file
 * Telemetry walkthrough on the paper's Case Study I (Fig. 12 DoS
 * scenario): nodes 0 (regulated victim), 48 and 56 (aggressors) attack
 * hotspot 63 on an 8x8 LOFT mesh. The run is instrumented with the
 * TelemetryCollector *and* the NetworkAuditor at once (composed via
 * ObserverMux) and exports
 *
 *   telemetry_trace.json      Chrome trace-event JSON; open with
 *                             https://ui.perfetto.dev or
 *                             chrome://tracing
 *   telemetry_timeseries.csv  per-epoch, per-router-port counters
 *   telemetry_heatmap.csv     8x8 per-node link-utilization grid
 *
 * into the directory given as argv[1] (default: current directory).
 * The demo also measures its own observer overhead with three timed
 * runs of the same seed: bare (no observers), audit-only (the harness
 * default), and audit + telemetry through the mux. The telemetry
 * overhead — instrumented vs audit-only — is expected under 10%; the
 * demo exits non-zero if it is not, or if the instrumented run's
 * metrics are not bit-identical to the bare run's (telemetry must be
 * passive).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/experiment.hh"
#include "sim/report.hh"

namespace
{

using namespace noc;

RunConfig
dosConfig()
{
    RunConfig c;
    c.kind = NetKind::Loft;
    c.warmupCycles = 5000;
    c.measureCycles = 10000;
    c.applyEnvScale();
    return c;
}

double
timedRun(const RunConfig &config, const TrafficPattern &pattern,
         const std::vector<FlowRate> &rates, RunResult &out)
{
    const auto t0 = std::chrono::steady_clock::now();
    out = runExperiment(config, pattern, rates);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * Time two configurations with @p reps interleaved repetitions each
 * (A B A B ...) and keep the per-config minimum: interleaving cancels
 * slow machine drift between the two measurements, and the runs are
 * deterministic so only timing noise varies across repetitions.
 */
void
timeInterleaved(int reps, const RunConfig &a, const RunConfig &b,
                const TrafficPattern &pattern,
                const std::vector<FlowRate> &rates, RunResult &out_a,
                RunResult &out_b, double &best_a, double &best_b)
{
    best_a = timedRun(a, pattern, rates, out_a);
    best_b = timedRun(b, pattern, rates, out_b);
    for (int i = 1; i < reps; ++i) {
        RunResult scratch;
        best_a = std::min(best_a, timedRun(a, pattern, rates, scratch));
        best_b = std::min(best_b, timedRun(b, pattern, rates, scratch));
    }
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string outdir = argc > 1 ? argv[1] : ".";

    Mesh2D mesh(8, 8);
    const TrafficPattern pattern = dosPattern(mesh);
    std::vector<FlowRate> rates(pattern.flows.size());
    rates[0].flitsPerCycle = 0.2; // regulated victim
    rates[0].process = InjectionProcess::Periodic;
    rates[1].flitsPerCycle = 0.8; // aggressors at full tilt
    rates[2].flitsPerCycle = 0.8;

    // Bare reference run: same seed, no observers at all.
    RunConfig bare = dosConfig();
    bare.audit = false;
    RunResult ref;
    const double bare_s = timedRun(bare, pattern, rates, ref);

    // Audit-only (the harness default) vs audit + telemetry through
    // the observer mux: the baseline pair that isolates what
    // *telemetry* adds on top of the existing observer.
    RunConfig audited = dosConfig();
    audited.audit = true;
    RunConfig cfg = dosConfig();
    cfg.audit = true;
    cfg.telemetry.enabled = true;
    cfg.telemetry.epochCycles = 500;
    cfg.telemetry.tracePackets = true;
    RunResult audit_ref, r;
    double audit_s = 0.0, instr_s = 0.0;
    timeInterleaved(3, audited, cfg, pattern, rates, audit_ref, r,
                    audit_s, instr_s);

    const TelemetryCollector &t = *r.telemetry;

    const bool passive =
        ref.totalFlits == r.totalFlits &&
        ref.totalPackets == r.totalPackets &&
        ref.avgPacketLatency == r.avgPacketLatency &&
        audit_ref.avgPacketLatency == r.avgPacketLatency;
    const double telemetry_overhead =
        audit_s > 0.0 ? (instr_s - audit_s) / audit_s * 100.0 : 0.0;
    const double total_overhead =
        bare_s > 0.0 ? (instr_s - bare_s) / bare_s * 100.0 : 0.0;

    const std::string trace_path = outdir + "/telemetry_trace.json";
    const std::string series_path =
        outdir + "/telemetry_timeseries.csv";
    const std::string heat_path = outdir + "/telemetry_heatmap.csv";
    if (!writeFile(trace_path, t.chromeTraceJson()) ||
        !writeFile(series_path, t.timeSeriesCsv()) ||
        !writeFile(heat_path, t.heatmapCsv()))
        return 1;

    ReportDocument doc("LOFT telemetry demo - Fig. 12 DoS scenario");

    ReportTable summary("run summary", {"metric", "value"});
    summary.addRow({std::string("victim avg latency (cycles)"),
                    r.flowAvgLatency[0]});
    summary.addRow({std::string("victim p99 latency (cycles)"),
                    r.flowP99Latency[0]});
    summary.addRow({std::string("aggressor-48 p99 latency (cycles)"),
                    r.flowP99Latency[1]});
    summary.addRow({std::string("network throughput (flits/cyc/node)"),
                    r.networkThroughput});
    summary.addRow({std::string("audit hard violations"),
                    static_cast<std::int64_t>(r.auditHardViolations)});
    summary.addRow({std::string("telemetry epochs"),
                    static_cast<std::int64_t>(t.epochs().size())});
    summary.addRow({std::string("trace events recorded"),
                    static_cast<std::int64_t>(t.traceEventsRecorded())});
    summary.addRow({std::string("trace events dropped"),
                    static_cast<std::int64_t>(t.traceEventsDropped())});
    summary.addRow({std::string("bare run (s)"), bare_s});
    summary.addRow({std::string("audit-only run (s)"), audit_s});
    summary.addRow({std::string("audit+telemetry run (s)"), instr_s});
    summary.addRow({std::string("telemetry overhead vs audit (%)"),
                    telemetry_overhead});
    summary.addRow({std::string("total observer overhead (%)"),
                    total_overhead});
    summary.addRow({std::string("instrumented == bare metrics"),
                    std::string(passive ? "yes" : "NO (BUG)")});
    doc.add(summary);

    doc.add(t.classLatencyTable());
    doc.add(t.hotLinksTable(8));

    doc.write(stdout, "text");

    std::printf("wrote %s\nwrote %s\nwrote %s\n", trace_path.c_str(),
                series_path.c_str(), heat_path.c_str());
    std::printf("open the trace at https://ui.perfetto.dev (or "
                "chrome://tracing).\n");

    if (!passive) {
        std::fprintf(stderr, "ERROR: instrumentation changed the "
                             "simulation results\n");
        return 1;
    }
    // Wall-clock budget: 10% by default, overridable for noisy
    // shared-runner environments (LOFT_TELEMETRY_OVERHEAD_LIMIT, %).
    double budget = 10.0;
    if (const char *env = std::getenv("LOFT_TELEMETRY_OVERHEAD_LIMIT"))
        budget = std::atof(env);
    if (telemetry_overhead > budget) {
        std::fprintf(stderr,
                     "ERROR: telemetry overhead %.1f%% exceeds the "
                     "%.0f%% budget\n",
                     telemetry_overhead, budget);
        return 1;
    }
    return 0;
}
