/**
 * @file
 * Shared configuration for the paper-reproduction benches.
 *
 * Every bench binary regenerates one table or figure of the paper's
 * evaluation (Section 6). Simulated cycle counts default to a laptop
 * budget; set LOFT_SIM_SCALE (e.g. 2.0) to lengthen runs or 0.25 for a
 * quick smoke pass.
 *
 * Sweep-shaped benches execute their load/parameter points through the
 * parallel sweep engine (src/harness/sweep.hh); LOFT_BENCH_THREADS
 * overrides the worker count (default: hardware concurrency). Results
 * are bit-identical at any thread count, so parallelism only changes
 * wall time. JSON helpers emit the BENCH_*.json artifacts consumed by
 * scripts/check_bench.py (see docs/BENCH.md).
 */

#ifndef NOC_BENCH_BENCH_COMMON_HH
#define NOC_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "qos/allocation.hh"
#include "qos/group_metrics.hh"
#include "sim/parallel.hh"

namespace noc::bench
{

/** Table 1 LOFT configuration with a given speculative buffer size. */
inline RunConfig
loftConfig(std::uint32_t spec_buffer_flits = 12)
{
    RunConfig c;
    c.kind = NetKind::Loft;
    c.loft.specBufferFlits = spec_buffer_flits;
    c.warmupCycles = 5000;
    c.measureCycles = 10000;
    c.applyEnvScale();
    return c;
}

/** Table 1 GSF configuration. */
inline RunConfig
gsfConfig()
{
    RunConfig c;
    c.kind = NetKind::Gsf;
    c.warmupCycles = 5000;
    c.measureCycles = 10000;
    c.applyEnvScale();
    return c;
}

/** Sweep worker threads: LOFT_BENCH_THREADS, else hw concurrency. */
inline unsigned
benchThreads()
{
    if (const char *s = std::getenv("LOFT_BENCH_THREADS")) {
        const long v = std::strtol(s, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    return hardwareThreads();
}

/**
 * Run @p config at each load of @p loads with a fixed pattern, in
 * parallel, returning results in load order (bit-identical to a
 * serial loop over runExperiment).
 */
inline std::vector<RunResult>
sweepLoads(const RunConfig &config, const TrafficPattern &pattern,
           const std::vector<double> &loads,
           unsigned threads = benchThreads())
{
    SweepConfig sc;
    sc.base = config;
    sc.loads = loads;
    sc.threads = threads;
    SweepResults r = runSweep(
        sc, [&](const SweepCase &) { return pattern; });
    return std::move(r.results);
}

inline void
printRule()
{
    std::printf("-----------------------------------------------------"
                "---------------------\n");
}

/**
 * Minimal ordered JSON object builder for BENCH_*.json artifacts.
 * Supports the flat-with-nested-objects shape those files use; no
 * arrays, no escaping beyond quotes/backslashes (keys and values are
 * bench-controlled identifiers).
 */
class Json
{
  public:
    Json &
    set(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }

    Json &
    set(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    Json &
    set(const std::string &key, unsigned v)
    {
        return raw(key, std::to_string(v));
    }

    Json &
    set(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }

    Json &
    set(const std::string &key, const std::string &v)
    {
        return raw(key, "\"" + escaped(v) + "\"");
    }

    Json &
    set(const std::string &key, const char *v)
    {
        return set(key, std::string(v));
    }

    Json &
    set(const std::string &key, const Json &nested)
    {
        return raw(key, nested.str());
    }

    /** Render with two-space indentation. */
    std::string
    str(int level = 0) const
    {
        const std::string pad(2 * (level + 1), ' ');
        std::string out = "{";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            out += i ? ",\n" : "\n";
            out += pad + "\"" + fields_[i].first +
                   "\": " + indented(fields_[i].second, level + 1);
        }
        out += "\n" + std::string(2 * level, ' ') + "}";
        return out;
    }

  private:
    Json &
    raw(const std::string &key, std::string value)
    {
        fields_.emplace_back(key, std::move(value));
        return *this;
    }

    static std::string
    escaped(const std::string &s)
    {
        std::string out;
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out;
    }

    /** Re-indent a pre-rendered nested object to this nesting level. */
    static std::string
    indented(const std::string &rendered, int level)
    {
        std::string out;
        for (char c : rendered) {
            out += c;
            if (c == '\n')
                out += std::string(2 * level, ' ');
        }
        return out;
    }

    std::vector<std::pair<std::string, std::string>> fields_;
};

/** The per-execution block of a BENCH_sweep.json report. */
inline Json
summaryJson(const SweepSummary &s)
{
    Json j;
    j.set("wall_sec", s.wallSeconds)
        .set("runs_per_sec", s.runsPerSecond)
        .set("cycles_per_sec", s.cyclesPerSecond)
        .set("p50_run_ms", s.p50RunSeconds * 1e3)
        .set("p99_run_ms", s.p99RunSeconds * 1e3)
        .set("threads", s.threadsUsed)
        .set("intra_run_workers", s.intraRunWorkers)
        .set("hw_threads", s.hwThreads);
    return j;
}

/** Write @p json to @p path (with a trailing newline). */
inline bool
writeJsonFile(const std::string &path, const Json &json)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string body = json.str() + "\n";
    const bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    std::fclose(f);
    return ok;
}

} // namespace noc::bench

#endif // NOC_BENCH_BENCH_COMMON_HH
