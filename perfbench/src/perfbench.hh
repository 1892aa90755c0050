/**
 * @file
 * The LOFT performance benchmark: three workloads, an untraced
 * measurement of the end-to-end metrics, and a traced run that splits
 * host time over the simulator's layers.
 *
 * Everything is measured from outside the simulator, by timing calls
 * into public functions (buildNetwork, Network::registerFlows,
 * TrafficGenerator::configure, Network::attach, Simulator::run,
 * runExperiment and OutputScheduler's API). Simulated quantities come
 * from the model and repeat exactly for a seed; host quantities come
 * from wall time. See perfbench/README.md for the metric map.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Workload
{
    LoftUniform16,
    LoftNeighbor32,
    DosObserved8,
};

/** Workload names in manifest order ("loft_uniform_16x16", ...). */
const std::vector<std::string> &workloadNames();
std::optional<Workload> parseWorkload(const std::string &name);
const char *workloadName(Workload w);

/** One simulated run: configuration, traffic and per-flow rates. */
struct RunSpec
{
    /** Network label: "loft", "gsf" or "wormhole". */
    std::string label;
    noc::RunConfig config;
    noc::TrafficPattern pattern;
    std::vector<noc::FlowRate> rates;

    /** Warm-up plus measurement cycles. */
    noc::Cycle cycles() const
    {
        return config.warmupCycles + config.measureCycles;
    }
};

/**
 * The runs of workload @p w with traffic seed @p seed. Uniform and
 * neighbor are one observer-free LOFT run; the DoS workload is an
 * ensemble of LOFT runs on sub-seeds mixSeed(seed, i) plus one GSF and
 * one wormhole run, all with audit, telemetry and trace on. The
 * simulated metrics are means over the runs on the first run's network.
 */
std::vector<RunSpec> workloadRuns(Workload w, std::uint64_t seed);

/** Host time of the four setup calls of one run (seconds). */
struct SetupTimes
{
    double buildNetwork = 0.0;
    double registerFlows = 0.0;
    double configure = 0.0;
    double attach = 0.0;

    double total() const
    {
        return buildNetwork + registerFlows + configure + attach;
    }
};

/** Collects named wall-clock spans and writes them as a Chrome trace. */
class SpanRecorder
{
  public:
    SpanRecorder() : origin_(Clock::now()) {}

    /** Open a span; returns its id. Spans nest by open/close order. */
    int open(std::string name);
    void close(int id);

    /** Write every closed span (trace-event "X" records) to @p path. */
    bool write(const std::string &path, std::uint32_t mesh_width,
               std::uint32_t mesh_height) const;

    std::size_t size() const { return spans_.size(); }

  private:
    struct Span
    {
        std::string name;
        int parent = -1;
        double startUs = 0.0;
        double durUs = -1.0;
    };

    double nowUs() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: open on construction, close on destruction (null-safe). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, std::string name)
        : rec_(rec), id_(rec ? rec->open(std::move(name)) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
    int id_;
};

/**
 * Event counts published through the NetObserver hooks. Attached with
 * Network::setObserver in the traced run only.
 */
struct EventCounts
{
    std::uint64_t events = 0;
    std::uint64_t grants = 0;
    std::uint64_t creditReturns = 0;
    std::uint64_t localResets = 0;
    std::uint64_t skips = 0;
    std::uint64_t forwards = 0;
    std::uint64_t specForwards = 0;
};

EventCounts operator-(const EventCounts &a, const EventCounts &b);

/** How replayRun drives a run. */
struct ReplayOptions
{
    /** Measure window is run in chunks of this many cycles (0 = one). */
    noc::Cycle chunkCycles = 0;
    /** Attach a counting observer to the network. */
    bool countEvents = false;
    /** Intra-run workers (1 = serial). */
    unsigned workers = 1;
    /** Stop after setup (the run is never simulated). */
    bool setupOnly = false;
    /** Record spans around every call (may be null). */
    SpanRecorder *spans = nullptr;
};

/** LOFT output-scheduler totals read from the network after a run. */
struct LoftSchedTotals
{
    std::uint64_t grants = 0;
    std::uint64_t throttles = 0;
    std::uint64_t resets = 0;
    /** Schedulers with at least one registered flow. */
    std::uint64_t activeSchedulers = 0;
    /** Largest reserved slot count on one scheduler. */
    std::uint32_t maxReservedSlots = 0;
};

/** What replayRun measured. */
struct ReplayResult
{
    noc::RunResult result;
    SetupTimes setup;
    double warmupSeconds = 0.0;
    double measureSeconds = 0.0;
    std::uint64_t ticksExecuted = 0;
    std::uint64_t ticksSkipped = 0;
    /** Heap allocations during the measure window. */
    std::uint64_t steadyAllocs = 0;
    /** Host seconds per measure chunk (chunked runs only). */
    std::vector<double> chunkSeconds;
    /** activeComponents() sampled after each measure chunk. */
    std::vector<double> activeComponents;
    /** Measure-window event counts (countEvents only). */
    EventCounts measureEvents;
    /** Events over the whole run, setup included (countEvents only). */
    std::uint64_t runEvents = 0;
    LoftSchedTotals sched;
};

/**
 * Replay runExperiment's serial, observer-free path from outside:
 * buildNetwork -> registerFlows -> TrafficGenerator::configure ->
 * attach -> Simulator::run (warm-up, then the measure window). The
 * result is assembled as runExperiment assembles it, so its
 * sweepFingerprint equals runExperiment's for the same spec.
 */
ReplayResult replayRun(const RunSpec &spec, const ReplayOptions &opt);

/** 16 hex digits of the FNV-1a hash of @p text. */
std::string fnv1aHex(const std::string &text);

/** Hashed sweepFingerprint of a workload's runs, in run order. */
std::string workloadFingerprint(const std::vector<noc::RunResult> &runs);

/**
 * Output check of one run: zero audit hard violations and watchdog
 * trips, no anomaly violations, no trace decomposition mismatch, and
 * at least one packet delivered. Returns "" when the run is clean.
 */
std::string checkRun(const noc::RunResult &r);

/** p99 latency over the pattern's group-0 flows (cycles). */
double groupZeroP99(const RunSpec &spec, const noc::RunResult &r);

/**
 * Reference fingerprints, one line per (workload, seed):
 * "<workload> <seed> <16 hex digits>". Missing file = empty table.
 */
using ReferenceTable = std::map<std::pair<std::string, std::uint64_t>,
                                std::string>;
ReferenceTable loadReferences(const std::string &path);

/** The reference line of (w, seed), computed through runExperiment. */
std::string referenceLine(Workload w, std::uint64_t seed);

/** Value and unit of one printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The manifest's end-to-end / per-layer metric names, in order. */
const std::vector<std::string> &endToEndMetricNames();
const std::vector<std::string> &perLayerMetricNames();

/** One benchmark invocation's outcome. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Failure descriptions (empty when correct). */
    std::vector<std::string> problems;

    bool correct() const { return problems.empty() && failed == 0; }
};

/**
 * Untraced measurement: repeat the workload's runs for at least
 * @p seconds of host time and report the end-to-end metrics (host
 * numbers are medians over repetitions). Every run is checked; when
 * @p refs holds (w, seed) the fingerprint must match it.
 */
Outcome measureEndToEnd(Workload w, std::uint64_t seed, double seconds,
                        const ReferenceTable &refs);

/**
 * Traced run: the per-layer metrics. Writes the Chrome-trace span file
 * to @p span_path when it is not empty.
 */
Outcome measurePerLayer(Workload w, std::uint64_t seed, double seconds,
                        const ReferenceTable &refs,
                        const std::string &span_path);

/** The last output line: {"correct":..,"attempted":..,..,"metrics":{..}}. */
std::string resultJson(const Outcome &o);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Percentile @p q in [0, 1] of @p v, nearest-rank (0 when empty). */
double percentile(std::vector<double> v, double q);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
