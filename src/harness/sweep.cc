#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ios>
#include <sstream>
#include <thread>

#include "sim/logging.hh"

namespace noc
{
namespace
{

using SteadyClock = std::chrono::steady_clock;

double
seconds(SteadyClock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

unsigned
effectiveThreads(unsigned requested, std::size_t cases)
{
    unsigned t = requested == 0 ? hardwareThreads() : requested;
    if (cases < t)
        t = static_cast<unsigned>(cases);
    return std::max(1u, t);
}

} // namespace

WorkerSplit
planWorkerSplit(unsigned budget, std::size_t cases)
{
    WorkerSplit split;
    budget = std::max(1u, budget);
    if (cases == 0) {
        split.intraRunWorkers = budget;
        return split;
    }
    if (cases >= budget) {
        split.sweepThreads = budget;
        return split;
    }
    split.sweepThreads = static_cast<unsigned>(cases);
    split.intraRunWorkers = std::max(1u, budget / split.sweepThreads);
    return split;
}

std::vector<SweepCase>
expandSweep(const SweepConfig &config)
{
    std::vector<NetKind> kinds = config.kinds;
    if (kinds.empty())
        kinds.push_back(config.base.kind);
    std::vector<double> loads = config.loads;
    if (loads.empty())
        loads.push_back(0.0);
    std::vector<std::uint64_t> seeds = config.seeds;
    if (seeds.empty())
        seeds.push_back(config.base.seed);

    std::vector<SweepCase> cases;
    cases.reserve(kinds.size() * loads.size() * seeds.size() *
                  std::max<std::size_t>(1, config.overrides.size()));

    const std::size_t num_ovr =
        std::max<std::size_t>(1, config.overrides.size());
    for (NetKind kind : kinds) {
        for (std::size_t o = 0; o < num_ovr; ++o) {
            for (double load : loads) {
                for (std::uint64_t seed : seeds) {
                    SweepCase c;
                    c.index = cases.size();
                    c.kind = kind;
                    c.load = load;
                    c.seed = seed;
                    c.overrideIndex = o;
                    c.config = config.base;
                    c.config.kind = kind;
                    c.config.seed = seed;
                    if (o < config.overrides.size()) {
                        const SweepOverride &ovr = config.overrides[o];
                        c.overrideLabel = ovr.label;
                        if (ovr.apply)
                            ovr.apply(c.config);
                    }
                    cases.push_back(std::move(c));
                }
            }
        }
    }
    return cases;
}

SweepResults
runSweep(const SweepConfig &config, const SweepRunner &runner)
{
    if (!runner)
        panic("runSweep: null runner");

    SweepResults out;
    out.cases = expandSweep(config);
    out.results.resize(out.cases.size());
    std::vector<double> runSeconds(out.cases.size(), 0.0);

    const unsigned threads =
        effectiveThreads(config.threads, out.cases.size());
    const unsigned hw = hardwareThreads();
    const unsigned intra = std::max(1u, config.base.intraRunWorkers);
    if (threads * intra > hw) {
        // Results stay bit-identical either way; only wall clock
        // suffers. Saying so here is what finally explained the
        // baseline's 1.005x "speedup" (a 1-hardware-thread host).
        warn("sweep oversubscribed: %u sweep thread(s) x %u intra-run "
             "worker(s) on %u hardware thread(s); expect time-slicing, "
             "not speedup",
             threads, intra, hw);
    }
    const SteadyClock::time_point t0 = SteadyClock::now();

    // Each worker claims the next unclaimed submission index and
    // writes results[i] / runSeconds[i]; no two workers ever touch
    // the same slot, and the merged output order is the submission
    // order regardless of which worker finishes when.
    auto work = [&](std::size_t i) {
        const SteadyClock::time_point r0 = SteadyClock::now();
        out.results[i] = runner(out.cases[i]);
        runSeconds[i] = seconds(SteadyClock::now() - r0);
    };

    if (threads <= 1) {
        for (std::size_t i = 0; i < out.cases.size(); ++i)
            work(i);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t) {
            pool.emplace_back([&] {
                for (;;) {
                    const std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= out.cases.size())
                        return;
                    work(i);
                }
            });
        }
        for (std::thread &th : pool)
            th.join();
    }

    SweepSummary &s = out.summary;
    s.wallSeconds = seconds(SteadyClock::now() - t0);
    s.threadsUsed = threads;
    s.hwThreads = hw;
    s.intraRunWorkers = intra;
    if (s.wallSeconds > 0.0) {
        double cycles = 0.0;
        for (const SweepCase &c : out.cases) {
            cycles += static_cast<double>(c.config.warmupCycles) +
                      static_cast<double>(c.config.measureCycles);
        }
        s.runsPerSecond =
            static_cast<double>(out.cases.size()) / s.wallSeconds;
        s.cyclesPerSecond = cycles / s.wallSeconds;
    }
    s.p50RunSeconds = percentile(runSeconds, 0.50);
    s.p99RunSeconds = percentile(runSeconds, 0.99);
    return out;
}

SweepResults
runSweep(const SweepConfig &config, const PatternFactory &make_pattern)
{
    if (!make_pattern)
        panic("runSweep: null pattern factory");
    return runSweep(config, [&](const SweepCase &c) {
        const TrafficPattern pattern = make_pattern(c);
        return runExperiment(c.config, pattern, c.load);
    });
}

TraceSummary
consolidateTraceSummaries(const SweepResults &results)
{
    std::vector<TraceSummary> parts;
    for (const RunResult &r : results.results) {
        if (r.traceSummary.enabled)
            parts.push_back(r.traceSummary);
    }
    return mergeTraceSummaries(parts);
}

std::string
sweepFingerprint(const RunResult &r)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << r.avgPacketLatency << " " << r.maxPacketLatency << " "
       << r.p50PacketLatency << " " << r.p95PacketLatency << " "
       << r.p99PacketLatency << " " << r.networkThroughput << " "
       << r.totalFlits << " " << r.totalPackets << " "
       << r.localResets << " " << r.speculativeForwards << " "
       << r.emergentForwards << " " << r.anomalyViolations << " "
       << r.missedSlots << " " << r.frameRecycles << " "
       << r.auditHardViolations << " " << r.auditWatchdogs << "\n";
    for (std::size_t k = 0; k < kNumFaultKinds; ++k)
        os << r.faultsInjected[k] << " " << r.faultsDetected[k] << " "
           << r.faultsRecovered[k] << " ";
    os << r.faultFlitsDropped << " " << r.lookaheadReissues << " "
       << r.quantaScrubbed << " " << r.packetSurvivalRate << " "
       << r.faultDetectionP99 << " " << r.faultRecoveryP99 << "\n";
    for (double v : r.flowThroughput)
        os << v << " ";
    for (double v : r.flowAvgLatency)
        os << v << " ";
    for (double v : r.flowMaxLatency)
        os << v << " ";
    for (double v : r.flowP99Latency)
        os << v << " ";
    for (double v : r.linkUtilization)
        os << v << " ";
    return os.str();
}

std::string
sweepFingerprint(const SweepResults &r)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < r.results.size(); ++i)
        os << "#" << i << " " << sweepFingerprint(r.results[i]) << "\n";
    return os.str();
}

} // namespace noc
