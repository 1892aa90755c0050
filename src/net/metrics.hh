/**
 * @file
 * Run-time measurement: per-flow latency and throughput accounting with
 * a warmup gate.
 */

#ifndef NOC_NET_METRICS_HH
#define NOC_NET_METRICS_HH

#include <cstdint>
#include <vector>

#include "sim/parallel.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace noc
{

/**
 * Geometry of the latency histograms: log-spaced buckets covering
 * 1 cycle .. 2^20 cycles with 8 buckets per octave (~9% relative
 * resolution), shared by per-flow, per-class and network-wide
 * distributions so they can be merged.
 */
constexpr double kLatencyHistLo = 1.0;
constexpr double kLatencyHistHi = 1 << 20;
constexpr std::size_t kLatencyHistBuckets = 160;

/** Aggregated measurement results for one flow. */
struct FlowMetrics
{
    std::uint64_t packetsEjected = 0;
    std::uint64_t flitsEjected = 0;
    RunningStat packetLatency;
    /** Log-bucketed latency distribution (tail percentiles). */
    LogHistogram latencyHist{kLatencyHistLo, kLatencyHistHi,
                             kLatencyHistBuckets};
};

/** One ejection-side sample, as buffered by a domain. */
struct EjectionSample
{
    FlowId flow = kInvalidFlow;
    Cycle createdAt = 0;
    Cycle now = 0;
    /** True for a packet (tail) sample, false for a flit sample. */
    bool packet = false;
};

/**
 * Collects ejection-side measurements. Sinks call the onXxx hooks; the
 * harness turns on measurement after warmup and reads the results.
 *
 * Sinks of several domains call the hooks concurrently, so the samples
 * go through a DomainLog and are replayed at the per-cycle barrier in
 * serial order — including the floating-point accumulation order of
 * the latency statistics.
 */
class MetricsCollector : public DomainLog<EjectionSample>
{
  public:
    explicit MetricsCollector(std::size_t num_flows = 0);

    void resizeFlows(std::size_t num_flows);

    /** Begin the measurement window at cycle @p now (clears samples). */
    void startMeasurement(Cycle now);

    /** End the measurement window at cycle @p now. */
    void stopMeasurement(Cycle now);

    /** A data flit of @p flow was ejected. */
    void onFlitEjected(FlowId flow);

    /** The tail flit of a packet was ejected; record its latency. */
    void onPacketEjected(FlowId flow, Cycle created_at, Cycle now);

    /** Length of the (closed) measurement window in cycles. */
    Cycle windowCycles() const;

    const FlowMetrics &flow(FlowId f) const { return flows_.at(f); }

    std::uint64_t totalFlits() const { return totalFlits_; }
    std::uint64_t totalPackets() const { return totalPackets_; }

    /** Mean packet latency over all flows (cycles). */
    double avgPacketLatency() const;

    /** Latency percentile over all packets in the window (cycles). */
    double packetLatencyPercentile(double p) const;

    /** Latency percentile of one flow's packets (cycles). */
    double flowLatencyPercentile(FlowId f, double p) const;

    /** Max packet latency seen in the window (cycles). */
    double maxPacketLatency() const;

    /**
     * Accepted throughput of one flow in flits/cycle over the window.
     * @pre the measurement window is closed or @p now is supplied.
     */
    double flowThroughput(FlowId f) const;

    /** Network-wide accepted throughput in flits/cycle/node. */
    double networkThroughput(std::size_t num_nodes) const;

  private:
    void replay(const EjectionSample &s) override;

    std::vector<FlowMetrics> flows_;
    RunningStat allLatency_;
    LogHistogram latencyHist_{kLatencyHistLo, kLatencyHistHi,
                              kLatencyHistBuckets};
    std::uint64_t totalFlits_ = 0;
    std::uint64_t totalPackets_ = 0;
    bool measuring_ = false;
    Cycle windowStart_ = 0;
    Cycle windowEnd_ = 0;
};

} // namespace noc

#endif // NOC_NET_METRICS_HH
