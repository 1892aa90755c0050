#include "net/metrics.hh"

#include "sim/logging.hh"

namespace noc
{

MetricsCollector::MetricsCollector(std::size_t num_flows)
    : DomainLog("MetricsCollector"), flows_(num_flows)
{
}

void
MetricsCollector::resizeFlows(std::size_t num_flows)
{
    flows_.assign(num_flows, FlowMetrics());
}

void
MetricsCollector::startMeasurement(Cycle now)
{
    for (auto &f : flows_)
        f = FlowMetrics();
    allLatency_.reset();
    latencyHist_.reset();
    totalFlits_ = 0;
    totalPackets_ = 0;
    measuring_ = true;
    windowStart_ = now;
    windowEnd_ = now;
}

void
MetricsCollector::stopMeasurement(Cycle now)
{
    measuring_ = false;
    windowEnd_ = now;
}

// loft-tidy: steady-state-hot
void
MetricsCollector::onFlitEjected(FlowId flow)
{
    if (defer("onFlitEjected", {flow, 0, 0, false}))
        return;
    if (!measuring_)
        return;
    if (flow >= flows_.size())
        panic("MetricsCollector: flow %u out of range", flow);
    ++flows_[flow].flitsEjected;
    ++totalFlits_;
}

// loft-tidy: steady-state-hot
void
MetricsCollector::onPacketEjected(FlowId flow, Cycle created_at, Cycle now)
{
    if (defer("onPacketEjected", {flow, created_at, now, true}))
        return;
    if (!measuring_)
        return;
    if (flow >= flows_.size())
        panic("MetricsCollector: flow %u out of range", flow);
    const double latency = static_cast<double>(now - created_at);
    flows_[flow].packetLatency.sample(latency);
    flows_[flow].latencyHist.sample(latency);
    allLatency_.sample(latency);
    latencyHist_.sample(latency);
    ++flows_[flow].packetsEjected;
    ++totalPackets_;
}

void
MetricsCollector::replay(const EjectionSample &s)
{
    // Runs at the barrier, outside any domain: the hooks apply directly.
    if (s.packet)
        onPacketEjected(s.flow, s.createdAt, s.now);
    else
        onFlitEjected(s.flow);
}

Cycle
MetricsCollector::windowCycles() const
{
    return windowEnd_ > windowStart_ ? windowEnd_ - windowStart_ : 0;
}

double
MetricsCollector::avgPacketLatency() const
{
    return allLatency_.mean();
}

double
MetricsCollector::packetLatencyPercentile(double p) const
{
    return latencyHist_.percentile(p);
}

double
MetricsCollector::flowLatencyPercentile(FlowId f, double p) const
{
    return flows_.at(f).latencyHist.percentile(p);
}

double
MetricsCollector::maxPacketLatency() const
{
    return allLatency_.max();
}

double
MetricsCollector::flowThroughput(FlowId f) const
{
    const Cycle w = windowCycles();
    if (w == 0)
        return 0.0;
    return static_cast<double>(flows_.at(f).flitsEjected) /
           static_cast<double>(w);
}

double
MetricsCollector::networkThroughput(std::size_t num_nodes) const
{
    const Cycle w = windowCycles();
    if (w == 0 || num_nodes == 0)
        return 0.0;
    return static_cast<double>(totalFlits_) /
           (static_cast<double>(w) * static_cast<double>(num_nodes));
}

} // namespace noc
