/**
 * @file
 * FaultMonitor: the passive observer that turns onFault* events into
 * counters and latency histograms for RunResult / telemetry.
 *
 * Detection latency is now - injectedAt of each onFaultDetected event;
 * recovery latency likewise for onFaultRecovered. Both use log-bucketed
 * histograms since timeouts put recovery latencies decades apart from
 * CRC-style same-cycle detections.
 */

#ifndef NOC_FAULTS_FAULT_MONITOR_HH
#define NOC_FAULTS_FAULT_MONITOR_HH

#include <array>
#include <cstdint>

#include "net/instrument.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace noc
{

class FaultMonitor : public NetObserver
{
  public:
    FaultMonitor();

    const std::array<std::uint64_t, kNumFaultKinds> &injected() const
    {
        return injected_;
    }
    const std::array<std::uint64_t, kNumFaultKinds> &detected() const
    {
        return detected_;
    }
    const std::array<std::uint64_t, kNumFaultKinds> &recovered() const
    {
        return recovered_;
    }
    std::uint64_t flitsDropped() const { return flitsDropped_; }

    /// @name Whole-run packet accounting (survival under faults)
    /// @{
    /** Delivered / accepted over the whole run (1.0 when idle). */
    double survivalRate() const
    {
        return packetsAccepted_
                   ? static_cast<double>(packetsDelivered_) /
                         static_cast<double>(packetsAccepted_)
                   : 1.0;
    }
    /// @}

    const LogHistogram &detectionLatency() const { return detectLat_; }
    const LogHistogram &recoveryLatency() const { return recoverLat_; }

  protected:
    void onFaultInjected(FaultKind kind, NodeId node, Cycle now) override;
    void onFaultDetected(FaultKind kind, NodeId node, Cycle injectedAt,
                         Cycle now) override;
    void onFaultRecovered(FaultKind kind, NodeId node, Cycle injectedAt,
                          Cycle now) override;
    void onFlitDropped(NodeId node, const Flit &flit, Cycle now) override;
    void onPacketAccepted(NodeId node, const Packet &pkt,
                          Cycle now) override;
    void onPacketDelivered(NodeId node, FlowId flow, PacketId pkt,
                           Cycle now) override;

  private:
    std::array<std::uint64_t, kNumFaultKinds> injected_{};
    std::array<std::uint64_t, kNumFaultKinds> detected_{};
    std::array<std::uint64_t, kNumFaultKinds> recovered_{};
    std::uint64_t flitsDropped_ = 0;
    std::uint64_t packetsAccepted_ = 0;
    std::uint64_t packetsDelivered_ = 0;
    LogHistogram detectLat_;
    LogHistogram recoverLat_;
};

} // namespace noc

#endif // NOC_FAULTS_FAULT_MONITOR_HH
