#include "faults/fault_monitor.hh"

namespace noc
{

FaultMonitor::FaultMonitor()
    : detectLat_(1.0, 1 << 16, 64), recoverLat_(1.0, 1 << 16, 64)
{
}

void
FaultMonitor::onFaultInjected(FaultKind kind, NodeId, Cycle)
{
    ++injected_[static_cast<std::size_t>(kind)];
}

void
FaultMonitor::onFaultDetected(FaultKind kind, NodeId, Cycle injectedAt,
                              Cycle now)
{
    ++detected_[static_cast<std::size_t>(kind)];
    if (now >= injectedAt)
        detectLat_.sample(static_cast<double>(now - injectedAt));
}

void
FaultMonitor::onFaultRecovered(FaultKind kind, NodeId, Cycle injectedAt,
                               Cycle now)
{
    ++recovered_[static_cast<std::size_t>(kind)];
    if (now >= injectedAt)
        recoverLat_.sample(static_cast<double>(now - injectedAt));
}

void
FaultMonitor::onFlitDropped(NodeId, const Flit &, Cycle)
{
    ++flitsDropped_;
}

void
FaultMonitor::onPacketAccepted(NodeId, const Packet &, Cycle)
{
    ++packetsAccepted_;
}

void
FaultMonitor::onPacketDelivered(NodeId, FlowId, PacketId, Cycle)
{
    ++packetsDelivered_;
}

} // namespace noc
