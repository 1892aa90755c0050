#include "net/instrument.hh"

namespace noc
{

void
NetObserver::consume(const NetEvent &e)
{
    using Kind = NetEvent::Kind;
    switch (e.kind) {
      case Kind::PacketAccepted:
        onPacketAccepted(e.node, e.pkt, e.now);
        return;
      case Kind::FlitSourced:
        onFlitSourced(e.node, e.flit, e.spec, e.now);
        return;
      case Kind::FlitArrived:
        onFlitArrived(e.node, e.port, e.flit, e.spec, e.now);
        return;
      case Kind::FlitForwarded:
        onFlitForwarded(e.node, e.port, e.flit, e.spec, e.now);
        return;
      case Kind::FlitEjected:
        onFlitEjected(e.node, e.flit, e.now);
        return;
      case Kind::PacketDelivered:
        onPacketDelivered(e.node, e.flow, e.packet, e.now);
        return;
      case Kind::LookaheadAdmitted:
        onLookaheadAdmitted(e.node, e.port, e.la, e.now);
        return;
      case Kind::QuantumScheduled:
        onQuantumScheduled(e.node, e.port, e.la, e.slot, e.now);
        return;
      case Kind::NiQuantumScheduled:
        onNiQuantumScheduled(e.node, e.la, e.slot, e.now);
        return;
      case Kind::MissedSlot:
        onMissedSlot(e.node, e.port, e.now);
        return;
      case Kind::SchedFlowRegistered:
        onSchedFlowRegistered(*e.sched, e.flow, e.quanta);
        return;
      case Kind::SchedGrant:
        onSchedGrant(*e.sched, e.flow, e.quantumNo, e.slot, e.frame,
                     e.now);
        return;
      case Kind::SchedSkipped:
        onSchedSkipped(*e.sched, e.flow, e.quanta, e.frame, e.now);
        return;
      case Kind::SchedBookingCleared:
        onSchedBookingCleared(*e.sched, e.slot);
        return;
      case Kind::SchedCreditReturn:
        onSchedCreditReturn(*e.sched, e.slot);
        return;
      case Kind::SchedCreditNegative:
        onSchedCreditNegative(*e.sched, e.now);
        return;
      case Kind::SchedLocalReset:
        onSchedLocalReset(*e.sched, e.now);
        return;
      case Kind::FaultInjected:
        onFaultInjected(e.fault, e.node, e.now);
        return;
      case Kind::FaultDetected:
        onFaultDetected(e.fault, e.node, e.injectedAt, e.now);
        return;
      case Kind::FaultRecovered:
        onFaultRecovered(e.fault, e.node, e.injectedAt, e.now);
        return;
      case Kind::FlitDropped:
        onFlitDropped(e.node, e.flit, e.now);
        return;
      case Kind::SourceThrottled:
        onSourceThrottled(e.node, e.flow, e.reason, e.now);
        return;
    }
}

} // namespace noc
