#include "core/loft_sink.hh"

#include "sim/logging.hh"

namespace noc
{

LoftSink::LoftSink(NodeId node, const LoftParams &params,
                   Channel<DataWireFlit> *in,
                   Channel<ActualCreditMsg> *actual_credit_out,
                   Channel<VirtualCreditMsg> *virtual_credit_out,
                   MetricsCollector *metrics)
    : node_(node), params_(params), in_(in),
      actualCreditOut_(actual_credit_out),
      virtualCreditOut_(virtual_credit_out), metrics_(metrics)
{
    in->setReader(this, 0);
    pending_.reserve(kReassemblyReserve);
}

void
LoftSink::tick(Cycle now)
{
    auto wf = in_->tryReceive(now);
    if (!wf)
        return;
    const Flit &flit = wf->flit;
    if (flit.dst != node_)
        panic("loft-sink %u: flit for node %u", node_, flit.dst);

    ejectFlit(node_, flit, wf->corruptedAt, now, pending_, metrics_,
              observer_, [&] {
                  actualCreditOut_->send(now, ActualCreditMsg{wf->spec});
                  // The quantum is fully consumed: from this slot on its
                  // buffer reservation is free again.
                  if (flit.quantumLast)
                      virtualCreditOut_->send(
                          now, VirtualCreditMsg{params_.slotOf(now)});
              });
}

} // namespace noc
