#include "router/sink_unit.hh"

#include "sim/logging.hh"

namespace noc
{

SinkUnit::SinkUnit(NodeId node, Channel<WireFlit> *in,
                   Channel<Credit> *credit_return,
                   MetricsCollector *metrics)
    : node_(node), in_(in), creditReturn_(credit_return), metrics_(metrics)
{
    in->setReader(this, 0);
    pending_.reserve(kReassemblyReserve);
}

void
SinkUnit::setOnEject(std::function<void(const Flit &, Cycle)> cb)
{
    onEject_ = std::move(cb);
}

void
SinkUnit::tick(Cycle now)
{
    // Constant ejection rate: at most one flit per cycle.
    auto wf = in_->tryReceive(now);
    if (!wf)
        return;
    const Flit &flit = wf->flit;
    if (flit.dst != node_)
        panic("sink %u received flit for node %u (flow %u)",
              node_, flit.dst, flit.flow);

    ejectFlit(node_, flit, wf->corruptedAt, now, pending_, metrics_,
              observer_, [&] {
                  if (creditReturn_)
                      creditReturn_->send(now, Credit{wf->vc});
              });
    // GSF's frame barrier emits no observer events, so its update may
    // follow the packet count.
    if (onEject_)
        onEject_(flit, now);
}

} // namespace noc
