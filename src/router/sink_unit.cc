#include "router/sink_unit.hh"

#include "sim/logging.hh"

namespace noc
{

SinkUnit::SinkUnit(NodeId node, Channel<WireFlit> *in,
                   Channel<Credit> *credit_return,
                   MetricsCollector *metrics)
    : node_(node), in_(in), creditReturn_(credit_return), metrics_(metrics),
      pending_(PoolAlloc<std::pair<const PacketId, std::uint32_t>>(&pool_))
{
    in->setReader(this);
    // Pin the bucket array: out-of-order delivery under speculative
    // switching keeps at most a handful of packets partially received,
    // so 256 buckets never rehash in practice (asserted by tests).
    pending_.reserve(kPendingReserve);
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

    if (flit.payload != flitPayload(flit.flow, flit.flitNo)) {
        // End-to-end payload check (fault injection): header ECC kept
        // the flit routable, so it still arrives and is announced here.
        [[maybe_unused]] const Cycle at =
            wf->corruptedAt ? wf->corruptedAt : now;
        NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::FaultDetected,
                                .fault = FaultKind::DataCorrupt,
                                .node = node_, .injectedAt = at,
                                .now = now});
        NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::FaultRecovered,
                                .fault = FaultKind::DataCorrupt,
                                .node = node_, .injectedAt = at,
                                .now = now});
    }

    if (creditReturn_)
        creditReturn_->send(now, Credit{wf->vc});

    if (metrics_)
        metrics_->onFlitEjected(flit.flow);
    NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::FlitEjected,
                            .node = node_, .flit = flit, .now = now});
    if (onEject_)
        onEject_(flit, now);

    // Packet completion: count received flits; speculative switching may
    // deliver them out of order, so do not assume the tail is last.
    auto [it, inserted] = pending_.try_emplace(flit.packet, 0u);
    (void)inserted;
    ++it->second;
    if (it->second == flit.pktSize) {
        if (metrics_)
            metrics_->onPacketEjected(flit.flow, flit.createdAt, now);
        NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::PacketDelivered,
                                .node = node_, .flow = flit.flow,
                                .packet = flit.packet, .now = now});
        pending_.erase(it);
    } else if (it->second > flit.pktSize) {
        panic("sink %u: packet %llu received more flits than its size %u",
              node_, static_cast<unsigned long long>(flit.packet),
              flit.pktSize);
    }
}

} // namespace noc
