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
      virtualCreditOut_(virtual_credit_out), metrics_(metrics),
      pending_(PoolAlloc<std::pair<const PacketId, std::uint32_t>>(&pool_))
{
    in->setReader(this);
    // Pin the bucket array: only a handful of packets are ever
    // partially received at once, so this never rehashes (asserted by
    // the zero-allocation tests).
    pending_.reserve(kPendingReserve);
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

    if (flit.payload != flitPayload(flit.flow, flit.flitNo)) {
        // End-to-end payload check (the software CRC a real NI would
        // run). Header ECC kept the flit routable, so delivery still
        // completes — the damage is detected and announced here.
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

    actualCreditOut_->send(now, ActualCreditMsg{wf->spec});
    if (flit.quantumLast) {
        // The quantum is fully consumed: from this slot on its buffer
        // reservation is free again.
        virtualCreditOut_->send(
            now, VirtualCreditMsg{params_.slotOf(now)});
    }

    if (metrics_)
        metrics_->onFlitEjected(flit.flow);
    NOC_OBSERVE(observer_, {.kind = NetEvent::Kind::FlitEjected,
                            .node = node_, .flit = flit, .now = now});

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
    }
}

} // namespace noc
