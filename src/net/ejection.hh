/**
 * @file
 * What every sink does with a flit it consumes, whichever network it
 * ends: the end-to-end payload check, the metrics and observer
 * accounting, and packet reassembly. The sinks keep their receive,
 * destination check and credit returns.
 */

#ifndef NOC_NET_EJECTION_HH
#define NOC_NET_EJECTION_HH

#include <cstdint>

#include "net/flit.hh"
#include "net/instrument.hh"
#include "net/metrics.hh"
#include "sim/flat_table.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace noc
{

/** Flits received so far per partly received packet. */
using ReassemblyTable = FlatTable<PacketId, std::uint32_t>;

/**
 * Packets a sink's table has room for from the start. On perfbench's
 * workloads a LOFT sink holds at most 3 partly received packets on
 * uniform traffic, 2 on neighbor traffic and 23 on DoS, and a wormhole
 * or GSF sink at most 6.
 */
constexpr std::size_t kReassemblyReserve = 32;

/**
 * Consume @p flit at sink @p node in cycle @p now. Check its payload:
 * a corruption injected at @p corrupted_at (or now, if that is 0) is
 * detected and recovered here. Then call @p return_credits, count the
 * flit in @p metrics and to @p obs, and count it towards its packet in
 * @p pending. The packet is delivered when its last flit arrives;
 * speculative switching may deliver its flits out of order, so the
 * tail need not be last. The delivery event carries that flit, and
 * with it the packet's source and NI enqueue cycle (createdAt).
 *
 * The credits go back between the check and the counts because a
 * faulted credit link announces its faults to the observer as it
 * sends.
 */
template <typename ReturnCredits>
void
ejectFlit(NodeId node, const Flit &flit, Cycle corrupted_at, Cycle now,
          ReassemblyTable &pending, MetricsCollector *metrics,
          NetObserver *obs, ReturnCredits &&return_credits)
{
    if (flit.payload != flitPayload(flit.flow, flit.flitNo)) {
        // End-to-end payload check (the software CRC a real NI would
        // run). Header ECC kept the flit routable, so delivery still
        // completes — the damage is detected and announced here.
        const Cycle at = corrupted_at ? corrupted_at : now;
        NOC_OBSERVE(obs, {.kind = NetEvent::Kind::FaultDetected,
                          .fault = FaultKind::DataCorrupt, .node = node,
                          .injectedAt = at, .now = now});
        NOC_OBSERVE(obs, {.kind = NetEvent::Kind::FaultRecovered,
                          .fault = FaultKind::DataCorrupt, .node = node,
                          .injectedAt = at, .now = now});
    }

    return_credits();

    if (metrics)
        metrics->onFlitEjected(flit.flow);
    NOC_OBSERVE(obs, {.kind = NetEvent::Kind::FlitEjected, .node = node,
                      .flit = flit, .now = now});

    std::uint32_t &received = *pending.tryEmplace(flit.packet, 0).first;
    ++received;
    if (received == flit.pktSize) {
        if (metrics)
            metrics->onPacketEjected(flit.flow, flit.createdAt, now);
        NOC_OBSERVE(obs, {.kind = NetEvent::Kind::PacketDelivered,
                          .node = node, .flow = flit.flow, .flit = flit,
                          .packet = flit.packet, .now = now});
        pending.erase(flit.packet);
    } else if (received > flit.pktSize) {
        panic("sink %u: packet %llu received more flits than its size %u",
              node, static_cast<unsigned long long>(flit.packet),
              flit.pktSize);
    }
}

} // namespace noc

#endif // NOC_NET_EJECTION_HH
