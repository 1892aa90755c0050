/**
 * @file
 * Wire message types of the two LOFT network planes.
 *
 * The fault-injection metadata (FaultStamp) models what real hardware
 * encodes in a CRC / sequence number: whether the message was corrupted
 * in flight (receivers discard it) or is a late re-delivery of a lost
 * original (credit resynchronization). It is all-zero in fault-free
 * runs and never influences the protocol outside the fault paths.
 */

#ifndef NOC_CORE_MESSAGES_HH
#define NOC_CORE_MESSAGES_HH

#include "net/flit.hh"
#include "net/instrument.hh"
#include "sim/types.hh"

namespace noc
{

/** Fault metadata piggybacked on credit messages (see file comment). */
struct FaultStamp
{
    /** Message failed its CRC; the receiver must discard it. */
    bool corrupted = false;
    /** Late re-delivery of a lost/corrupted original (resync). */
    bool resync = false;
    /** Which fault class produced this stamp (valid if resync). */
    FaultKind kind = FaultKind::CreditLoss;
    /** Cycle the fault was injected (latency accounting). */
    Cycle faultAt = 0;
};

/**
 * A data flit in flight, tagged with the downstream buffer it was
 * admitted to (speculative vs non-speculative, Section 4.3.1).
 */
struct DataWireFlit
{
    Flit flit;
    bool spec = false;
    /** Cycle a payload corruption was injected, 0 if clean. */
    Cycle corruptedAt = 0;
};

/**
 * Virtual credit returned by a downstream input scheduler once the
 * onward departure of a quantum has been scheduled; carries the onward
 * departure slot (absolute), from which the freed buffer space counts.
 */
struct VirtualCreditMsg
{
    Slot departSlot = 0;
    FaultStamp fault{};
};

/** One buffer slot physically freed downstream (flit granularity). */
struct ActualCreditMsg
{
    bool spec = false;
    FaultStamp fault{};
};

/**
 * A look-ahead flit on the wire, tagged with its virtual channel. A
 * "dropped" look-ahead flit is modeled as a CRC-failed arrival: the
 * receiver discards the reservation payload but still returns the VC
 * credit upstream (link-level framing survives), so credit accounting
 * stays exact while the reservation is lost.
 */
struct LaWireFlit
{
    LookaheadFlit flit;
    std::uint32_t vc = 0;
    FaultStamp fault{};
};

/** Credit of the look-ahead network. */
struct LaCredit
{
    std::uint32_t vc = 0;
    FaultStamp fault{};
};

/**
 * CRC-check a received credit-class message at @p node. Corrupted
 * messages are announced as detected and must be dropped by the caller
 * (return false); resynchronized re-deliveries are announced as
 * detected/recovered and applied normally.
 */
template <typename Msg>
inline bool
acceptCredit(const Msg &msg, NetObserver *obs, NodeId node, Cycle now)
{
    const FaultStamp &f = msg.fault;
    if (f.corrupted) {
        NOC_OBSERVE(obs, {.kind = NetEvent::Kind::FaultDetected,
                          .fault = FaultKind::CreditCorrupt, .node = node,
                          .injectedAt = f.faultAt, .now = now});
        return false;
    }
    if (f.resync) {
        // A lost credit is only noticed when the resynchronization
        // re-delivers it; a corrupted one was already detected when the
        // garbled copy failed its CRC above.
        if (f.kind == FaultKind::CreditLoss)
            NOC_OBSERVE(obs, {.kind = NetEvent::Kind::FaultDetected,
                              .fault = FaultKind::CreditLoss,
                              .node = node, .injectedAt = f.faultAt,
                              .now = now});
        NOC_OBSERVE(obs, {.kind = NetEvent::Kind::FaultRecovered,
                          .fault = f.kind, .node = node,
                          .injectedAt = f.faultAt, .now = now});
    }
    return true;
}

} // namespace noc

#endif // NOC_CORE_MESSAGES_HH
