/**
 * @file
 * FaultTraits: per-message-type capabilities of the fault injector,
 * and the only statement of which fault classes a wire can carry.
 *
 * The primary template declares every message type immune to all but
 * link stalls; explicit specializations opt the concrete wire types
 * into the fault classes that make physical sense for them:
 *
 *  - look-ahead flits can be dropped (control plane has no retransmit;
 *    the CRC-failed frame still arrives so the receiver can return the
 *    VC credit, but the reservation payload is lost);
 *  - credit messages can be lost or corrupted, and carry a FaultStamp
 *    so receivers can model CRC-discard and late resynchronization;
 *  - data flits can have their payload bits flipped (routing metadata
 *    is assumed protected, as header ECC is in real routers, so the
 *    simulation's control flow is unaffected);
 *  - every type can be delayed by a link stall (handled by the channel
 *    hook itself, no trait needed), so a fabric credit carries stalls
 *    only.
 */

#ifndef NOC_FAULTS_FAULT_TRAITS_HH
#define NOC_FAULTS_FAULT_TRAITS_HH

#include "core/messages.hh"
#include "router/wormhole_router.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace noc
{

template <typename T>
struct FaultTraits
{
    static constexpr bool droppable = false;
    static constexpr bool credit = false;
    static constexpr bool corruptible = false;
};

template <>
struct FaultTraits<LaWireFlit>
{
    static constexpr bool droppable = true;
    static constexpr bool credit = false;
    static constexpr bool corruptible = false;

    static FaultStamp &stamp(LaWireFlit &msg) { return msg.fault; }
};

template <>
struct FaultTraits<LaCredit>
{
    static constexpr bool droppable = false;
    static constexpr bool credit = true;
    static constexpr bool corruptible = false;

    static FaultStamp &stamp(LaCredit &msg) { return msg.fault; }
};

template <>
struct FaultTraits<ActualCreditMsg>
{
    static constexpr bool droppable = false;
    static constexpr bool credit = true;
    static constexpr bool corruptible = false;

    static FaultStamp &stamp(ActualCreditMsg &msg) { return msg.fault; }
};

template <>
struct FaultTraits<VirtualCreditMsg>
{
    static constexpr bool droppable = false;
    static constexpr bool credit = true;
    static constexpr bool corruptible = false;

    static FaultStamp &stamp(VirtualCreditMsg &msg) { return msg.fault; }
};

template <>
struct FaultTraits<DataWireFlit>
{
    static constexpr bool droppable = false;
    static constexpr bool credit = false;
    static constexpr bool corruptible = true;

    static void
    corrupt(DataWireFlit &msg, Rng &rng, Cycle now)
    {
        msg.flit.payload ^= 1ull << rng.randRange(64);
        msg.corruptedAt = now;
    }
};

template <>
struct FaultTraits<WireFlit>
{
    static constexpr bool droppable = false;
    static constexpr bool credit = false;
    static constexpr bool corruptible = true;

    static void
    corrupt(WireFlit &msg, Rng &rng, Cycle now)
    {
        msg.flit.payload ^= 1ull << rng.randRange(64);
        msg.corruptedAt = now;
    }
};

} // namespace noc

#endif // NOC_FAULTS_FAULT_TRAITS_HH
