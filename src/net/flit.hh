/**
 * @file
 * Data flits and look-ahead flits.
 */

#ifndef NOC_NET_FLIT_HH
#define NOC_NET_FLIT_HH

#include <cstdint>

#include "net/packet.hh"
#include "sim/types.hh"

namespace noc
{

/** Position of a flit inside its packet. */
enum class FlitType : std::uint8_t
{
    Head,
    Body,
    Tail,
    /** Single-flit packet (head and tail at once). */
    HeadTail,
};

/**
 * A data flit. In LOFT, data flits carry no routing information: their
 * movement is dictated entirely by the reservation tables programmed by
 * the leading look-ahead flit. The flow/flit numbers (the first 16 bits
 * of the 128-bit flit in the paper) identify the flit at each hop.
 */
struct Flit
{
    FlitType type = FlitType::Head;
    FlowId flow = kInvalidFlow;
    /** Sequence number of the flit within its flow (monotonic). */
    std::uint64_t flitNo = 0;
    PacketId packet = 0;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    /** Total flits in the owning packet (for reassembly accounting). */
    std::uint32_t pktSize = 1;
    /** Cycle the owning packet was created (for latency accounting). */
    Cycle createdAt = 0;
    /**
     * GSF frame tag, and the key the wormhole fabric allocates by
     * (lowest first). Plain wormhole sources leave it 0; LOFT ignores it.
     */
    std::uint64_t frame = 0;
    /** Quantum sequence number within the flow (LOFT). */
    std::uint64_t quantum = 0;
    /** True if this flit closes its quantum (LOFT). */
    bool quantumLast = false;
    /**
     * Stand-in for the flit's data bits: sources stamp
     * flitPayload(flow, flitNo) so sinks can detect payload corruption
     * (fault injection) the way a real NI's end-to-end CRC would.
     */
    std::uint64_t payload = 0;
    /** True if this flit ends its packet. */
    bool isTail() const
    {
        return type == FlitType::Tail || type == FlitType::HeadTail;
    }
    bool isHead() const
    {
        return type == FlitType::Head || type == FlitType::HeadTail;
    }
};

/**
 * The reference payload of a flit: a cheap splitmix64-style mix of the
 * flit's identity. Deterministic, so any single bit-flip in transit is
 * detectable at the sink without carrying golden data around.
 *
 * The flow id is diffused through a full 64-bit finalizer round of its
 * own before being combined with the flit number. The obvious one-round
 * `(flow << 40) ^ flit_no` packing aliased distinct identities — flow f
 * and flit n collided with flow f^1 and n ^ (1 << 40), and any flow
 * bits above 2^24 were shifted out entirely — so at 64x64-scale flow
 * populations the end-to-end corruption check could compare against
 * the wrong golden payload (see ScalePayload.* regression tests).
 */
constexpr std::uint64_t
flitPayload(FlowId flow, std::uint64_t flit_no)
{
    std::uint64_t f =
        static_cast<std::uint64_t>(flow) + 0x9e3779b97f4a7c15ull;
    f = (f ^ (f >> 30)) * 0xbf58476d1ce4e5b9ull;
    f = (f ^ (f >> 27)) * 0x94d049bb133111ebull;
    f ^= f >> 31;

    std::uint64_t z = flit_no + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z ^= f;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * A look-ahead flit (Fig. 3 of the paper): identifies the flow by
 * (source, destination, flow number) and lists the data flits it leads
 * together with their departure times from the previous router. Here a
 * look-ahead flit leads exactly one quantum (Section 5.1), so a single
 * quantum number and departure slot suffice.
 */
struct LookaheadFlit
{
    FlowId flow = kInvalidFlow;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    /** Quantum sequence number within the flow. */
    std::uint64_t quantumNo = 0;
    /** Number of data flits in the quantum (tail quantum may be short). */
    std::uint32_t quantumFlits = 0;
    /** Flit number of the first flit of the quantum. */
    std::uint64_t firstFlitNo = 0;
    /**
     * Absolute slot at which the quantum departs the previous router
     * (i.e. will arrive at the current router after link traversal).
     * kNeverCycle until first scheduled at the source NI.
     */
    Slot departureSlot = kNeverCycle;
    PacketId packet = 0;
    Cycle createdAt = 0;
    /** True if the quantum contains its packet's tail flit. */
    bool leadsTail = false;
};

} // namespace noc

#endif // NOC_NET_FLIT_HH
