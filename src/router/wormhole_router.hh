/**
 * @file
 * A generic virtual-channel wormhole router with credit-based flow
 * control and a 3-stage pipeline (RC/VA, SA, ST).
 *
 * Two rules support the GSF baseline:
 *  - VC and switch allocation grant the lowest flit frame first and
 *    break ties round-robin (GSF's oldest-frame-first). Wormhole
 *    sources stamp frame 0, so there allocation is plain round-robin;
 *  - atomic VC reuse: an output VC is reallocated only after the
 *    downstream buffer for that VC has fully drained, modelling GSF's
 *    rule that flits of different packets never share a virtual channel.
 */

#ifndef NOC_ROUTER_WORMHOLE_ROUTER_HH
#define NOC_ROUTER_WORMHOLE_ROUTER_HH

#include <array>
#include <vector>

#include "net/channel.hh"
#include "net/flit.hh"
#include "net/instrument.hh"
#include "net/routing.hh"
#include "net/topology.hh"
#include "router/arbiter.hh"
#include "sim/clocked.hh"

namespace noc
{

/** A data flit on the wire, tagged with its virtual channel. */
struct WireFlit
{
    Flit flit;
    std::uint32_t vc = 0;
    /** Cycle a payload corruption was injected, 0 if clean. */
    Cycle corruptedAt = 0;
};

/** Configuration of a wormhole router / network. */
struct WormholeParams
{
    std::uint32_t numVCs = 2;
    std::uint32_t vcDepthFlits = 4;
    /** Router pipeline depth in cycles (>= 1). */
    Cycle routerStages = 3;
    /** Link traversal latency in cycles. */
    Cycle linkLatency = 1;
    /** GSF-style: reallocate an output VC only once fully drained. */
    bool atomicVcReuse = false;
};

/**
 * One mesh router. The owner wires up the channel endpoints; ports
 * without a neighbour keep null channels and are skipped.
 */
class WormholeRouter final : public Clocked
{
  public:
    /** Allocation masks span every input VC: kNumPorts * numVCs <= 64. */
    static constexpr std::size_t kMaxInputVCs = 64;

    WormholeRouter(NodeId id, const Mesh2D &mesh,
                   const WormholeParams &params);

    NodeId id() const { return id_; }

    /** Wire an input port: incoming flits, outgoing credits. */
    void connectInput(Port p, Channel<WireFlit> *in,
                      Channel<Credit> *credit_return);

    /** Wire an output port: outgoing flits, incoming credits. */
    void connectOutput(Port p, Channel<WireFlit> *out,
                       Channel<Credit> *credit_in);

    /** Attach an event observer. */
    void setObserver(NetObserver *obs) { observer_ = obs; }

    void tick(Cycle now) override;

    /**
     * Idle when no wire has pending traffic (mail() == 0) and every
     * input VC is drained back to Idle. An Active VC with an empty
     * buffer (packet body still in flight upstream) keeps the router
     * awake so its allocated output VC is eventually released; a
     * `draining` output VC on its own is safe to sleep with — only a
     * credit arrival can complete the drain, and that wakes us via
     * creditIn_.
     */
    bool quiescent() const override;

    /** Flits buffered inside this router (all input VCs). */
    std::uint64_t bufferedFlits() const;

    /** Free credit count seen for an output VC (testing aid). */
    std::uint32_t outputCredits(Port p, std::uint32_t vc) const;

  private:
    /** Lifecycle of one input virtual channel. */
    enum class VCState : std::uint8_t
    {
        Idle,       ///< no packet being routed
        VCWait,     ///< routed; waiting for an output VC
        Active,     ///< output VC allocated; flits may traverse
    };

    /** A buffered flit plus the first cycle it may traverse the switch. */
    struct TimedFlit
    {
        Flit flit;
        Cycle readyAt = 0;
    };

    /**
     * One input VC. Its flit buffer is a fixed-capacity ring slice of
     * the shared flat store (bufStore_): credits bound the occupancy to
     * vcDepthFlits, so the slice can never overflow and the router
     * performs no buffer allocation after construction.
     */
    struct InputVC
    {
        VCState state = VCState::Idle;
        Port outPort = Port::Local;
        std::uint32_t outVC = 0;
        /** First slot of this VC's slice in bufStore_. */
        std::uint32_t base = 0;
        /** Ring cursor (offset of the head flit within the slice). */
        std::uint32_t head = 0;
        /** Buffered flit count. */
        std::uint32_t count = 0;
    };

    struct OutputVC
    {
        bool allocated = false;
        /** Waiting for the downstream buffer to drain (atomic reuse). */
        bool draining = false;
        std::size_t ownerPort = 0;
        std::uint32_t ownerVC = 0;
        std::uint32_t credits = 0;
    };

    /**
     * Allocation keys of the input VCs from index `first` on, indexed
     * like a request mask: entry i is the frame of VC first + i's head
     * flit.
     * lowestKeyMask() reads it only for requesting VCs, which always
     * hold a head flit, so no key array is built per cycle.
     */
    struct HeadFrames
    {
        const WormholeRouter &router;
        std::size_t first = 0;

        std::uint64_t
        operator[](std::size_t i) const
        {
            return router.vcFront(router.inputVCs_[first + i]).flit.frame;
        }
    };

    /// @name Mail-word bits (Clocked::mail)
    /// Input p's flit wire is bit p; output p's credit wire is bit
    /// kNumPorts + p.
    /// @{
    static constexpr std::uint32_t kFlitMail = (1u << kNumPorts) - 1;
    static constexpr std::uint32_t kCreditMail = kFlitMail << kNumPorts;
    /// @}

    void receiveCredits(Cycle now);
    void receiveFlits(Cycle now);
    void switchAllocAndTraverse(Cycle now);
    void vcAlloc(Cycle now);
    void routeCompute(Cycle now);

    InputVC &ivc(std::size_t port, std::uint32_t vc);
    OutputVC &ovc(std::size_t port, std::uint32_t vc);

    /// @name Fixed-ring VC buffer primitives (over bufStore_).
    /// @{
    const TimedFlit &
    vcFront(const InputVC &v) const
    {
        return bufStore_[v.base + v.head];
    }

    void
    vcPush(InputVC &v, const Flit &f, Cycle ready_at)
    {
        std::uint32_t slot = v.head + v.count;
        if (slot >= params_.vcDepthFlits)
            slot -= params_.vcDepthFlits;
        TimedFlit &t = bufStore_[v.base + slot];
        t.flit = f;
        t.readyAt = ready_at;
        ++v.count;
    }

    void
    vcPop(InputVC &v)
    {
        ++v.head;
        if (v.head == params_.vcDepthFlits)
            v.head = 0;
        --v.count;
    }
    /// @}

    NodeId id_;
    const Mesh2D &mesh_;
    WormholeParams params_;

    std::array<Channel<WireFlit> *, kNumPorts> in_{};
    std::array<Channel<Credit> *, kNumPorts> creditReturn_{};
    std::array<Channel<WireFlit> *, kNumPorts> out_{};
    std::array<Channel<Credit> *, kNumPorts> creditIn_{};

    /** Input VC state, [port * numVCs + vc]. */
    std::vector<InputVC> inputVCs_;
    /** Output VC state, [port * numVCs + vc]. */
    std::vector<OutputVC> outputVCs_;
    /** Flat VC buffer store, [(port * numVCs + vc) * vcDepthFlits +
     *  slot]; sized once at construction (structure-of-arrays). */
    std::vector<TimedFlit> bufStore_;

    /** Per-input-port VC selection for switch allocation. */
    std::array<RoundRobinArbiter, kNumPorts> inputArb_;
    /** Per-output-port arbitration among input ports. */
    std::array<RoundRobinArbiter, kNumPorts> outputArb_;
    /** Per-output-port arbitration for VC allocation, over input VCs. */
    std::array<RoundRobinArbiter, kNumPorts> vcArb_;

    // loft-tidy: deferred-endpoint(ObserverMux)
    NetObserver *observer_ = nullptr;
};

} // namespace noc

#endif // NOC_ROUTER_WORMHOLE_ROUTER_HH
