/**
 * @file
 * The look-ahead network router (Fig. 4, left): a small VC router for
 * single-flit look-ahead packets. At switch allocation, the winning
 * look-ahead flit performs output scheduling against the co-located
 * data router's LSF output scheduler; on failure it stays in its
 * virtual channel and retries (this is how LSF throttles a flow hop by
 * hop). On look-ahead flit arrival the data router's input reservation
 * table is written (step 1 of the FRS procedure).
 */

#ifndef NOC_CORE_LOOKAHEAD_ROUTER_HH
#define NOC_CORE_LOOKAHEAD_ROUTER_HH

#include <array>
#include <vector>

#include "core/data_router.hh"
#include "core/messages.hh"
#include "net/channel.hh"
#include "router/arbiter.hh"
#include "sim/clocked.hh"

namespace noc
{

class LookaheadRouter final : public Clocked
{
  public:
    LookaheadRouter(NodeId id, const Mesh2D &mesh,
                    const LoftParams &params, LoftDataRouter *data);

    NodeId id() const { return id_; }

    void connectInput(Port p, Channel<LaWireFlit> *in,
                      Channel<LaCredit> *credit_return);
    void connectOutput(Port p, Channel<LaWireFlit> *out,
                       Channel<LaCredit> *credit_in);

    void tick(Cycle now) override;

    bool quiescent() const override;

    /** Attach an event observer (fault detection announcements). */
    void setObserver(NetObserver *obs) { observer_ = obs; }

    /** Look-ahead flits buffered in the input VCs. */
    std::uint64_t bufferedFlits() const { return buffered_; }

  private:
    struct TimedLa
    {
        LookaheadFlit flit;
        Cycle readyAt = 0;
    };

    /**
     * One input port. Each VC's buffer is a fixed-capacity ring slice
     * of the port's flat store (structure-of-arrays): look-ahead
     * credits bound occupancy to laVcDepth, so the slices never
     * overflow and no buffer allocation happens after construction.
     */
    struct InputPort
    {
        Channel<LaWireFlit> *in = nullptr;
        Channel<LaCredit> *creditReturn = nullptr;
        /** Flat VC buffer store, [vc * laVcDepth + slot]. */
        std::vector<TimedLa> store;
        /** Ring cursor (head-slot offset) per VC. */
        std::vector<std::uint32_t> head;
        /** Buffered flit count per VC. */
        std::vector<std::uint32_t> count;
    };

    struct OutputPort
    {
        Channel<LaWireFlit> *out = nullptr;
        Channel<LaCredit> *creditIn = nullptr;
        std::vector<std::uint32_t> credits;
        RoundRobinArbiter vcPick;
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
    void admitToTables(Cycle now);
    void allocateAndSchedule(Cycle now);

    /// @name Fixed-ring VC buffer primitives (over InputPort::store).
    /// @{
    const TimedLa &
    laFront(const InputPort &ip, std::uint32_t vc) const
    {
        return ip.store[vc * params_.laVcDepth + ip.head[vc]];
    }

    void
    laPush(InputPort &ip, std::uint32_t vc, const LookaheadFlit &f,
           Cycle ready_at)
    {
        std::uint32_t slot = ip.head[vc] + ip.count[vc];
        if (slot >= params_.laVcDepth)
            slot -= params_.laVcDepth;
        TimedLa &t = ip.store[vc * params_.laVcDepth + slot];
        t.flit = f;
        t.readyAt = ready_at;
        ++ip.count[vc];
        ++buffered_;
    }

    void
    laPop(InputPort &ip, std::uint32_t vc)
    {
        ++ip.head[vc];
        if (ip.head[vc] == params_.laVcDepth)
            ip.head[vc] = 0;
        --ip.count[vc];
        --buffered_;
    }
    /// @}

    NodeId id_;
    const Mesh2D &mesh_;
    LoftParams params_;
    LoftDataRouter *data_;

    std::array<InputPort, kNumPorts> inputs_;
    std::array<OutputPort, kNumPorts> outputs_;
    /** Flits in every input VC (the sum of the count vectors). */
    std::uint64_t buffered_ = 0;

    // loft-tidy: deferred-endpoint(ObserverMux)
    NetObserver *observer_ = nullptr;
};

} // namespace noc

#endif // NOC_CORE_LOOKAHEAD_ROUTER_HH
