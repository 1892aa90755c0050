/**
 * @file
 * FaultInjector: owns the fault sites of one run and hands them to the
 * networks while they wire their channels.
 *
 * Networks call instrument(channel, linkClass, receiver) for every
 * channel they create, in their (deterministic) wiring order; the
 * injector numbers the links in call order and derives each site's
 * stream seed from (plan seed, link id). Because every instrument()
 * call consumes a link id whether or not any fault class applies, the
 * numbering — and therefore each link's fault sequence — is stable
 * across plans that enable different subsets of fault classes.
 */

#ifndef NOC_FAULTS_FAULT_INJECTOR_HH
#define NOC_FAULTS_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "faults/fault_plan.hh"
#include "faults/faulting_channel.hh"
#include "net/channel.hh"
#include "net/instrument.hh"
#include "sim/types.hh"

namespace noc
{

/** Which logical link a channel implements (selects the fault mix). */
enum class LinkClass
{
    LookaheadFlit,   ///< LOFT look-ahead plane, flit wires
    LookaheadCredit, ///< LOFT look-ahead plane, credit wires
    DataFlit,        ///< LOFT data plane, flit wires
    ActualCredit,    ///< LOFT data plane, buffer-slot credits
    VirtualCredit,   ///< LOFT data plane, virtual credits
    FabricFlit,      ///< wormhole/GSF fabric, flit wires
    FabricCredit,    ///< wormhole/GSF fabric, VC credits
};

class FaultInjector
{
  public:
    /**
     * @param plan the fault schedule (copied).
     * @param frameCycles cycles per data frame; default for the credit
     *        resynchronization horizon when the plan leaves it 0.
     */
    explicit FaultInjector(const FaultPlan &plan, Cycle frameCycles = 256)
        : plan_(plan)
    {
        shared_.resyncLatency =
            plan.resyncLatency ? plan.resyncLatency : frameCycles;
        shared_.stallCycles = plan.stallCycles;
        shared_.startCycle = plan.startCycle;
        shared_.stopCycle = plan.stopCycle;
    }

    /**
     * Observer announced to on every injection (may be set late): the
     * one the network got, so fault events merge with the network's.
     */
    void setObserver(NetObserver *obs) { shared_.observer = obs; }

    /** Attach a fault site to @p ch if the plan faults its class. */
    template <typename T>
    void
    instrument(Channel<T> &ch, LinkClass cls, NodeId receiver)
    {
        const std::uint64_t linkId = nextLinkId_++;
        if (!plan_.active())
            return;
        const auto rates = ratesFor(cls);
        bool any = false;
        for (double r : rates)
            any = any || r > 0.0;
        if (!any)
            return;
        auto site = std::make_unique<FaultingChannel<T>>(
            &shared_, rates, receiver, mixSeed(plan_.seed, linkId));
        ch.setFaultHook(site.get());
        sites_.push_back(std::move(site));
    }

    std::size_t faultedLinks() const { return sites_.size(); }

  private:
    /** Fault classes that physically apply to a link class. */
    std::array<double, kNumFaultKinds>
    ratesFor(LinkClass cls) const
    {
        std::array<double, kNumFaultKinds> rates{};
        auto set = [&](FaultKind k) {
            rates[static_cast<std::size_t>(k)] = plan_.rateOf(k);
        };
        switch (cls) {
          case LinkClass::LookaheadFlit:
            set(FaultKind::LookaheadDrop);
            set(FaultKind::LinkStall);
            break;
          case LinkClass::LookaheadCredit:
          case LinkClass::ActualCredit:
          case LinkClass::VirtualCredit:
            set(FaultKind::CreditLoss);
            set(FaultKind::CreditCorrupt);
            set(FaultKind::LinkStall);
            break;
          case LinkClass::DataFlit:
          case LinkClass::FabricFlit:
            set(FaultKind::DataCorrupt);
            set(FaultKind::LinkStall);
            break;
          case LinkClass::FabricCredit:
            set(FaultKind::LinkStall);
            break;
        }
        return rates;
    }

    FaultPlan plan_;
    FaultSiteShared shared_;
    std::vector<std::unique_ptr<FaultSiteBase>> sites_;
    std::uint64_t nextLinkId_ = 0;
};

} // namespace noc

#endif // NOC_FAULTS_FAULT_INJECTOR_HH
