/**
 * @file
 * FaultInjector: owns the fault sites of one run and hands them to the
 * networks while they wire their channels.
 *
 * Networks call instrument(channel, receiver) for every channel they
 * create, in their (deterministic) wiring order; the injector numbers
 * the links in call order and derives each site's stream seed from
 * (plan seed, link id). Because every instrument() call consumes a
 * link id whether or not any fault class applies, the numbering — and
 * therefore each link's fault sequence — is stable across plans that
 * enable different subsets of fault classes. The channel's message
 * type alone decides which classes it can carry (FaultTraits).
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
        shared_.stopCycle = plan.stopCycle;
    }

    /**
     * Observer announced to on every injection (may be set late): the
     * one the network got, so fault events merge with the network's.
     */
    void setObserver(NetObserver *obs) { shared_.observer = obs; }

    /** Attach a fault site to @p ch if the plan faults its wire type. */
    template <typename T>
    void
    instrument(Channel<T> &ch, NodeId receiver)
    {
        const std::uint64_t linkId = nextLinkId_++;
        if (!plan_.active())
            return;
        const auto rates = ratesFor<T>();
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
    /** The plan's rates of the fault classes a @p T wire can carry. */
    template <typename T>
    std::array<double, kNumFaultKinds>
    ratesFor() const
    {
        using Traits = FaultTraits<T>;
        std::array<double, kNumFaultKinds> rates{};
        auto set = [&](FaultKind k) {
            rates[static_cast<std::size_t>(k)] = plan_.rateOf(k);
        };
        set(FaultKind::LinkStall);
        if constexpr (Traits::droppable)
            set(FaultKind::LookaheadDrop);
        if constexpr (Traits::credit) {
            set(FaultKind::CreditLoss);
            set(FaultKind::CreditCorrupt);
        }
        if constexpr (Traits::corruptible)
            set(FaultKind::DataCorrupt);
        return rates;
    }

    FaultPlan plan_;
    FaultSiteShared shared_;
    std::vector<std::unique_ptr<FaultSiteBase>> sites_;
    std::uint64_t nextLinkId_ = 0;
};

} // namespace noc

#endif // NOC_FAULTS_FAULT_INJECTOR_HH
