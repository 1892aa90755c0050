/**
 * @file
 * Observer fan-out. A Network distributes exactly one `NetObserver *`
 * to its components (see Network::setObserver), which made the auditor
 * and any other consumer mutually exclusive: installing a second
 * observer silently detached the first. ObserverMux removes that
 * limitation by being the one installed observer and passing every
 * event record, in registration order, to any number of downstream
 * observers (e.g. the NetworkAuditor and the TelemetryCollector of the
 * same run).
 *
 * The mux is as passive as its targets: it owns nothing and mutates no
 * network state.
 */

#ifndef NOC_NET_OBSERVER_MUX_HH
#define NOC_NET_OBSERVER_MUX_HH

#include <algorithm>
#include <vector>

#include "net/instrument.hh"

namespace noc
{

class ObserverMux : public NetObserver
{
  public:
    ObserverMux() = default;

    /** Append @p obs to the fan-out list (null is ignored). Events are
     *  delivered in registration order, deterministically. */
    void add(NetObserver *obs)
    {
        if (obs && std::find(targets_.begin(), targets_.end(), obs) ==
                       targets_.end())
            targets_.push_back(obs);
    }

    std::size_t numTargets() const { return targets_.size(); }

    /** Forward @p e to every target, in order. */
    void consume(const NetEvent &e) override
    {
        for (NetObserver *t : targets_)
            t->consume(e);
    }

  private:
    std::vector<NetObserver *> targets_;
};

} // namespace noc

#endif // NOC_NET_OBSERVER_MUX_HH
