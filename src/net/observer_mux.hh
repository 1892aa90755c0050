/**
 * @file
 * Observer fan-out and merge. A Network distributes exactly one
 * `NetObserver *` to its components (see Network::setObserver), which
 * made the auditor and any other consumer mutually exclusive:
 * installing a second observer silently detached the first.
 * ObserverMux removes that limitation by being the one installed
 * observer and passing every event record, in registration order, to
 * any number of downstream observers (e.g. the NetworkAuditor and the
 * TelemetryCollector of the same run).
 *
 * It is also the observers' DomainLog. With the mesh sharded across
 * worker threads, components of different domains would call the
 * targets concurrently and in a nondeterministic interleaving; the mux
 * buffers their events per domain and replays them at the cycle
 * barrier in the exact serial event sequence — not merely some
 * deterministic order. Exactness matters: telemetry and the trace
 * append one record per event at hook time, so their exports are
 * byte-identical only if the event order is identical. A mux driven
 * inside a Simulator run must be registered with it
 * (Simulator::addMerged).
 *
 * The mux is as passive as its targets: it owns nothing and mutates no
 * network state.
 */

#ifndef NOC_NET_OBSERVER_MUX_HH
#define NOC_NET_OBSERVER_MUX_HH

#include <algorithm>
#include <vector>

#include "net/instrument.hh"
#include "sim/parallel.hh"

namespace noc
{

class ObserverMux final : public NetObserver, public DomainLog<NetEvent>
{
  public:
    ObserverMux() : DomainLog("ObserverMux") {}

    /** Append @p obs to the fan-out list (null is ignored). Events are
     *  delivered in registration order, deterministically. */
    void add(NetObserver *obs)
    {
        if (obs && std::find(targets_.begin(), targets_.end(), obs) ==
                       targets_.end())
            targets_.push_back(obs);
    }

    std::size_t numTargets() const { return targets_.size(); }

    /** Buffer @p e in the calling domain, or forward it to every
     *  target, in order. */
    void consume(const NetEvent &e) override
    {
        if (defer("consume", e))
            return;
        replay(e);
    }

  private:
    void replay(const NetEvent &e) override
    {
        for (NetObserver *t : targets_)
            t->consume(e);
    }

    std::vector<NetObserver *> targets_;
};

} // namespace noc

#endif // NOC_NET_OBSERVER_MUX_HH
