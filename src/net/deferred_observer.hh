/**
 * @file
 * Deterministic observer deferral for partitioned runs.
 *
 * With the mesh sharded across worker threads, components of different
 * domains would call the run's observer sink (auditor / telemetry /
 * mux) concurrently and in a nondeterministic interleaving. The
 * DeferredObserver sits between the network and the sink and passes
 * every event through a DomainLog, which replays them downstream in
 * the exact serial event sequence — not merely some deterministic
 * order. Exactness matters: telemetry's chrome trace appends one
 * record per event at hook time, so its export is byte-identical only
 * if the event order is identical.
 */

#ifndef NOC_NET_DEFERRED_OBSERVER_HH
#define NOC_NET_DEFERRED_OBSERVER_HH

#include "net/instrument.hh"
#include "sim/parallel.hh"

namespace noc
{

class DeferredObserver final : public NetObserver,
                               public DomainLog<NetEvent>
{
  public:
    /** Events are replayed into @p downstream (must not be null). */
    explicit DeferredObserver(NetObserver *downstream);

    /** Buffer @p e in the calling domain, or pass it straight on
     *  outside a parallel window. */
    void consume(const NetEvent &e) override;

  private:
    void replay(const NetEvent &e) override;

    // loft-tidy: phase-shared(barrier) — only replay() (main thread,
    //     cycle barrier) and direct-mode consume() dereference it;
    //     partitioned-phase callers only append to their domain log.
    NetObserver *downstream_;
};

} // namespace noc

#endif // NOC_NET_DEFERRED_OBSERVER_HH
