/**
 * @file
 * Deterministic observer deferral for partitioned runs.
 *
 * With the mesh sharded across worker threads, components of different
 * domains would call the run's observer sink (auditor / telemetry /
 * mux) concurrently and in a nondeterministic interleaving. The
 * DeferredObserver sits between the network and the sink: during the
 * parallel phase every event record is appended to a per-domain
 * buffer, stamped with the emitting component's serial registration
 * index; at the per-cycle barrier the buffers are k-way merged by that
 * index and replayed downstream single-threaded.
 *
 * Components execute in registration order within their domain and
 * domains partition the index space, so each buffer is already sorted
 * and the merge reconstructs the exact serial event sequence — not
 * merely some deterministic order. Exactness matters: telemetry's
 * chrome trace appends one record per event at hook time, so its export
 * is byte-identical only if the event order is identical.
 *
 * Outside a parallel phase (serial runs, prologue/epilogue components,
 * merge replay itself) events pass straight through.
 */

#ifndef NOC_NET_DEFERRED_OBSERVER_HH
#define NOC_NET_DEFERRED_OBSERVER_HH

#include <cstdint>
#include <vector>

#include "net/instrument.hh"
#include "sim/parallel.hh"

namespace noc
{

class DeferredObserver final : public NetObserver, public DomainMerged
{
  public:
    /** Events are replayed into @p downstream (must not be null). */
    explicit DeferredObserver(NetObserver *downstream);

    // DomainMerged
    void beginParallel(unsigned domains) override;
    void mergeDomains() override;
    void endParallel() override;

    /** Buffer @p e in the calling domain, or pass it straight on
     *  outside a parallel window. */
    void consume(const NetEvent &e) override;

  private:
    /** A buffered event and the serial registration index of the
     *  component that emitted it. */
    struct Stamped
    {
        std::uint32_t component;
        NetEvent event;
    };

    // loft-tidy: phase-shared(barrier) — only mergeDomains() (main
    //     thread, cycle barrier) and direct-mode consume() dereference
    //     it; partitioned-phase callers only append to their domain
    //     buffer.
    NetObserver *downstream_;
    std::vector<std::vector<Stamped>> perDomain_;
    std::vector<std::size_t> cursors_;
};

} // namespace noc

#endif // NOC_NET_DEFERRED_OBSERVER_HH
