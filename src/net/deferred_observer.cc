#include "net/deferred_observer.hh"

#include "sim/logging.hh"
#include "sim/phase_sanitizer.hh"

namespace noc
{

DeferredObserver::DeferredObserver(NetObserver *downstream)
    : downstream_(downstream)
{
    if (!downstream)
        panic("DeferredObserver: null downstream observer");
}

void
DeferredObserver::beginParallel(unsigned domains)
{
    LOFT_PSAN_BARRIER_SEAM("DeferredObserver::beginParallel");
    // Grow-only so event-buffer capacity carries across run windows
    // (the guard in consume() requires currentDomain() >= 0, so keeping
    // the buffers alive between windows never diverts a direct event).
    if (perDomain_.size() < domains)
        perDomain_.resize(domains);
}

void
DeferredObserver::mergeDomains()
{
    LOFT_PSAN_BARRIER_SEAM("DeferredObserver::mergeDomains");
    // k-way merge by component index. Each per-domain buffer is sorted
    // by construction (components run in registration order within
    // their domain) and the index sets are disjoint across domains, so
    // the merge is total and reconstructs the serial delivery order.
    cursors_.assign(perDomain_.size(), 0);
    for (;;) {
        std::size_t best = perDomain_.size();
        std::uint32_t best_comp = 0;
        for (std::size_t d = 0; d < perDomain_.size(); ++d) {
            if (cursors_[d] >= perDomain_[d].size())
                continue;
            const std::uint32_t comp =
                perDomain_[d][cursors_[d]].component;
            if (best == perDomain_.size() || comp < best_comp) {
                best = d;
                best_comp = comp;
            }
        }
        if (best == perDomain_.size())
            break;
        // Drain the chosen component's consecutive events in one go.
        const std::vector<Stamped> &buf = perDomain_[best];
        std::size_t &cur = cursors_[best];
        do {
            downstream_->consume(buf[cur].event);
            ++cur;
        } while (cur < buf.size() && buf[cur].component == best_comp);
    }
    for (std::vector<Stamped> &buf : perDomain_)
        buf.clear();
}

void
DeferredObserver::endParallel()
{
    LOFT_PSAN_BARRIER_SEAM("DeferredObserver::endParallel");
    for (std::vector<Stamped> &buf : perDomain_)
        buf.clear();
}

void
DeferredObserver::consume(const NetEvent &e)
{
    const int d = par::currentDomain();
    if (d < 0 || perDomain_.empty()) {
        LOFT_PSAN_DIRECT_DELIVERY("DeferredObserver::consume");
        downstream_->consume(e);
        return;
    }
    LOFT_PSAN_DEFERRED_BUFFER("DeferredObserver::consume");
    perDomain_[static_cast<std::size_t>(d)].push_back(
        {par::ctx().component, e});
}

} // namespace noc
