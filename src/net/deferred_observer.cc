#include "net/deferred_observer.hh"

#include "sim/logging.hh"

namespace noc
{

DeferredObserver::DeferredObserver(NetObserver *downstream)
    : DomainLog("DeferredObserver"), downstream_(downstream)
{
    if (!downstream)
        panic("DeferredObserver: null downstream observer");
}

void
DeferredObserver::consume(const NetEvent &e)
{
    if (defer("consume", e))
        return;
    downstream_->consume(e);
}

void
DeferredObserver::replay(const NetEvent &e)
{
    downstream_->consume(e);
}

} // namespace noc
