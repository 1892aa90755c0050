#include "sim/phase_sanitizer.hh"

#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/logging.hh"
#include "sim/parallel.hh"

namespace noc
{

const char *
simPhaseName(SimPhase p)
{
    switch (p) {
    case SimPhase::Idle:
        return "idle";
    case SimPhase::Prologue:
        return "prologue";
    case SimPhase::Partitioned:
        return "partitioned";
    case SimPhase::Barrier:
        return "barrier";
    case SimPhase::Epilogue:
        return "epilogue";
    }
    return "?";
}

namespace psan
{

std::atomic<int> g_enabled{-1};

bool
enabledSlow()
{
    const char *v = std::getenv("LOFT_PHASE_SANITIZER");
    const int on = (v != nullptr && v[0] != '\0' && v[0] != '0') ? 1 : 0;
    int expected = -1;
    g_enabled.compare_exchange_strong(expected, on,
                                      std::memory_order_relaxed);
    return g_enabled.load(std::memory_order_relaxed) != 0;
}

void
setEnabledForTest(int v)
{
    g_enabled.store(v < 0 ? -1 : (v != 0), std::memory_order_relaxed);
}

void
violation(const char *owner, const char *method, const char *rule)
{
    const par::DomainContext &cx = par::ctx();
    panic("PhaseSanitizer: %s::%s: %s "
          "(component %u, cycle %llu, phase %s, domain %d)",
          owner, method, rule, cx.component,
          static_cast<unsigned long long>(tlPhase.cycle),
          simPhaseName(tlPhase.phase), cx.domain);
}

void
checkBarrierSeam(const char *owner, const char *method)
{
    const SimPhase p = tlPhase.phase;
    if (p == SimPhase::Prologue || p == SimPhase::Partitioned ||
        p == SimPhase::Epilogue)
        violation(owner, method,
                  "barrier-owned seam entered from inside a "
                  "simulation phase");
}

void
checkChannelSend(PortState &st)
{
    const SimPhase p = tlPhase.phase;
    if (p == SimPhase::Barrier)
        violation("Channel", "send",
                  "send while the barrier publishes channel state");
    if (p != SimPhase::Partitioned)
        return;
    const void *self = &tlPhase;
    if (st.sendCycle == tlPhase.cycle && st.sendOwner != self)
        violation("Channel", "send",
                  "pending buffer written from a foreign domain "
                  "(two threads sent on one channel in one cycle)");
    st.sendCycle = tlPhase.cycle;
    st.sendOwner = self;
}

void
checkChannelReceive(PortState &st)
{
    const SimPhase p = tlPhase.phase;
    if (p == SimPhase::Barrier)
        violation("Channel", "receive",
                  "receive while the barrier publishes channel state");
    if (p != SimPhase::Partitioned)
        return;
    const void *self = &tlPhase;
    if (st.recvOwner == nullptr)
        st.recvOwner = self;
    else if (st.recvOwner != self)
        violation("Channel", "receive",
                  "in-flight queue popped from a foreign domain");
}

void
checkDeferredBuffer(const char *owner, const char *hook)
{
    if (tlPhase.phase != SimPhase::Partitioned)
        violation(owner, hook,
                  "per-domain deferred buffering outside the "
                  "partitioned phase (leaked domain context)");
}

void
checkDirectDelivery(const char *owner, const char *hook)
{
    if (tlPhase.phase == SimPhase::Partitioned)
        violation(owner, hook,
                  "shared consumer state mutated directly from "
                  "the partitioned phase (must be buffered "
                  "per domain and merged at the barrier)");
}

void
checkWake(int domain)
{
    if (tlPhase.phase != SimPhase::Partitioned ||
        par::currentDomain() == domain)
        return;
    const std::string rule = csprintf(
        "cross-domain wake of a domain-%d component (its bitset "
        "belongs to another thread until the barrier)",
        domain);
    violation("Clocked", "wake", rule.c_str());
}

void
resetPort(PortState &st)
{
    st.sendOwner = nullptr;
    st.sendCycle = kNeverCycle;
    st.recvOwner = nullptr;
}

} // namespace psan
} // namespace noc
