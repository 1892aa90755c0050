#include "sim/simulator.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cxxabi.h>
#include <cstdlib>
#include <string>
#include <thread>
#include <typeinfo>

#include "sim/alloc.hh"
#include "sim/logging.hh"
#include "sim/phase_sanitizer.hh"

namespace noc
{

/**
 * The domain plan: which keyed component runs in which domain, plus the
 * per-domain scratch state a parallel cycle needs. Rebuilt whenever the
 * registrations or the worker count change.
 */
struct Simulator::Plan
{
    struct Item
    {
        Clocked *component = nullptr;
        /** Serial registration index (stamps deferred events). */
        std::uint32_t index = 0;
    };

    /** Tick/skip counters a domain accumulates without sharing a line. */
    struct alignas(64) Counters
    {
        std::uint64_t executed = 0;
        std::uint64_t skipped = 0;
    };

    /** One cache line of awake bits; no two domains share one. */
    struct alignas(64) AwakeLine
    {
        std::uint64_t word[8] = {};
    };

    struct Domain
    {
        /** Keyed components of the domain, in registration order. */
        std::vector<Item> items;
        /** Awake bitset: bit i of word i / 64 is items[i]. */
        AwakeLine *lines = nullptr;
        std::size_t words = 0;

        std::uint64_t &
        word(std::size_t w)
        {
            return lines[w / 8].word[w % 8];
        }
    };

    /** components_[0 .. prologueEnd) run serially before the phase. */
    std::size_t prologueEnd = 0;
    /** components_[epilogueBegin .. size) run serially after it. */
    std::size_t epilogueBegin = 0;
    std::vector<Domain> domains;
    /**
     * Every domain's awake lines. Each bound component shares
     * ownership, so wake() stays safe after the Simulator is gone.
     */
    std::shared_ptr<AwakeLine[]> awake;
    /** Dirty channel lists: one per domain + one for the serial phases. */
    std::vector<std::vector<PendingPort *>> dirty;
    std::vector<Counters> counters;
};

struct Simulator::Pool
{
    explicit Pool(std::uint32_t parties) : barrier(parties) {}

    SpinBarrier barrier;
    std::vector<std::thread> threads;
    std::atomic<bool> stop{false};
};

Simulator::Simulator() = default;

Simulator::~Simulator()
{
    teardownPool();
}

void
Simulator::add(Clocked *component)
{
    if (!component)
        panic("Simulator::add called with null component");
    components_.push_back({component, kInvalidNode, false});
    planDirty_ = true;
}

void
Simulator::add(Clocked *component, NodeId spatial_key)
{
    if (!component)
        panic("Simulator::add called with null component");
    components_.push_back({component, spatial_key, true});
    planDirty_ = true;
}

void
Simulator::addPort(PendingPort *port)
{
    if (!port)
        panic("Simulator::addPort called with null port");
    ports_.push_back(port);
    planDirty_ = true;
}

void
Simulator::addMerged(DomainMerged *consumer)
{
    if (!consumer)
        panic("Simulator::addMerged called with null consumer");
    merged_.push_back(consumer);
    planDirty_ = true;
}

void
Simulator::setWorkers(unsigned workers)
{
    if (workers == 0)
        workers = hardwareThreads();
    if (workers == workers_)
        return;
    teardownPool();
    workers_ = workers;
    planDirty_ = true;
}

void
Simulator::preparePlan()
{
    plan_ = std::make_unique<Plan>();
    Plan &plan = *plan_;

    // Keyed components span [prologueEnd, epilogueBegin); with none,
    // everything is prologue and every domain is empty.
    plan.prologueEnd = components_.size();
    plan.epilogueBegin = components_.size();
    NodeId max_key = 0;
    for (std::size_t i = 0; i < components_.size(); ++i) {
        if (!components_[i].keyed)
            continue;
        if (plan.prologueEnd == components_.size())
            plan.prologueEnd = i;
        plan.epilogueBegin = i + 1;
        max_key = std::max(max_key, components_[i].key);
    }
    for (std::size_t i = plan.prologueEnd; i < plan.epilogueBegin; ++i) {
        if (!components_[i].keyed)
            panic("Simulator: component %zu has no spatial key but is "
                  "registered between keyed components; register serial "
                  "components before or after the partitioned mesh",
                  i);
    }

    // Contiguous key stripes: domain(key) = key * W / K. Components
    // sharing a key land in one domain, and within a domain the
    // registration order — hence the serial execution order — is kept.
    const std::uint64_t num_keys = static_cast<std::uint64_t>(max_key) + 1;
    plan.domains.resize(workers_);
    plan.counters.resize(workers_);
    plan.dirty.resize(static_cast<std::size_t>(workers_) + 1);
    // A dirty list holds each traffic-carrying channel at most once
    // per cycle, so the registered port count is a hard bound. The
    // reserve keeps list growth out of the steady state (a cycle that
    // touches more channels than any before it must not allocate).
    for (std::vector<PendingPort *> &list : plan.dirty)
        list.reserve(ports_.size());
    for (std::size_t i = plan.prologueEnd; i < plan.epilogueBegin; ++i) {
        const std::uint64_t d =
            static_cast<std::uint64_t>(components_[i].key) * workers_ /
            num_keys;
        plan.domains[static_cast<std::size_t>(d)].items.push_back(
            {components_[i].component, static_cast<std::uint32_t>(i)});
    }

    for (std::size_t i = 0; i < ports_.size(); ++i) {
        if (!ports_[i]->reader())
            panic("Simulator: port %zu has no reader; the component "
                  "that receives from it must call setReader() where "
                  "it connects the channel, or no flush can wake it",
                  i);
    }

    // Awake bitsets: each domain's words start on a cache line of
    // their own, so a worker setting its bits never contends with
    // another's. Keyless components are polled and stay unbound.
    std::size_t num_lines = 0;
    for (Plan::Domain &dom : plan.domains) {
        dom.words = (dom.items.size() + 63) / 64;
        num_lines += (dom.words + 7) / 8;
    }
    plan.awake.reset(new Plan::AwakeLine[num_lines]);
    for (Entry &e : components_)
        e.component->awake_.reset();
    std::size_t line = 0;
    for (std::size_t d = 0; d < plan.domains.size(); ++d) {
        Plan::Domain &dom = plan.domains[d];
        dom.lines = plan.awake.get() + line;
        line += (dom.words + 7) / 8;
        for (std::size_t j = 0; j < dom.items.size(); ++j) {
            Clocked &c = *dom.items[j].component;
            c.awake_ = std::shared_ptr<std::uint64_t>(plan.awake,
                                                      &dom.word(j / 64));
            c.awakeBit_ = std::uint64_t{1} << (j % 64);
            c.awakeDomain_ = static_cast<int>(d);
        }
    }
    planDirty_ = false;
}

void
Simulator::beginParallelWindow()
{
    if (planDirty_) {
        teardownPool();
        preparePlan();
    }
    // Deferred visibility is the only cycle semantics: even a
    // one-worker run buffers sends and flushes them at end-of-cycle, so
    // quiescence probes always see start-of-cycle state and every
    // worker count is bit-identical.
    for (PendingPort *p : ports_)
        p->setConcurrent(true);
    // Wake everything: injections, flow registrations and channel
    // traffic from between runs reach components without wake().
    for (Plan::Domain &dom : plan_->domains) {
        for (std::size_t w = 0; w < dom.words; ++w)
            dom.word(w) = ~std::uint64_t{0};
        if (const std::size_t tail = dom.items.size() % 64)
            dom.word(dom.words - 1) = (std::uint64_t{1} << tail) - 1;
    }
    if (workers_ > 1)
        ensurePool();
    for (DomainMerged *m : merged_)
        m->beginParallel(workers_);
    par::ctx().dirty = &plan_->dirty[workers_];
}

void
Simulator::endParallelWindow()
{
    for (PendingPort *p : ports_)
        p->setConcurrent(false);
    for (DomainMerged *m : merged_)
        m->endParallel();
    par::ctx().dirty = nullptr;
}

void
Simulator::ensurePool()
{
    if (pool_)
        return;
    pool_ = std::make_unique<Pool>(workers_);
    pool_->threads.reserve(workers_ - 1);
    for (unsigned d = 1; d < workers_; ++d)
        pool_->threads.emplace_back([this, d] { workerLoop(d); });
}

void
Simulator::teardownPool()
{
    if (!pool_)
        return;
    // Workers blocked on the start barrier observe stop after the main
    // thread's arrival releases them, and exit without arriving at the
    // end barrier.
    pool_->stop.store(true, std::memory_order_relaxed);
    pool_->barrier.arriveAndWait();
    for (std::thread &t : pool_->threads)
        t.join();
    pool_.reset();
}

void
Simulator::workerLoop(unsigned domain)
{
    for (;;) {
        pool_->barrier.arriveAndWait(); // start of a cycle's phase
        if (pool_->stop.load(std::memory_order_relaxed))
            return;
        runDomain(domain);
        pool_->barrier.arriveAndWait(); // end of the phase
    }
}

void
Simulator::checkSleepers(unsigned domain)
{
    Plan::Domain &dom = plan_->domains[domain];
    for (std::size_t j = 0; j < dom.items.size(); ++j) {
        if (dom.word(j / 64) & (std::uint64_t{1} << (j % 64)))
            continue;
        if (dom.items[j].component->quiescent())
            continue;
        par::ctx().component = dom.items[j].index;
        psan::violation("Simulator", "runDomain",
                        "sleeping component is not quiescent (a "
                        "mutation from outside its tick did not call "
                        "wake())");
    }
    checkMail(static_cast<int>(domain), "runDomain");
}

void
Simulator::checkMail(int domain, const char *method) const
{
    for (const PendingPort *p : ports_) {
        const Clocked *reader = p->reader();
        // During the phase only the reader's own thread may look at
        // its mail word and in-flight queue; keyless readers tick on
        // the main thread, which runs domain 0.
        if (domain >= 0 &&
            (reader->awake_ ? reader->awakeDomain_ : 0) != domain)
            continue;
        const bool holds = !p->empty();
        if (p->posted() == holds)
            continue;
        std::size_t index = 0;
        while (index < components_.size() &&
               components_[index].component != reader)
            ++index;
        int status = 0;
        char *type = abi::__cxa_demangle(typeid(*reader).name(), nullptr,
                                         nullptr, &status);
        const std::string rule = csprintf(
            "mail bit of input port %u of its reader (%s) is %s though "
            "the channel %s (a post was lost or forged)",
            p->readerPort(), status == 0 ? type : typeid(*reader).name(),
            holds ? "clear" : "set",
            holds ? "holds a value" : "is empty");
        std::free(type);
        par::ctx().component = static_cast<std::uint32_t>(index);
        psan::violation("Simulator", method, rule.c_str());
    }
}

void
Simulator::runDomain(unsigned domain)
{
    par::DomainContext &cx = par::ctx();
    cx.domain = static_cast<int>(domain);
    cx.dirty = &plan_->dirty[domain];
    LOFT_PSAN_SET_PHASE(SimPhase::Partitioned, now_);
    if (psan::enabled())
        checkSleepers(domain);
    Plan::Counters &ctr = plan_->counters[domain];
    Plan::Domain &dom = plan_->domains[domain];
    // Event-driven active set: only awake components are probed, in
    // ascending index order (the serial order DomainLog's merge relies
    // on). A probe that finds the component quiescent puts it to
    // sleep; a tick keeps it awake for the next cycle's probe. The
    // word is re-read after every tick, so a same-cycle wake() of a
    // later component is served this cycle and one of an earlier
    // component next cycle — exactly when polling every component
    // would have seen the change.
    for (std::size_t w = 0; w < dom.words; ++w) {
        std::uint64_t &word = dom.word(w);
        const Plan::Item *items = dom.items.data() + w * 64;
        std::uint64_t visited = 0;
        for (std::uint64_t left; (left = word & ~visited) != 0;) {
            const int b = std::countr_zero(left);
            const std::uint64_t bit = std::uint64_t{1} << b;
            visited = (bit << 1) - 1;
            const Plan::Item &item = items[b];
            cx.component = item.index;
            if (item.component->quiescent()) {
                word &= ~bit;
                ++ctr.skipped;
                continue;
            }
            item.component->tick(now_);
            ++ctr.executed;
        }
    }
    cx.domain = par::kDirect;
    cx.dirty = nullptr;
    LOFT_PSAN_SET_PHASE(SimPhase::Idle, now_);
}

void
Simulator::runCycle()
{
    Plan &plan = *plan_;
    par::DomainContext &cx = par::ctx();

    // Prologue: keyless components before the mesh (the traffic
    // generator), serially, in registration order. Sends land on the
    // serial dirty list and flush with everything else.
    cx.dirty = &plan.dirty[workers_];
    LOFT_PSAN_SET_PHASE(SimPhase::Prologue, now_);
    for (std::size_t i = 0; i < plan.prologueEnd; ++i) {
        const Entry &e = components_[i];
        if (e.component->quiescent()) {
            ++ticksSkipped_;
            continue;
        }
        e.component->tick(now_);
        ++ticksExecuted_;
    }

    // Partitioned phase: workers run domains 1..W-1, this thread runs
    // domain 0. The barrier pair brackets all cross-domain reads. With
    // one worker there is no pool — domain 0 is the whole mesh.
    if (pool_)
        pool_->barrier.arriveAndWait();
    runDomain(0);
    if (pool_)
        pool_->barrier.arriveAndWait();

    // Barrier work, single-threaded: publish buffered channel sends
    // (delivery cycles are stamped at send time and each channel keeps
    // its queue sorted by them, so flush order cannot reorder
    // deliveries), then replay buffered cross-domain mutations.
    cx.dirty = &plan.dirty[workers_];
    LOFT_PSAN_SET_PHASE(SimPhase::Barrier, now_);
    for (std::vector<PendingPort *> &list : plan.dirty) {
        for (PendingPort *p : list)
            p->flushPending();
        list.clear();
    }
    if (psan::enabled())
        checkMail(-1, "runCycle");
    for (DomainMerged *m : merged_)
        m->mergeDomains();

    // Epilogue: keyless components after the mesh (GSF frame barrier,
    // auditor, telemetry) observe the same post-delivery state they
    // would in a serial cycle.
    LOFT_PSAN_SET_PHASE(SimPhase::Epilogue, now_);
    for (std::size_t i = plan.epilogueBegin; i < components_.size();
         ++i) {
        const Entry &e = components_[i];
        if (e.component->quiescent()) {
            ++ticksSkipped_;
            continue;
        }
        e.component->tick(now_);
        ++ticksExecuted_;
    }

    for (Plan::Counters &c : plan.counters) {
        ticksExecuted_ += c.executed;
        ticksSkipped_ += c.skipped;
        c.executed = 0;
        c.skipped = 0;
    }
    LOFT_PSAN_SET_PHASE(SimPhase::Idle, now_);
    ++now_;
}

Cycle
Simulator::runEnd(Cycle cycles) const
{
    if (cycles > kNeverCycle - now_)
        panic("Simulator: now (%llu) + %llu cycles overflows the cycle "
              "counter",
              static_cast<unsigned long long>(now_),
              static_cast<unsigned long long>(cycles));
    return now_ + cycles;
}

void
Simulator::run(Cycle cycles)
{
    const Cycle end = runEnd(cycles);
    const std::uint64_t allocs0 = heapAllocCount();
    beginParallelWindow();
    while (now_ < end)
        runCycle();
    endParallelWindow();
    lastRunAllocs_ = heapAllocCount() - allocs0;
}

bool
Simulator::runUntil(const std::function<bool()> &done, Cycle max_cycles)
{
    const Cycle end = runEnd(max_cycles);
    const std::uint64_t allocs0 = heapAllocCount();
    beginParallelWindow();
    bool fired = false;
    while (now_ < end && !(fired = done()))
        runCycle();
    endParallelWindow();
    lastRunAllocs_ = heapAllocCount() - allocs0;
    return fired || done();
}

std::size_t
Simulator::activeComponents() const
{
    std::size_t n = 0;
    for (const Entry &e : components_)
        if (!e.component->quiescent())
            ++n;
    return n;
}

} // namespace noc
