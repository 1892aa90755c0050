/**
 * @file
 * InputTable against the map-based oracle in
 * tests/reference_input_table.hh. One seeded stream of admissions (up
 * to the per-input refusal), staged data flits, claims, forwards and
 * erasures drives both; after every operation the live sets, lookups,
 * buffered flits, per-port counts and sorted sweeps must agree. The
 * arena starts at four records, so the stream grows it several times
 * while pending and scheduled lists hold handles, as the data router's
 * do, and every listed handle must still name its quantum.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "reference_input_table.hh"
#include "sim/rng.hh"

namespace noc
{
namespace
{

using Handle = InputTable::Handle;
using State = InputTable::State;
using Key = ReferenceInputTable::Key;
using Live = std::tuple<Port, Key, bool>;

constexpr std::uint32_t kQuantumFlits = 3;
/** Claimed records an input holds before admission is refused. */
constexpr std::uint32_t kWindowSlots = 12;
constexpr std::size_t kInitialRecords = 4;
constexpr FlowId kFlows = 40;

/** A flow's quanta enter the router through one input (XY routing). */
Port
portOf(FlowId f)
{
    return static_cast<Port>(f % kNumPorts);
}

Key
keyOf(const InputTable::Record &r)
{
    return {r.la.flow, r.la.quantumNo};
}

class Lockstep
{
  public:
    explicit Lockstep(std::uint64_t seed) : rng_(seed) {}

    void
    step()
    {
        const std::vector<Live> live = ref_.sweep();
        const std::size_t cap = table_.capacity();
        switch (rng_.randRange(11)) {
          case 0: case 1: case 2: admit(live); break;
          case 3: case 4: case 5: receive(live); break;
          case 6: schedule(); break;
          case 7: case 8: forward(live); break;
          default: erase(live); break;
        }
        if (table_.capacity() != cap &&
            !(pending_.empty() || scheduled_.empty()))
            ++listedGrowths_;
    }

    void check() const;

    std::size_t refusals_ = 0;
    std::size_t fullPushes_ = 0;
    std::size_t stagedClaims_ = 0;
    std::size_t listedGrowths_ = 0;
    InputTable table_{kQuantumFlits, kInitialRecords};

  private:
    using Listed = std::pair<Handle, Key>;

    Live
    pick(const std::vector<Live> &from)
    {
        return from[rng_.randRange(from.size())];
    }

    /** A fresh quantum of a random flow, with the flow's input. */
    std::pair<Port, Key>
    fresh()
    {
        const FlowId f = static_cast<FlowId>(rng_.randRange(kFlows));
        return {portOf(f), Key{f, nextQuantum_[f]++}};
    }

    void
    admit(const std::vector<Live> &live)
    {
        std::vector<Live> staged;
        for (const Live &l : live)
            if (!std::get<2>(l))
                staged.push_back(l);
        auto [in, k] = fresh();
        if (!staged.empty() && rng_.chance(0.5))
            std::tie(in, k, std::ignore) = pick(staged);
        const bool full = table_.claimed(in) >= kWindowSlots;
        EXPECT_EQ(full, ref_.claimed(in) >= kWindowSlots);
        if (full) {
            ++refusals_;
            return;
        }
        Handle h = table_.find(k.first, k.second);
        if (h == InputTable::kNone) {
            h = table_.insert(in, k.first, k.second, State::Claimed);
        } else {
            EXPECT_EQ(table_[h].state, State::Unclaimed);
            table_.claim(h);
            ++stagedClaims_;
        }
        ref_.admit(in, k);
        pending_.insert(std::upper_bound(pending_.begin(), pending_.end(),
                                         k,
                                         [](const Key &a, const Listed &b) {
                                             return a < b.second;
                                         }),
                        Listed{h, k});
    }

    void
    receive(const std::vector<Live> &live)
    {
        auto [in, k] = fresh();
        if (!live.empty() && rng_.chance(0.7))
            std::tie(in, k, std::ignore) = pick(live);
        BufferedFlit bf;
        bf.flit.flow = k.first;
        bf.flit.quantum = k.second;
        bf.flit.flitNo = ++flitNo_;
        bf.spec = rng_.chance(0.3);
        Handle h = table_.find(k.first, k.second);
        if (h == InputTable::kNone)
            h = table_.insert(in, k.first, k.second, State::Unclaimed);
        std::uint32_t &received = received_[k];
        if (received == kQuantumFlits) {
            EXPECT_FALSE(table_.push(h, bf));
            ++fullPushes_;
            return;
        }
        EXPECT_TRUE(table_.push(h, bf));
        ++received;
        ref_.receive(in, k, bf);
    }

    void
    schedule()
    {
        if (pending_.empty())
            return;
        const auto at = pending_.begin() +
            static_cast<std::ptrdiff_t>(rng_.randRange(pending_.size()));
        const Listed entry = *at;
        pending_.erase(at);
        Slot slot;
        do {
            slot = rng_.randRange(1u << 20);
        } while (!slots_.insert(slot).second);
        InputTable::Record &r = table_[entry.first];
        r.departSlot = slot;
        r.scheduled = true;
        scheduled_.insert(
            std::lower_bound(scheduled_.begin(), scheduled_.end(), slot,
                             [this](const Listed &e, Slot s) {
                                 return table_[e.first].departSlot < s;
                             }),
            entry);
    }

    void
    forward(const std::vector<Live> &live)
    {
        std::vector<Live> ready;
        for (const Live &l : live) {
            const auto [flits, claimed] =
                ref_.lookup(std::get<0>(l), std::get<1>(l));
            if (claimed && !flits->empty())
                ready.push_back(l);
        }
        if (ready.empty())
            return;
        const auto [in, k, claimed] = pick(ready);
        const Handle h = table_.find(k.first, k.second);
        ASSERT_NE(h, InputTable::kNone);
        const BufferedFlit got = table_.front(h);
        table_.pop(h);
        const BufferedFlit want = ref_.pop(in, k);
        EXPECT_EQ(got.flit.flitNo, want.flit.flitNo);
        EXPECT_EQ(got.spec, want.spec);
    }

    void
    erase(const std::vector<Live> &live)
    {
        if (live.empty())
            return;
        const auto [in, k, claimed] = pick(live);
        const Handle h = table_.find(k.first, k.second);
        ASSERT_NE(h, InputTable::kNone);
        for (std::vector<Listed> *list : {&pending_, &scheduled_})
            std::erase_if(*list,
                          [&](const Listed &e) { return e.second == k; });
        table_.erase(h);
        ref_.erase(in, k);
        received_.erase(k);
        erased_.push_back(k);
    }

    Rng rng_;
    ReferenceInputTable ref_;
    std::vector<std::uint64_t> nextQuantum_ =
        std::vector<std::uint64_t>(kFlows, 0);
    std::map<Key, std::uint32_t> received_;
    std::vector<Key> erased_;
    std::set<Slot> slots_;
    std::uint64_t flitNo_ = 0;
    /** Claimed, unscheduled records sorted by (flow, quantum). */
    std::vector<Listed> pending_;
    /** Scheduled records sorted by departure slot. */
    std::vector<Listed> scheduled_;
};

void
Lockstep::check() const
{
    EXPECT_EQ(table_.size(), ref_.size());
    for (std::size_t p = 0; p < kNumPorts; ++p) {
        const Port in = static_cast<Port>(p);
        EXPECT_EQ(table_.claimed(in), ref_.claimed(in)) << "port " << p;
        EXPECT_EQ(table_.unclaimed(in), ref_.unclaimed(in)) << "port " << p;
    }

    // Both sweeps, port-major and key-sorted.
    const std::vector<Live> want = ref_.sweep();
    EXPECT_EQ(table_.anyUnclaimed(),
              std::any_of(want.begin(), want.end(),
                          [](const Live &l) { return !std::get<2>(l); }));
    std::vector<Handle> all, staged;
    table_.select(all, [](const InputTable::Record &) { return true; });
    table_.select(staged, [](const InputTable::Record &r) {
        return r.state == State::Unclaimed;
    });
    ASSERT_EQ(all.size(), want.size());
    std::size_t next_staged = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const auto &[in, k, claimed] = want[i];
        const InputTable::Record &r = table_[all[i]];
        EXPECT_EQ(r.inPort, in);
        EXPECT_EQ(keyOf(r), k);
        EXPECT_EQ(r.state, claimed ? State::Claimed : State::Unclaimed);
        if (!claimed) {
            ASSERT_LT(next_staged, staged.size());
            EXPECT_EQ(staged[next_staged++], all[i]);
        }

        // Lookup and buffered flits.
        const Handle h = table_.find(k.first, k.second);
        EXPECT_EQ(h, all[i]);
        const auto flits = table_.flits(all[i]);
        const auto *ref_flits = ref_.lookup(in, k).first;
        ASSERT_EQ(flits.size(), ref_flits->size());
        for (std::size_t j = 0; j < flits.size(); ++j) {
            EXPECT_EQ(flits[j].flit.flitNo, (*ref_flits)[j].flit.flitNo);
            EXPECT_EQ(flits[j].spec, (*ref_flits)[j].spec);
        }
    }
    EXPECT_EQ(next_staged, staged.size());
    for (const Key &k : erased_)
        EXPECT_EQ(table_.find(k.first, k.second), InputTable::kNone);

    // Listed handles still name their quanta after any growth.
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        const InputTable::Record &r = table_[pending_[i].first];
        EXPECT_EQ(keyOf(r), pending_[i].second);
        EXPECT_EQ(r.state, State::Claimed);
        EXPECT_FALSE(r.scheduled);
    }
    for (std::size_t i = 0; i < scheduled_.size(); ++i) {
        const InputTable::Record &r = table_[scheduled_[i].first];
        EXPECT_EQ(keyOf(r), scheduled_[i].second);
        EXPECT_TRUE(r.scheduled);
        if (i > 0) {
            EXPECT_LT(table_[scheduled_[i - 1].first].departSlot,
                      r.departSlot);
        }
    }
}

TEST(InputTableOracle, SeededStreamsMatchMapTables)
{
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        Lockstep ls(seed);
        for (int op = 0; op < 4000; ++op) {
            ls.step();
            ls.check();
            if (::testing::Test::HasFailure())
                FAIL() << "after operation " << op;
        }
        // The stream reached every boundary it is meant to cover.
        EXPECT_GT(ls.refusals_, 0u);
        EXPECT_GT(ls.fullPushes_, 0u);
        EXPECT_GT(ls.stagedClaims_, 0u);
        EXPECT_GE(ls.listedGrowths_, 3u);
        EXPECT_GE(ls.table_.capacity(), 16 * kInitialRecords);
    }
}

} // namespace
} // namespace noc
