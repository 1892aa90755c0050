/**
 * @file
 * Slow reference model of LOFT's input reservation table, kept only as
 * a test oracle. It is the formulation the data router used before
 * InputTable: per input port, one std::map of claimed quanta and one of
 * unclaimed (staged) quanta, keyed by (flow, quantum), each holding its
 * buffered flits in a deque. tests/test_input_table.cc drives it and
 * InputTable with one operation stream and requires them to agree.
 */

#ifndef NOC_TESTS_REFERENCE_INPUT_TABLE_HH
#define NOC_TESTS_REFERENCE_INPUT_TABLE_HH

#include <array>
#include <deque>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "core/input_table.hh"

namespace noc
{

class ReferenceInputTable
{
  public:
    using Key = std::pair<FlowId, std::uint64_t>;
    using Flits = std::deque<BufferedFlit>;

    std::size_t
    claimed(Port in) const
    {
        return claimed_[portIndex(in)].size();
    }
    std::size_t
    unclaimed(Port in) const
    {
        return unclaimed_[portIndex(in)].size();
    }

    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (std::size_t p = 0; p < kNumPorts; ++p)
            n += claimed_[p].size() + unclaimed_[p].size();
        return n;
    }

    /** The flits of (@p in, @p k) and whether it is claimed; null if
     *  the quantum is not live at @p in. */
    std::pair<const Flits *, bool>
    lookup(Port in, const Key &k) const
    {
        const std::size_t p = portIndex(in);
        if (auto it = claimed_[p].find(k); it != claimed_[p].end())
            return {&it->second, true};
        if (auto it = unclaimed_[p].find(k); it != unclaimed_[p].end())
            return {&it->second, false};
        return {nullptr, false};
    }

    /** A look-ahead flit wrote the table: claim any staged flits. */
    void
    admit(Port in, const Key &k)
    {
        const std::size_t p = portIndex(in);
        Flits &flits = claimed_[p][k];
        if (auto it = unclaimed_[p].find(k); it != unclaimed_[p].end()) {
            flits = std::move(it->second);
            unclaimed_[p].erase(it);
        }
    }

    /** A data flit arrived: buffered with its record, or staged. */
    void
    receive(Port in, const Key &k, const BufferedFlit &bf)
    {
        const std::size_t p = portIndex(in);
        if (auto it = claimed_[p].find(k); it != claimed_[p].end())
            it->second.push_back(bf);
        else
            unclaimed_[p][k].push_back(bf);
    }

    BufferedFlit
    pop(Port in, const Key &k)
    {
        Flits &flits = claimed_[portIndex(in)].at(k);
        const BufferedFlit bf = flits.front();
        flits.pop_front();
        return bf;
    }

    void
    erase(Port in, const Key &k)
    {
        const std::size_t p = portIndex(in);
        if (!claimed_[p].erase(k))
            unclaimed_[p].erase(k);
    }

    /** Every live quantum as (port, key, claimed), port-major and
     *  key-sorted: the order of the recovery sweeps. */
    std::vector<std::tuple<Port, Key, bool>>
    sweep() const
    {
        std::vector<std::tuple<Port, Key, bool>> out;
        for (std::size_t p = 0; p < kNumPorts; ++p) {
            std::map<Key, bool> live;
            for (const auto &[k, flits] : claimed_[p])
                live.emplace(k, true);
            for (const auto &[k, flits] : unclaimed_[p])
                live.emplace(k, false);
            for (const auto &[k, is_claimed] : live)
                out.emplace_back(static_cast<Port>(p), k, is_claimed);
        }
        return out;
    }

  private:
    std::array<std::map<Key, Flits>, kNumPorts> claimed_;
    std::array<std::map<Key, Flits>, kNumPorts> unclaimed_;
};

} // namespace noc

#endif // NOC_TESTS_REFERENCE_INPUT_TABLE_HH
