/**
 * @file
 * LOFT's input reservation table (Fig. 4, Table 1), one per data
 * router and shared by its five inputs.
 *
 * Every live quantum of the router is one record in a single arena,
 * addressed by a 32-bit handle. A record is claimed once its leading
 * look-ahead flit was admitted, and unclaimed while only its data
 * flits are here (they beat a back-pressured or lost look-ahead);
 * admission claims a staged record in place. A router-wide FlatTable
 * maps (flow, quantum) to the handle: a flow's quanta enter a router
 * through one input (XY routing), so the key needs no port. Each
 * record owns quantumFlits slots of one flat flit store, enough for
 * its quantum, so buffering a flit never allocates.
 *
 * Table 1 gives an input at most windowSlots() claimed records; the
 * router back-pressures at that bound through claimed(). An input's
 * unclaimed records each hold at least one buffered flit, so its
 * buffers bound them. The host stores only what is live: the arena,
 * the flit store and the index double together when the arena is full
 * and never shrink, so a router whose population plateaus in warm-up
 * stops allocating. Handles survive growth; references into the arena
 * do not.
 */

#ifndef NOC_CORE_INPUT_TABLE_HH
#define NOC_CORE_INPUT_TABLE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "net/flit.hh"
#include "net/topology.hh"
#include "sim/flat_table.hh"
#include "sim/types.hh"

namespace noc
{

/** A buffered data flit and which physical buffer holds it. */
struct BufferedFlit
{
    Flit flit;
    bool spec = false;
};

class InputTable
{
  public:
    using Handle = std::uint32_t;
    static constexpr Handle kNone = ~Handle(0);

    enum class State : std::uint8_t
    {
        Free,
        /** Data flits staged ahead of their look-ahead flit. */
        Unclaimed,
        /** The look-ahead flit wrote the table. */
        Claimed,
    };

    /** One quantum at one input. */
    struct Record
    {
        /**
         * The leading look-ahead flit (forwarded once scheduled). An
         * unclaimed record holds only its flow and quantum number.
         */
        LookaheadFlit la;
        /** First cycle the look-ahead may request output scheduling
         *  (after the look-ahead router pipeline). */
        Cycle schedulableAt = 0;
        Slot arrivalSlot = 0;
        Slot departSlot = kNeverCycle;
        /** Unclaimed: arrival of the first staged flit. */
        Cycle firstArrival = 0;
        /** Unclaimed: next recovery attempt (first: firstArrival +
         *  timeout). */
        Cycle nextReissueAt = kNeverCycle;
        /** Unclaimed: look-ahead re-issues so far. */
        std::uint32_t reissues = 0;
        std::uint32_t forwardedFlits = 0;
        /** Buffered flits: slots [flitHead, flitTail) of the record. */
        std::uint32_t flitHead = 0;
        std::uint32_t flitTail = 0;
        /** Next free record while this one is free. */
        Handle nextFree = kNone;
        State state = State::Free;
        Port inPort = Port::Local;
        Port outPort = Port::Local;
        bool scheduled = false;
        /**
         * Downstream buffer choice, decided when the first flit is
         * forwarded and sticky for the whole quantum (the quantum is
         * the scheduling unit): started at its slot -> non-speculative,
         * started early -> speculative.
         */
        bool sendSpec = false;
        /** Unclaimed: timeout already reported as a detected loss. */
        bool detected = false;

        bool hasData() const { return flitHead != flitTail; }
        std::uint32_t bufferedFlits() const { return flitTail - flitHead; }
    };

    /** @param initial_records arena capacity before the first growth. */
    InputTable(std::uint32_t quantum_flits, std::size_t initial_records);

    /** Live records. */
    std::size_t size() const { return index_.size(); }
    bool empty() const { return index_.empty(); }
    /** Records the arena holds before it next grows. */
    std::size_t capacity() const { return records_.size(); }

    /** The live record of (@p flow, @p quantum), or kNone. */
    Handle
    find(FlowId flow, std::uint64_t quantum) const
    {
        const Handle *h = index_.find(key(flow, quantum));
        return h ? *h : kNone;
    }

    /**
     * A new record of (@p flow, @p quantum) at input @p in in state
     * @p st (not Free), growing the arena when it is full. The key must
     * not be live.
     */
    Handle insert(Port in, FlowId flow, std::uint64_t quantum, State st);

    /** The unclaimed record @p h becomes claimed; its flits stay. */
    void claim(Handle h);

    void erase(Handle h);

    Record &operator[](Handle h) { return records_[h]; }
    const Record &operator[](Handle h) const { return records_[h]; }

    /** Claimed records at input @p in (Table 1 bounds them). */
    std::uint32_t
    claimed(Port in) const
    {
        return claimed_[portIndex(in)];
    }
    std::uint32_t
    unclaimed(Port in) const
    {
        return unclaimed_[portIndex(in)];
    }
    bool
    anyUnclaimed() const
    {
        for (const std::uint32_t n : unclaimed_)
            if (n != 0)
                return true;
        return false;
    }

    /** Buffer a flit of @p h; false if it already holds a quantum. */
    bool
    push(Handle h, const BufferedFlit &bf)
    {
        Record &r = records_[h];
        if (r.flitTail == quantumFlits_)
            return false;
        flits_[base(h) + r.flitTail++] = bf;
        return true;
    }
    const BufferedFlit &
    front(Handle h) const
    {
        return flits_[base(h) + records_[h].flitHead];
    }
    void pop(Handle h) { ++records_[h].flitHead; }
    /** The flits @p h buffers, oldest first. */
    std::span<const BufferedFlit>
    flits(Handle h) const
    {
        const Record &r = records_[h];
        return {flits_.data() + base(h) + r.flitHead, r.bufferedFlits()};
    }

    /**
     * Fill @p out with the live records for which pred(record) holds,
     * ordered by input port, then (flow, quantum): the order the
     * recovery sweeps act in, whatever the handles are.
     */
    template <typename Pred>
    void
    select(std::vector<Handle> &out, Pred pred) const
    {
        out.clear();
        for (Handle h = 0; h < records_.size(); ++h)
            if (records_[h].state != State::Free && pred(records_[h]))
                out.push_back(h);
        std::sort(out.begin(), out.end(), [this](Handle a, Handle b) {
            const Record &x = records_[a], &y = records_[b];
            return std::tie(x.inPort, x.la.flow, x.la.quantumNo) <
                   std::tie(y.inPort, y.la.flow, y.la.quantumNo);
        });
    }

  private:
    /**
     * Index key: the flow id in the upper 32 bits, the quantum number
     * modulo 2^32 below. That is unique among live records: an input
     * holds at most windowSlots() quanta of a flow, far below 2^32.
     */
    static std::uint64_t
    key(FlowId flow, std::uint64_t quantum)
    {
        return (static_cast<std::uint64_t>(flow) << 32) |
               (quantum & 0xffffffffull);
    }

    /** Store slot of record @p h's first flit. */
    std::size_t
    base(Handle h) const
    {
        return std::size_t{h} * quantumFlits_;
    }

    /** Grow the arena, its flit store and the index to @p cap records. */
    void grow(std::size_t cap);

    std::uint32_t quantumFlits_;
    std::vector<Record> records_;
    std::vector<BufferedFlit> flits_;
    FlatTable<std::uint64_t, Handle> index_;
    Handle freeHead_ = kNone;
    std::array<std::uint32_t, kNumPorts> claimed_{};
    std::array<std::uint32_t, kNumPorts> unclaimed_{};
};

} // namespace noc

#endif // NOC_CORE_INPUT_TABLE_HH
