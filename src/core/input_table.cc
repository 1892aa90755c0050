#include "core/input_table.hh"

namespace noc
{

InputTable::InputTable(std::uint32_t quantum_flits,
                       std::size_t initial_records)
    : quantumFlits_(quantum_flits)
{
    grow(std::max<std::size_t>(1, initial_records));
}

InputTable::Handle
InputTable::insert(Port in, FlowId flow, std::uint64_t quantum, State st)
{
    if (freeHead_ == kNone)
        grow(2 * records_.size());
    const Handle h = freeHead_;
    Record &r = records_[h];
    freeHead_ = r.nextFree;
    r = Record{};
    r.la.flow = flow;
    r.la.quantumNo = quantum;
    r.inPort = in;
    r.state = st;
    index_.tryEmplace(key(flow, quantum), h);
    ++(st == State::Claimed ? claimed_ : unclaimed_)[portIndex(in)];
    return h;
}

void
InputTable::claim(Handle h)
{
    Record &r = records_[h];
    r.state = State::Claimed;
    --unclaimed_[portIndex(r.inPort)];
    ++claimed_[portIndex(r.inPort)];
}

void
InputTable::erase(Handle h)
{
    Record &r = records_[h];
    index_.erase(key(r.la.flow, r.la.quantumNo));
    --(r.state == State::Claimed ? claimed_ : unclaimed_)[portIndex(r.inPort)];
    r.state = State::Free;
    r.nextFree = freeHead_;
    freeHead_ = h;
}

void
InputTable::grow(std::size_t cap)
{
    const std::size_t old = records_.size();
    records_.resize(cap);
    flits_.resize(cap * quantumFlits_);
    index_.reserve(cap);
    // Thread the new records onto the free list, lowest handle first.
    for (std::size_t h = cap; h-- > old;) {
        records_[h].nextFree = freeHead_;
        freeHead_ = static_cast<Handle>(h);
    }
}

} // namespace noc
