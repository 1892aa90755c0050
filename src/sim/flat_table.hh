/**
 * @file
 * FlatTable: the open-addressed hash table behind the auditor's
 * per-event state (ledger, reservation set, scheduler shadows) and the
 * LOFT data router's input-table index (core/input_table.hh).
 *
 * Entries live in one power-of-two bucket array probed linearly;
 * erase shifts the rest of the probe run back instead of leaving
 * tombstones, so lookups never slow down under churn. The array
 * doubles when the table would pass half full and never shrinks: a
 * table whose live population plateaus during warm-up stops
 * allocating, which keeps an audited measurement window at zero heap
 * allocations (docs/SCALE.md). forEach() and eraseIf() walk the whole
 * array; the auditor calls them once per deep audit, not per event.
 *
 * Iteration order is the bucket order, which depends on the hash and
 * the insertion history. Callers that report what they find sort it
 * first, or use the table only for lookups.
 */

#ifndef NOC_SIM_FLAT_TABLE_HH
#define NOC_SIM_FLAT_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace noc
{

/** 64-bit finalizer (splitmix64): spreads sequential keys apart. */
inline std::uint64_t
mixHash(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

/**
 * @tparam Key an unsigned integer, or a type with a `hash()` member
 *         and `operator==`. Both Key and Value must be default
 *         constructible and copyable.
 */
template <typename Key, typename Value>
class FlatTable
{
  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** The value stored under @p key, or null. */
    const Value *
    find(const Key &key) const
    {
        const std::size_t i = indexOf(key);
        return i == kNone ? nullptr : &buckets_[i].value;
    }

    Value *
    find(const Key &key)
    {
        return const_cast<Value *>(std::as_const(*this).find(key));
    }

    bool contains(const Key &key) const { return indexOf(key) != kNone; }

    /** Make room for @p n entries, so inserting up to them never grows. */
    void
    reserve(std::size_t n)
    {
        const std::size_t cap =
            std::bit_ceil(std::max<std::size_t>(8, 2 * n));
        if (cap > buckets_.size())
            rehash(cap);
    }

    /**
     * Insert (@p key, @p value) unless @p key is present.
     * @return the stored value and whether it was inserted. The
     *         pointer stays valid until the next insertion.
     */
    std::pair<Value *, bool>
    tryEmplace(const Key &key, const Value &value = Value{})
    {
        const std::size_t at = indexOf(key);
        if (at != kNone)
            return {&buckets_[at].value, false};
        if (2 * (size_ + 1) > buckets_.size())
            rehash(buckets_.empty() ? 8 : 2 * buckets_.size());
        std::size_t i = home(key);
        while (buckets_[i].full)
            i = next(i);
        buckets_[i] = Bucket{key, value, true};
        ++size_;
        return {&buckets_[i].value, true};
    }

    /** The value under @p key, default-inserted if absent. */
    Value &operator[](const Key &key) { return *tryEmplace(key).first; }

    /** Remove @p key; @return whether it was present. */
    bool
    erase(const Key &key)
    {
        const std::size_t i = indexOf(key);
        if (i == kNone)
            return false;
        eraseAt(i);
        return true;
    }

    /** Visit every entry as fn(key, value). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Bucket &b : buckets_)
            if (b.full)
                fn(b.key, b.value);
    }

    /** Erase every entry for which pred(key, value) holds. */
    template <typename Pred>
    void
    eraseIf(Pred &&pred)
    {
        // A backward shift only moves an entry into the hole just
        // made, so re-examining the hole visits every survivor; an
        // entry wrapped from the array's front may be tested twice,
        // which a pure predicate tolerates.
        for (std::size_t i = 0; i < buckets_.size();) {
            const Bucket &b = buckets_[i];
            if (b.full && pred(b.key, b.value))
                eraseAt(i);
            else
                ++i;
        }
    }

  private:
    struct Bucket
    {
        Key key{};
        Value value{};
        bool full = false;
    };

    static constexpr std::size_t kNone = ~std::size_t(0);

    static std::uint64_t
    hashOf(const Key &key)
    {
        if constexpr (std::is_integral_v<Key>)
            return mixHash(static_cast<std::uint64_t>(key));
        else
            return key.hash();
    }

    std::size_t home(const Key &key) const { return hashOf(key) & mask_; }
    std::size_t next(std::size_t i) const { return (i + 1) & mask_; }

    /** Bucket holding @p key, or kNone. */
    std::size_t
    indexOf(const Key &key) const
    {
        if (size_ == 0)
            return kNone;
        for (std::size_t i = home(key);; i = next(i)) {
            const Bucket &b = buckets_[i];
            if (!b.full)
                return kNone;
            if (b.key == key)
                return i;
        }
    }

    /** Empty bucket @p hole, shifting later run members back. */
    void
    eraseAt(std::size_t hole)
    {
        for (std::size_t j = next(hole);; j = next(j)) {
            Bucket &b = buckets_[j];
            if (!b.full)
                break;
            // b may fill the hole unless its home lies cyclically in
            // (hole, j]: moving it before its home would hide it.
            const std::size_t h = home(b.key);
            const bool stays = hole <= j ? (hole < h && h <= j)
                                         : (hole < h || h <= j);
            if (stays)
                continue;
            buckets_[hole] = b;
            hole = j;
        }
        buckets_[hole].full = false;
        --size_;
    }

    /** Move every entry into a fresh array of @p cap buckets. */
    void
    rehash(std::size_t cap)
    {
        std::vector<Bucket> old = std::move(buckets_);
        buckets_.assign(cap, Bucket{});
        mask_ = cap - 1;
        for (const Bucket &b : old) {
            if (!b.full)
                continue;
            std::size_t i = home(b.key);
            while (buckets_[i].full)
                i = next(i);
            buckets_[i] = b;
        }
    }

    std::vector<Bucket> buckets_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace noc

#endif // NOC_SIM_FLAT_TABLE_HH
