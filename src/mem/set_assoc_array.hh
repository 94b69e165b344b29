/**
 * @file
 * Generic set-associative tag array with true-LRU replacement.
 *
 * Reused by the L2 caches (payload = LineState) and by the address-only
 * predictor structures (payload = empty). Addresses are line addresses;
 * the array derives the set index from the line index bits.
 *
 * The ways live in three parallel arrays: tags, LRU stamps and
 * payloads. A tag of kInvalidAddr marks an invalid way; no line address
 * equals it, since line addresses have their offset bits clear. A probe
 * scans only the set's tags, which for 8 ways fill exactly one 64-byte
 * line (the tag array is line-aligned), and reads the LRU stamp and the
 * payload only on a hit. Keeping each way's tag, valid flag, stamp and
 * payload together (32 bytes per way) would make every 8-way probe walk
 * 4 cache lines.
 */

#ifndef FLEXSNOOP_MEM_SET_ASSOC_ARRAY_HH
#define FLEXSNOOP_MEM_SET_ASSOC_ARRAY_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <new>
#include <vector>

#include "sim/types.hh"

namespace flexsnoop
{

/**
 * Result of an insertion: where the line landed and what was evicted.
 */
template <typename Payload>
struct InsertResult
{
    bool evicted = false;   ///< a valid victim was displaced
    Addr evictedAddr = kInvalidAddr;
    Payload evictedPayload{};
};

/** std::allocator, but every allocation starts on a cache line. */
template <typename T>
struct LineAlignedAllocator
{
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};

    LineAlignedAllocator() = default;
    template <typename U>
    LineAlignedAllocator(const LineAlignedAllocator<U> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), kAlign));
    }

    void deallocate(T *p, std::size_t) { ::operator delete(p, kAlign); }

    friend bool
    operator==(const LineAlignedAllocator &, const LineAlignedAllocator &)
    {
        return true;
    }
};

template <typename Payload>
class SetAssocArray
{
  public:
    /**
     * @param num_entries total entries (must be a multiple of @p ways)
     * @param ways        associativity
     */
    SetAssocArray(std::size_t num_entries, std::size_t ways)
        : _ways(ways), _sets(num_entries / ways),
          _tags(num_entries, kInvalidAddr), _lru(num_entries),
          _data(num_entries)
    {
        assert(ways > 0);
        assert(num_entries % ways == 0);
        assert(_sets > 0);
    }

    std::size_t numEntries() const { return _tags.size(); }
    std::size_t numSets() const { return _sets; }
    std::size_t associativity() const { return _ways; }

    /** Number of currently valid entries (O(n); for stats/tests). */
    std::size_t
    occupancy() const
    {
        return _tags.size() -
               static_cast<std::size_t>(
                   std::count(_tags.begin(), _tags.end(), kInvalidAddr));
    }

    /** Set index for a line address. */
    std::size_t
    setIndex(Addr line) const
    {
        return static_cast<std::size_t>(lineIndex(line)) % _sets;
    }

    /**
     * Look up @p line; returns its payload or nullptr. Updates LRU when
     * @p touch is true.
     */
    Payload *
    lookup(Addr line, bool touch = true)
    {
        line = lineAddr(line);
        return lookupInSet(setIndex(line), line, touch);
    }

    const Payload *
    lookup(Addr line) const
    {
        return const_cast<SetAssocArray *>(this)->lookup(line, false);
    }

    /**
     * lookup() with the set index already known: a write snoop resolves
     * the set once for all L2s of a CMP (geometry is uniform across
     * all L2s of the machine).
     */
    Payload *
    lookupInSet(std::size_t set, Addr line, bool touch = true)
    {
        const std::size_t w = findWay(set, line);
        if (w == kNoWay)
            return nullptr;
        if (touch)
            _lru[w] = ++_clock;
        return &_data[w];
    }

    /**
     * Insert @p line with @p data, evicting the LRU way if the set is
     * full. If the line is already present its payload is overwritten.
     * The victim is the first invalid way, else the way with the
     * strictly smallest LRU stamp.
     */
    InsertResult<Payload>
    insert(Addr line, Payload data = Payload{})
    {
        line = lineAddr(line);
        InsertResult<Payload> result;
        const std::size_t set = setIndex(line);
        if (Payload *hit = lookupInSet(set, line, true)) {
            *hit = std::move(data);
            return result;
        }
        const std::size_t base = set * _ways;
        std::size_t victim = base;
        for (std::size_t w = base; w < base + _ways; ++w) {
            if (_tags[w] == kInvalidAddr) {
                victim = w;
                break;
            }
            if (_lru[w] < _lru[victim])
                victim = w;
        }
        if (_tags[victim] != kInvalidAddr) {
            result.evicted = true;
            result.evictedAddr = _tags[victim];
            result.evictedPayload = std::move(_data[victim]);
        }
        _tags[victim] = line;
        _lru[victim] = ++_clock;
        _data[victim] = std::move(data);
        return result;
    }

    /** Remove @p line if present; @return true if it was there. */
    bool
    erase(Addr line)
    {
        line = lineAddr(line);
        return eraseInSet(setIndex(line), line);
    }

    /** erase() with the set index already known. */
    bool
    eraseInSet(std::size_t set, Addr line)
    {
        const std::size_t w = findWay(set, line);
        if (w == kNoWay)
            return false;
        _tags[w] = kInvalidAddr;
        _data[w] = Payload{};
        return true;
    }

    /** Invalidate every entry. */
    void
    clear()
    {
        std::fill(_tags.begin(), _tags.end(), kInvalidAddr);
        std::fill(_data.begin(), _data.end(), Payload{});
    }

    /** Visit every valid way (tag, payload ref). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::size_t w = 0; w < _tags.size(); ++w) {
            if (_tags[w] != kInvalidAddr)
                fn(_tags[w], _data[w]);
        }
    }

  private:
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    /** Way index holding @p line in @p set, or kNoWay. Reads tags only. */
    std::size_t
    findWay(std::size_t set, Addr line) const
    {
        assert(set == setIndex(line));
        const std::size_t base = set * _ways;
        for (std::size_t w = base; w < base + _ways; ++w) {
            if (_tags[w] == line)
                return w;
        }
        return kNoWay;
    }

    std::size_t _ways;
    std::size_t _sets;
    std::vector<Addr, LineAlignedAllocator<Addr>> _tags;
    std::vector<std::uint64_t> _lru; ///< larger = more recently used
    std::vector<Payload> _data;
    std::uint64_t _clock = 0;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_MEM_SET_ASSOC_ARRAY_HH
