/**
 * @file
 * Open-addressing hash map over 64-bit keys.
 *
 * Replaces std::unordered_map on the coherence controller's hot paths
 * (transactions by id, the gateway line table).
 * Linear probing over a power-of-two table with one control byte per
 * slot. Erase leaves a tombstone, so it never moves an entry.
 *
 * Capacity follows the live count, never the churn. Tombstones count
 * toward the 70% load that triggers a rehash, so growing the table at
 * every rehash would make capacity track total insert/erase churn: a
 * map holding 2 live keys after 20,000 put/erase cycles would reach
 * 16,384 slots, nearly all tombstones, and every miss would walk them.
 * Instead a rehash sizes the table to the smallest power of two >=
 * 2.5 x (live + 1), at least 16 and never below its current capacity.
 * Churn at a steady live count therefore re-packs the table in its own
 * storage, and only a new live high-water mark grows it: a map at its
 * high-water mark allocates nothing, unlike unordered_map, which
 * allocates a node per insert.
 *
 * Values are expected to be small and trivially movable (pointers,
 * ids). A pointer from find() or getOrCreate() stays valid until the
 * next insert of a new key, which may re-pack or grow the table.
 * probe() serves a lookup and a later insert of the same key with one
 * probe walk, as long as nothing modifies the map in between.
 */

#ifndef FLEXSNOOP_SIM_FLAT_MAP_HH
#define FLEXSNOOP_SIM_FLAT_MAP_HH

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace flexsnoop
{

template <typename V>
class FlatMap
{
  public:
    FlatMap() : _ctrl(kMinCapacity, kEmpty), _keys(kMinCapacity),
                _values(kMinCapacity)
    {
    }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    /** Number of slots; a function of the live high-water mark. */
    std::size_t capacity() const { return _ctrl.size(); }

    /** Pointer to the value for @p key, or nullptr. */
    V *
    find(std::uint64_t key)
    {
        const std::size_t i = findSlot(key);
        return i == kNotFound ? nullptr : &_values[i];
    }

    const V *
    find(std::uint64_t key) const
    {
        const std::size_t i = findSlot(key);
        return i == kNotFound ? nullptr : &_values[i];
    }

    bool contains(std::uint64_t key) const
    {
        return findSlot(key) != kNotFound;
    }

    /** Insert or overwrite. */
    void
    put(std::uint64_t key, V value)
    {
        getOrCreate(key) = std::move(value);
    }

    /**
     * The outcome of one probe walk for a key: its value when mapped,
     * otherwise the slot insert() fills. Valid until the map is next
     * modified.
     */
    struct Probe
    {
        V *value;          ///< the mapped value, or nullptr
        std::uint64_t key;
        std::size_t slot;  ///< first free slot of the key's chain
        std::uint64_t stamp;
    };

    /** Look @p key up, remembering where an insert would go. */
    Probe
    probe(std::uint64_t key)
    {
        const std::size_t mask = _ctrl.size() - 1;
        std::size_t i = hash(key) & mask;
        std::size_t free = kNotFound;
        while (_ctrl[i] != kEmpty) {
            if (_ctrl[i] == kFull) {
                if (_keys[i] == key)
                    return {&_values[i], key, i, _stamp};
            } else if (free == kNotFound) {
                free = i;
            }
            i = (i + 1) & mask;
        }
        return {nullptr, key, free == kNotFound ? i : free, _stamp};
    }

    /**
     * Map the absent key of @p p to a default-constructed value without
     * walking its chain again (unless the table must rehash first). The
     * map must be unmodified since the probe; afterwards p.value points
     * at the new value.
     */
    V &
    insert(Probe &p)
    {
        assert(!p.value && p.stamp == _stamp &&
               "FlatMap modified between probe() and insert()");
        std::size_t i = p.slot;
        if ((_size + _tombstones + 1) * 10 >= _ctrl.size() * 7) {
            rehash();
            const std::size_t mask = _ctrl.size() - 1;
            i = hash(p.key) & mask;
            while (_ctrl[i] == kFull)
                i = (i + 1) & mask;
        }
        if (_ctrl[i] == kTombstone)
            --_tombstones;
        _ctrl[i] = kFull;
        _keys[i] = p.key;
        _values[i] = V{};
        ++_size;
        ++_stamp;
        p.value = &_values[i];
        return _values[i];
    }

    /**
     * Reference to the value for @p key, default-constructing it (and
     * the mapping) if absent. One probe walk either way.
     */
    V &
    getOrCreate(std::uint64_t key)
    {
        Probe p = probe(key);
        return p.value ? *p.value : insert(p);
    }

    /** @return true when a mapping was removed. */
    bool
    erase(std::uint64_t key)
    {
        const std::size_t i = findSlot(key);
        if (i == kNotFound)
            return false;
        _ctrl[i] = kTombstone;
        _values[i] = V{};
        ++_tombstones;
        --_size;
        ++_stamp;
        return true;
    }

    /** Drop every mapping; capacity is retained. */
    void
    clear()
    {
        _ctrl.assign(_ctrl.size(), kEmpty);
        _size = 0;
        _tombstones = 0;
        ++_stamp;
    }

    /** Visit every (key, value) pair; iteration order is unspecified. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < _ctrl.size(); ++i) {
            if (_ctrl[i] == kFull)
                fn(_keys[i], _values[i]);
        }
    }

  private:
    static constexpr std::uint8_t kEmpty = 0;
    static constexpr std::uint8_t kFull = 1;
    static constexpr std::uint8_t kTombstone = 2;
    static constexpr std::size_t kNotFound = ~std::size_t{0};
    static constexpr std::size_t kMinCapacity = 16;

    /** splitmix64 finalizer: cheap and well-distributed for ids and
     *  line addresses (which share low-entropy low bits). */
    static std::size_t
    hash(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return static_cast<std::size_t>(x ^ (x >> 31));
    }

    std::size_t
    findSlot(std::uint64_t key) const
    {
        const std::size_t mask = _ctrl.size() - 1;
        std::size_t i = hash(key) & mask;
        while (_ctrl[i] != kEmpty) {
            if (_ctrl[i] == kFull && _keys[i] == key)
                return i;
            i = (i + 1) & mask;
        }
        return kNotFound;
    }

    /**
     * Drop every tombstone, growing only past a new live high. The
     * target keeps live entries at about 40% of the table or less: about
     * 30% of the slots then take inserts before the next rehash, and a
     * table that fills with live entries (70%) exactly doubles.
     */
    void
    rehash()
    {
        const std::size_t cap =
            std::max(_ctrl.size(), std::bit_ceil((_size + 1) * 5 / 2));
        if (cap == _ctrl.size())
            repack();
        else
            grow(cap);
    }

    /**
     * Drop every tombstone at the same capacity, reusing the storage.
     * Clearing the tombstones can cut an entry off from its home slot,
     * so each entry is then re-seated at the first free slot of its
     * probe chain. Slots are visited in cyclic order from a slot that
     * was empty before the clear; no probe chain crosses that slot, so
     * each chain is visited from its home on. An entry only ever moves
     * back toward its home, so re-seating one never cuts off another
     * already re-seated.
     */
    void
    repack()
    {
        const std::size_t mask = _ctrl.size() - 1;
        // Exists: live + tombstones stay below 70% of the table.
        std::size_t start = 0;
        while (_ctrl[start] != kEmpty)
            ++start;
        std::replace(_ctrl.begin(), _ctrl.end(), kTombstone, kEmpty);
        _tombstones = 0;
        for (std::size_t n = 1; n < _ctrl.size(); ++n) {
            const std::size_t i = (start + n) & mask;
            if (_ctrl[i] != kFull)
                continue;
            std::size_t j = hash(_keys[i]) & mask;
            while (j != i && _ctrl[j] == kFull)
                j = (j + 1) & mask;
            if (j == i)
                continue;
            _ctrl[j] = kFull;
            _keys[j] = _keys[i];
            _values[j] = std::move(_values[i]);
            _ctrl[i] = kEmpty;
            _values[i] = V{};
        }
    }

    void
    grow(std::size_t cap)
    {
        std::vector<std::uint8_t> old_ctrl =
            std::exchange(_ctrl, std::vector<std::uint8_t>(cap, kEmpty));
        std::vector<std::uint64_t> old_keys =
            std::exchange(_keys, std::vector<std::uint64_t>(cap));
        std::vector<V> old_values =
            std::exchange(_values, std::vector<V>(cap));
        _tombstones = 0;
        for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
            if (old_ctrl[i] != kFull)
                continue;
            std::size_t j = hash(old_keys[i]) & (cap - 1);
            while (_ctrl[j] == kFull)
                j = (j + 1) & (cap - 1);
            _ctrl[j] = kFull;
            _keys[j] = old_keys[i];
            _values[j] = std::move(old_values[i]);
        }
    }

    std::vector<std::uint8_t> _ctrl;
    std::vector<std::uint64_t> _keys;
    std::vector<V> _values;
    std::size_t _size = 0;
    std::size_t _tombstones = 0;
    /** Modification count: a Probe is valid only at its own stamp. */
    std::uint64_t _stamp = 0;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_SIM_FLAT_MAP_HH
