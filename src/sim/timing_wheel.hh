/**
 * @file
 * Hierarchical timing wheel: the O(1) scheduler behind EventQueue.
 *
 * A near wheel of power-of-two single-cycle buckets covers the common
 * short event horizon (ring hops, gateway lookups, L2 and memory
 * accesses); three cascading overflow levels of 256 buckets each cover
 * far-future events (watchdog timeouts, retry backoffs, cell
 * deadlines), and a far list absorbs anything beyond the last level.
 *
 * Each pending event is one stationary WheelSlot from a SlotPool: the
 * scheduler builds the callable in its slot, every bucket is an
 * intrusive list of slots, cascades relink slots rather than move
 * callables, and dispatch runs the callable where it sits before the
 * slot is recycled. Every bucket only ever appends, in the scheduler's
 * sequence order: a fresh link carries the newest seq, and a cascade
 * or far-list redistribution relinks a seq-ordered list into buckets
 * that are empty when it starts. So execution order — (cycle, seq)
 * strict — is the order a binary min-heap over the same events would
 * give; append() asserts it, and EventQueue checks it again at
 * dispatch.
 *
 * Occupancy bitmaps per level make the "next non-empty bucket" scan a
 * handful of word operations, so draining across empty cycle stretches
 * costs O(horizon / 64) words instead of O(horizon) buckets.
 */

#ifndef FLEXSNOOP_SIM_TIMING_WHEEL_HH
#define FLEXSNOOP_SIM_TIMING_WHEEL_HH

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_fn.hh"
#include "sim/slot_pool.hh"
#include "sim/types.hh"

namespace flexsnoop
{

/** One scheduled event: it stays at this address from schedule to
 *  dispatch while the wheel relinks it between buckets. */
struct WheelSlot
{
    EventFn fn;
    Cycle when = 0;
    std::uint64_t seq = 0; ///< scheduling order: the same-cycle tie-break
    WheelSlot *next = nullptr; ///< next slot in the same bucket
};

class TimingWheel
{
  public:
    /** Overflow geometry: 3 levels x 256 buckets above the near wheel. */
    static constexpr unsigned kOverflowBits = 8;
    static constexpr std::size_t kOverflowSlots = 1u << kOverflowBits;
    static constexpr std::size_t kOverflowLevels = 3;

    static constexpr std::size_t kMinNearBuckets = 64;
    static constexpr std::size_t kMaxNearBuckets = 1u << 16;

    explicit TimingWheel(std::size_t near_buckets = 256);

    /**
     * Resize the near wheel (power of two, clamped to
     * [kMinNearBuckets, kMaxNearBuckets]). Only legal while empty.
     */
    void configure(std::size_t near_buckets);

    std::size_t nearBuckets() const { return _nearSize; }

    bool empty() const { return _size == 0; }
    std::size_t size() const { return _size; }

    /** A free slot with an empty callable, for the caller to fill and
     *  link(), or to hand back through recycle(). */
    WheelSlot *acquire() { return _pool.acquire(); }

    /** Destroy @p slot's callable and return the slot to the pool. */
    void
    recycle(WheelSlot *slot) noexcept
    {
        slot->fn.reset();
        _pool.release(slot);
    }

    /**
     * Link a filled slot. @p now is the scheduler's current cycle; it
     * re-anchors the wheel when the slot lands in an empty wheel
     * (which is what keeps long idle jumps free). Requires
     * slot->when >= now and slot->seq newer than every pending seq.
     */
    void
    link(Cycle now, WheelSlot *slot)
    {
        const Cycle when = slot->when;
        assert(when >= now);
        if (_size == 0) {
            resetTo(now);
            _minCached = when;
            _minValid = true;
        } else if (_minValid && when < _minCached) {
            _minCached = when;
        }
        ++_size;
        assert(when >= _w0 + _curSlot);
        if ((when >> _nearBits) == (_w0 >> _nearBits)) {
            const auto b = static_cast<std::size_t>(when & _nearMask);
            setBit(_nearMap, b);
            _near[b].append(slot);
        } else {
            linkOverflow(slot);
        }
    }

    /**
     * Unlink the earliest slot ((when, seq) order) and return it; the
     * caller runs its callable and recycles it. Requires !empty().
     */
    WheelSlot *
    unlinkFront()
    {
        assert(_size > 0);
        if (!_near[_curSlot].head) {
            const bool ok = advanceToPending();
            assert(ok);
            (void)ok;
        }
        SlotList &bucket = _near[_curSlot];
        WheelSlot *slot = bucket.head;
        assert(slot->when == _w0 + _curSlot);
        bucket.head = slot->next;
        --_size;
        if (bucket.head) {
            _minCached = slot->when;
            _minValid = true;
        } else {
            // Retire the drained bucket eagerly so an empty wheel is
            // also structurally empty (resetTo() and re-anchoring rely
            // on it).
            bucket.tail = nullptr;
            clrBit(_nearMap, _curSlot);
            _minValid = false;
        }
        return slot;
    }

    /** Earliest pending cycle. Requires !empty(). Cached; O(1) in the
     *  common case, a bitmap scan after a bucket drains. */
    Cycle minPending() const;

    // Self-measurement (docs/METRICS.md "queue.*") --------------------

    /** Overflow buckets cascaded down a level. */
    std::uint64_t cascades() const { return _cascades; }
    /** Slots relinked by those cascades. */
    std::uint64_t cascadedEntries() const { return _cascadedEntries; }
    /** Links that missed the near wheel (validates sizing). */
    std::uint64_t overflowScheduled() const { return _overflowScheduled; }
    /** Links beyond even the last overflow level. */
    std::uint64_t farScheduled() const { return _farScheduled; }

  private:
    /** Intrusive seq-ordered FIFO of slots. */
    struct SlotList
    {
        WheelSlot *head = nullptr;
        WheelSlot *tail = nullptr;

        /** Requires @p slot to be newer than the tail: a fresh link
         *  carries the newest seq, and relinks land in buckets that
         *  were empty when the cascade began. */
        void
        append(WheelSlot *slot)
        {
            assert((!tail || tail->seq < slot->seq) &&
                   "a bucket must stay seq-ordered");
            slot->next = nullptr;
            if (tail)
                tail->next = slot;
            else
                head = slot;
            tail = slot;
        }

        /** Earliest cycle held. Requires a non-empty list. */
        Cycle minWhen() const;
    };

    /** place()'s level number for the far list (0 near, 1..3 overflow). */
    static constexpr std::uint8_t kFarLevel = kOverflowLevels + 1;

    /** Slots per SlotPool chunk (about 28 KiB). */
    static constexpr std::size_t kPoolChunkSlots = 256;

    /** Granularity shift of overflow level @p l (1-based). */
    unsigned
    granShift(std::size_t l) const
    {
        return _nearBits + kOverflowBits * static_cast<unsigned>(l - 1);
    }

    /** link()'s slow path: file a fresh slot that missed the near
     *  window and count it. */
    void linkOverflow(WheelSlot *slot);

    /** Append @p slot to the bucket of the level its cycle belongs
     *  to. Does not touch _size. @return the level chosen (0 near,
     *  1..3 overflow, kFarLevel). */
    std::uint8_t place(WheelSlot *slot);

    /** Relink every slot of @p list through place(), counting them as
     *  cascaded. */
    void relinkAll(SlotList list);

    /** Advance _curSlot (cascading overflow levels and the far list as
     *  needed) until the current near bucket holds a slot. @return
     *  false when the wheel is empty. */
    bool advanceToPending();

    /** Cascade the next occupied overflow bucket down one level and
     *  re-anchor the lower windows at its start. @return false when
     *  every overflow level is exhausted. */
    bool refillFromOverflow();

    /** Re-anchor the near window and the overflow scan cursors at
     *  @p now. Requires every level below the far list to be empty. */
    void resetTo(Cycle now);

    /** Relink far-list slots that fit the (re-anchored) levels. */
    void redistributeFar();

    Cycle recomputeMin() const;

    // Occupancy bitmaps ----------------------------------------------
    static void
    setBit(std::vector<std::uint64_t> &bm, std::size_t i)
    {
        bm[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
    static void
    clrBit(std::vector<std::uint64_t> &bm, std::size_t i)
    {
        bm[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }
    /** First set bit at index >= @p from, or SIZE_MAX. */
    static std::size_t scanFrom(const std::vector<std::uint64_t> &bm,
                                std::size_t from, std::size_t bits);

    unsigned _nearBits = 8;
    std::size_t _nearSize = 256;
    std::size_t _nearMask = 255;

    std::vector<SlotList> _near;
    std::array<std::vector<SlotList>, kOverflowLevels> _over;
    SlotList _far; ///< seq-ordered; cycles beyond the last level

    std::vector<std::uint64_t> _nearMap;
    std::array<std::vector<std::uint64_t>, kOverflowLevels> _overMap;

    Cycle _w0 = 0;            ///< near window start (aligned)
    std::size_t _curSlot = 0; ///< near bucket currently draining
    /** Next overflow slot to examine per level (256 = exhausted). */
    std::array<std::size_t, kOverflowLevels> _scan{};

    std::size_t _size = 0;

    mutable bool _minValid = false;
    mutable Cycle _minCached = 0;

    std::uint64_t _cascades = 0;
    std::uint64_t _cascadedEntries = 0;
    std::uint64_t _overflowScheduled = 0;
    std::uint64_t _farScheduled = 0;

    /** Owns every slot; callables still pending when the wheel is
     *  destroyed go with their slots. */
    SlotPool<WheelSlot> _pool{kPoolChunkSlots};
};

} // namespace flexsnoop

#endif // FLEXSNOOP_SIM_TIMING_WHEEL_HH
