/**
 * @file
 * Hierarchical timing wheel: the O(1) scheduler behind EventQueue.
 *
 * A near wheel of power-of-two single-cycle buckets covers the common
 * short event horizon (ring hops, gateway lookups, L2 and memory
 * accesses); three cascading overflow levels of 256 buckets each cover
 * far-future events (watchdog timeouts, retry backoffs, cell
 * deadlines), and an unsorted far list absorbs anything beyond the
 * last level. Every bucket keeps its entries ordered by the scheduler's
 * sequence counter, so execution order — (cycle, seq) strict — is
 * bit-identical to a binary min-heap over the same entries.
 *
 * Occupancy bitmaps per level make the "next non-empty bucket" scan a
 * handful of word operations, so draining across empty cycle stretches
 * costs O(horizon / 64) words instead of O(horizon) buckets.
 */

#ifndef FLEXSNOOP_SIM_TIMING_WHEEL_HH
#define FLEXSNOOP_SIM_TIMING_WHEEL_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_fn.hh"
#include "sim/types.hh"

namespace flexsnoop
{

/** One scheduled event inside the wheel. */
struct WheelEntry
{
    Cycle when;
    std::uint64_t seq; ///< scheduling order: the same-cycle tie-break
    EventFn fn;
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

    /**
     * Insert an entry. @p now is the scheduler's current cycle; it
     * re-anchors the wheel when the insert lands in an empty wheel
     * (which is what keeps long idle jumps free). Requires
     * entry.when >= now.
     */
    void insert(Cycle now, WheelEntry entry);

    /** Remove and return the earliest entry ((when, seq) order).
     *  Requires !empty(). */
    WheelEntry pop();

    /** Earliest pending cycle. Requires !empty(). Cached; O(1) in the
     *  common case, a bitmap scan after a bucket drains. */
    Cycle minPending() const;

    /** Drop all entries; bucket capacities are retained for reuse. */
    void clear();

    // Self-measurement (docs/METRICS.md "queue.*") --------------------

    /** Overflow buckets cascaded down a level. */
    std::uint64_t cascades() const { return _cascades; }
    /** Entries re-filed by those cascades. */
    std::uint64_t cascadedEntries() const { return _cascadedEntries; }
    /** High-water mark of any single bucket's depth. */
    std::uint64_t maxBucketDepth() const { return _maxBucketDepth; }
    /** Inserts that missed the near wheel (validates sizing). */
    std::uint64_t overflowScheduled() const { return _overflowScheduled; }
    /** Inserts beyond even the last overflow level. */
    std::uint64_t farScheduled() const { return _farScheduled; }

  private:
    using Bucket = std::vector<WheelEntry>;

    /** place()'s level number for the far list (0 near, 1..3 overflow). */
    static constexpr std::uint8_t kFarLevel = kOverflowLevels + 1;

    /** Granularity shift of overflow level @p l (1-based). */
    unsigned
    granShift(std::size_t l) const
    {
        return _nearBits + kOverflowBits * static_cast<unsigned>(l - 1);
    }

    /** File @p entry into the level its cycle belongs to, keeping the
     *  target bucket seq-sorted. Does not touch _size. @return the
     *  level chosen (0 near, 1..3 overflow, kFarLevel). */
    std::uint8_t place(WheelEntry &&entry);

    /** Seq-sorted insert into one bucket (append in the common case). */
    void insertSorted(Bucket &bucket, std::uint8_t level, std::size_t slot,
                      WheelEntry &&entry);

    /** Advance _curSlot (cascading overflow levels and the far list as
     *  needed) until the current near bucket holds an unconsumed
     *  entry. @return false when the wheel is empty. */
    bool advanceToPending();

    /** Cascade the next occupied overflow bucket down one level and
     *  re-anchor the lower windows at its start. @return false when
     *  every overflow level is exhausted. */
    bool refillFromOverflow();

    /** Re-anchor an empty wheel at @p now. */
    void resetTo(Cycle now);

    /** Re-file far-list entries that fit the (re-anchored) levels. */
    void redistributeFar();

    Cycle recomputeMin() const;

    // Occupancy bitmaps ----------------------------------------------
    static void setBit(std::vector<std::uint64_t> &bm, std::size_t i);
    static void clrBit(std::vector<std::uint64_t> &bm, std::size_t i);
    /** First set bit at index >= @p from, or SIZE_MAX. */
    static std::size_t scanFrom(const std::vector<std::uint64_t> &bm,
                                std::size_t from, std::size_t bits);

    unsigned _nearBits = 8;
    std::size_t _nearSize = 256;
    std::size_t _nearMask = 255;

    std::vector<Bucket> _near;
    std::array<std::vector<Bucket>, kOverflowLevels> _over;
    Bucket _far; ///< seq-sorted; cycles beyond the last level

    std::vector<std::uint64_t> _nearMap;
    std::array<std::vector<std::uint64_t>, kOverflowLevels> _overMap;

    Cycle _w0 = 0;            ///< near window start (aligned)
    std::size_t _curSlot = 0; ///< near slot currently draining
    std::size_t _head = 0;    ///< consumed prefix of _near[_curSlot]
    /** Next overflow slot to examine per level (256 = exhausted). */
    std::array<std::size_t, kOverflowLevels> _scan{};

    std::size_t _size = 0;

    mutable bool _minValid = false;
    mutable Cycle _minCached = 0;

    std::uint64_t _cascades = 0;
    std::uint64_t _cascadedEntries = 0;
    std::uint64_t _maxBucketDepth = 0;
    std::uint64_t _overflowScheduled = 0;
    std::uint64_t _farScheduled = 0;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_SIM_TIMING_WHEEL_HH
