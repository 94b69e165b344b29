#include "sim/timing_wheel.hh"

#include <bit>
#include <cassert>
#include <utility>

namespace flexsnoop
{
namespace
{

constexpr std::size_t kNotFound = ~std::size_t{0};

std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

TimingWheel::TimingWheel(std::size_t near_buckets)
{
    configure(near_buckets);
    for (std::size_t l = 0; l < kOverflowLevels; ++l) {
        _over[l].resize(kOverflowSlots);
        _overMap[l].assign(kOverflowSlots / 64, 0);
    }
}

void
TimingWheel::configure(std::size_t near_buckets)
{
    assert(_size == 0 && "wheel must be empty to resize");
    std::size_t n = roundUpPow2(near_buckets);
    if (n < kMinNearBuckets)
        n = kMinNearBuckets;
    if (n > kMaxNearBuckets)
        n = kMaxNearBuckets;
    _nearSize = n;
    _nearMask = n - 1;
    _nearBits = static_cast<unsigned>(std::countr_zero(n));
    _near.assign(n, SlotList{});
    _nearMap.assign(n / 64, 0);
    _w0 = 0;
    _curSlot = 0;
    _scan.fill(kOverflowSlots);
    _minValid = false;
}

std::size_t
TimingWheel::scanFrom(const std::vector<std::uint64_t> &bm,
                      std::size_t from, std::size_t bits)
{
    if (from >= bits)
        return kNotFound;
    std::size_t w = from >> 6;
    std::uint64_t word = bm[w] & (~std::uint64_t{0} << (from & 63));
    while (true) {
        if (word)
            return (w << 6) +
                   static_cast<std::size_t>(std::countr_zero(word));
        if (++w >= bm.size())
            return kNotFound;
        word = bm[w];
    }
}

Cycle
TimingWheel::SlotList::minWhen() const
{
    assert(head);
    Cycle min_when = head->when;
    for (const WheelSlot *s = head->next; s; s = s->next)
        min_when = s->when < min_when ? s->when : min_when;
    return min_when;
}

void
TimingWheel::resetTo(Cycle now)
{
    _w0 = now & ~static_cast<Cycle>(_nearMask);
    _curSlot = static_cast<std::size_t>(now & _nearMask);
    // The overflow bucket containing `now` at each level can never be
    // occupied (any cycle inside it is also inside a lower level's
    // window), so scanning may safely start one past it.
    for (std::size_t l = 1; l <= kOverflowLevels; ++l)
        _scan[l - 1] =
            static_cast<std::size_t>((now >> granShift(l)) &
                                     (kOverflowSlots - 1)) +
            1;
}

std::uint8_t
TimingWheel::place(WheelSlot *slot)
{
    const Cycle when = slot->when;
    assert(when >= _w0 + _curSlot);

    if ((when >> _nearBits) == (_w0 >> _nearBits)) {
        const auto b = static_cast<std::size_t>(when & _nearMask);
        setBit(_nearMap, b);
        _near[b].append(slot);
        return 0;
    }
    for (std::size_t l = 1; l <= kOverflowLevels; ++l) {
        const unsigned g = granShift(l);
        if ((when >> (g + kOverflowBits)) ==
            (_w0 >> (g + kOverflowBits))) {
            const auto b = static_cast<std::size_t>(
                (when >> g) & (kOverflowSlots - 1));
            setBit(_overMap[l - 1], b);
            _over[l - 1][b].append(slot);
            return static_cast<std::uint8_t>(l);
        }
    }
    _far.append(slot);
    return kFarLevel;
}

void
TimingWheel::linkOverflow(WheelSlot *slot)
{
    ++_overflowScheduled;
    if (place(slot) == kFarLevel)
        ++_farScheduled;
}

void
TimingWheel::relinkAll(SlotList list)
{
    ++_cascades;
    // The list is seq-ordered and every bucket it can reach is empty:
    // a cascade runs only once every near bucket from _curSlot on and
    // every lower level has drained, and redistributeFar() only once
    // everything pending is far. So appending keeps each target bucket
    // seq-ordered.
    for (WheelSlot *s = list.head; s;) {
        WheelSlot *next = s->next;
        place(s);
        ++_cascadedEntries;
        s = next;
    }
}

bool
TimingWheel::refillFromOverflow()
{
    for (std::size_t l = 1; l <= kOverflowLevels; ++l) {
        auto &map = _overMap[l - 1];
        const std::size_t s = scanFrom(map, _scan[l - 1],
                                       kOverflowSlots);
        if (s == kNotFound)
            continue;
        _scan[l - 1] = s + 1;

        const unsigned g = granShift(l);
        const Cycle cover = Cycle{1} << (g + kOverflowBits);
        const Cycle level_window = _w0 & ~(cover - 1);
        const Cycle bucket_start =
            level_window + (static_cast<Cycle>(s) << g);

        // Re-anchor every lower level at the bucket's start. The start
        // is aligned to each lower level's window size, so their fresh
        // windows begin at slot 0.
        _w0 = bucket_start;
        _curSlot = 0;
        for (std::size_t j = 1; j < l; ++j)
            _scan[j - 1] = 0;

        clrBit(map, s);
        relinkAll(std::exchange(_over[l - 1][s], SlotList{}));
        return true;
    }
    return false;
}

void
TimingWheel::redistributeFar()
{
    // Everything pending lives in the far list, so the wheel proper is
    // empty and may be re-anchored at the earliest far cycle. At least
    // that slot relinks into the near wheel; stragglers beyond the last
    // level return to the (fresh) far list in their original order.
    resetTo(_far.minWhen());
    relinkAll(std::exchange(_far, SlotList{}));
}

bool
TimingWheel::advanceToPending()
{
    while (!_near[_curSlot].head) {
        const std::size_t s =
            scanFrom(_nearMap, _curSlot + 1, _nearSize);
        if (s != kNotFound) {
            _curSlot = s;
            continue;
        }
        if (refillFromOverflow())
            continue;
        if (!_far.head)
            return false;
        redistributeFar();
    }
    return true;
}

Cycle
TimingWheel::minPending() const
{
    assert(_size > 0);
    if (!_minValid) {
        _minCached = recomputeMin();
        _minValid = true;
    }
    return _minCached;
}

Cycle
TimingWheel::recomputeMin() const
{
    // The current near bucket, if it still holds slots, is by
    // construction the earliest cycle.
    if (_near[_curSlot].head)
        return _w0 + _curSlot;
    std::size_t s = scanFrom(_nearMap, _curSlot + 1, _nearSize);
    if (s != kNotFound)
        return _w0 + s;
    // A non-empty bucket at level L starts at or after the end of every
    // occupied window below it, so the first occupied level wins; its
    // bucket spans a cycle range and must be scanned for the minimum.
    for (std::size_t l = 1; l <= kOverflowLevels; ++l) {
        s = scanFrom(_overMap[l - 1], _scan[l - 1], kOverflowSlots);
        if (s != kNotFound)
            return _over[l - 1][s].minWhen();
    }
    return _far.minWhen();
}

} // namespace flexsnoop
