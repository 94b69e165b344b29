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
    _near.clear();
    _near.resize(n);
    _nearMap.assign(n / 64, 0);
    _w0 = 0;
    _curSlot = 0;
    _head = 0;
    _scan.fill(kOverflowSlots);
    _minValid = false;
}

void
TimingWheel::setBit(std::vector<std::uint64_t> &bm, std::size_t i)
{
    bm[i >> 6] |= std::uint64_t{1} << (i & 63);
}

void
TimingWheel::clrBit(std::vector<std::uint64_t> &bm, std::size_t i)
{
    bm[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
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

void
TimingWheel::resetTo(Cycle now)
{
    assert(_size == 0);
    _w0 = now & ~static_cast<Cycle>(_nearMask);
    _curSlot = static_cast<std::size_t>(now & _nearMask);
    _head = 0;
    // The overflow bucket containing `now` at each level can never be
    // occupied (any cycle inside it is also inside a lower level's
    // window), so scanning may safely start one past it.
    for (std::size_t l = 1; l <= kOverflowLevels; ++l)
        _scan[l - 1] =
            static_cast<std::size_t>((now >> granShift(l)) &
                                     (kOverflowSlots - 1)) +
            1;
}

void
TimingWheel::insertSorted(Bucket &bucket, std::uint8_t level,
                          std::size_t slot, WheelEntry &&entry)
{
    if (level == 0)
        setBit(_nearMap, slot);
    else if (level != kFarLevel)
        setBit(_overMap[level - 1], slot);

    // Fresh inserts carry the newest seq and append; a cascade re-files
    // older seqs, which walk back from the tail.
    std::size_t pos = bucket.size();
    while (pos > 0 && bucket[pos - 1].seq > entry.seq)
        --pos;
    if (pos == bucket.size())
        bucket.push_back(std::move(entry));
    else
        bucket.insert(bucket.begin() + pos, std::move(entry));
    if (bucket.size() > _maxBucketDepth)
        _maxBucketDepth = bucket.size();
}

std::uint8_t
TimingWheel::place(WheelEntry &&entry)
{
    const Cycle when = entry.when;
    assert(when >= _w0 + _curSlot);

    if ((when >> _nearBits) == (_w0 >> _nearBits)) {
        const auto slot = static_cast<std::size_t>(when & _nearMask);
        insertSorted(_near[slot], 0, slot, std::move(entry));
        return 0;
    }
    for (std::size_t l = 1; l <= kOverflowLevels; ++l) {
        const unsigned g = granShift(l);
        if ((when >> (g + kOverflowBits)) ==
            (_w0 >> (g + kOverflowBits))) {
            const auto slot = static_cast<std::size_t>(
                (when >> g) & (kOverflowSlots - 1));
            insertSorted(_over[l - 1][slot],
                         static_cast<std::uint8_t>(l), slot,
                         std::move(entry));
            return static_cast<std::uint8_t>(l);
        }
    }
    insertSorted(_far, kFarLevel, 0, std::move(entry));
    return kFarLevel;
}

void
TimingWheel::insert(Cycle now, WheelEntry entry)
{
    assert(entry.when >= now);
    if (_size == 0) {
        resetTo(now);
        _minCached = entry.when;
        _minValid = true;
    } else if (_minValid && entry.when < _minCached) {
        _minCached = entry.when;
    }
    const std::uint8_t level = place(std::move(entry));
    if (level != 0) {
        ++_overflowScheduled;
        if (level == kFarLevel)
            ++_farScheduled;
    }
    ++_size;
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
        _head = 0;
        for (std::size_t j = 1; j < l; ++j)
            _scan[j - 1] = 0;

        Bucket moved;
        moved.swap(_over[l - 1][s]);
        clrBit(map, s);
        ++_cascades;
        _cascadedEntries += moved.size();
        // Entries are seq-sorted, so each target bucket receives an
        // in-order (appending) run.
        for (auto &e : moved)
            place(std::move(e));
        moved.clear();
        _over[l - 1][s] = std::move(moved); // hand the capacity back
        return true;
    }
    return false;
}

void
TimingWheel::redistributeFar()
{
    assert(!_far.empty());
    Cycle min_when = _far.front().when;
    for (const WheelEntry &e : _far)
        min_when = e.when < min_when ? e.when : min_when;

    Bucket old;
    old.swap(_far);
    // Everything pending lives in `old`, so the wheel proper is empty
    // and may be re-anchored at the earliest far cycle. At least that
    // entry re-files into the near wheel; stragglers beyond the last
    // level return to the (fresh) far list in their original order.
    _w0 = min_when & ~static_cast<Cycle>(_nearMask);
    _curSlot = static_cast<std::size_t>(min_when & _nearMask);
    _head = 0;
    for (std::size_t l = 1; l <= kOverflowLevels; ++l)
        _scan[l - 1] =
            static_cast<std::size_t>((min_when >> granShift(l)) &
                                     (kOverflowSlots - 1)) +
            1;
    ++_cascades;
    _cascadedEntries += old.size();
    for (auto &e : old)
        place(std::move(e));
}

bool
TimingWheel::advanceToPending()
{
    while (true) {
        Bucket &bucket = _near[_curSlot];
        if (_head < bucket.size())
            return true;
        bucket.clear();
        clrBit(_nearMap, _curSlot);
        _head = 0;

        const std::size_t s =
            scanFrom(_nearMap, _curSlot + 1, _nearSize);
        if (s != kNotFound) {
            _curSlot = s;
            continue;
        }
        if (refillFromOverflow())
            continue;
        if (_far.empty())
            return false;
        redistributeFar();
    }
}

WheelEntry
TimingWheel::pop()
{
    assert(_size > 0);
    const bool ok = advanceToPending();
    assert(ok);
    (void)ok;

    Bucket &bucket = _near[_curSlot];
    WheelEntry entry = std::move(bucket[_head]);
    assert(entry.when == _w0 + _curSlot);
    ++_head;
    --_size;
    if (_head < bucket.size()) {
        _minCached = entry.when;
        _minValid = true;
    } else {
        // Retire the drained bucket eagerly so an empty wheel is also
        // structurally empty (resetTo() and re-anchoring rely on it)
        // and consumed callables are destroyed promptly.
        bucket.clear();
        clrBit(_nearMap, _curSlot);
        _head = 0;
        _minValid = false;
    }
    return entry;
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
    // The current near bucket, if it still holds unconsumed entries,
    // is by construction the earliest cycle.
    if (_head < _near[_curSlot].size())
        return _w0 + _curSlot;
    std::size_t s = scanFrom(_nearMap, _curSlot + 1, _nearSize);
    if (s != kNotFound)
        return _w0 + s;
    // A non-empty bucket at level L starts at or after the end of every
    // occupied window below it, so the first occupied level wins; its
    // bucket spans a cycle range and must be scanned for the minimum.
    for (std::size_t l = 1; l <= kOverflowLevels; ++l) {
        s = scanFrom(_overMap[l - 1], _scan[l - 1], kOverflowSlots);
        if (s == kNotFound)
            continue;
        const Bucket &bucket = _over[l - 1][s];
        assert(!bucket.empty());
        Cycle min_when = bucket.front().when;
        for (const WheelEntry &e : bucket)
            min_when = e.when < min_when ? e.when : min_when;
        return min_when;
    }
    assert(!_far.empty());
    Cycle min_when = _far.front().when;
    for (const WheelEntry &e : _far)
        min_when = e.when < min_when ? e.when : min_when;
    return min_when;
}

void
TimingWheel::clear()
{
    for (Bucket &b : _near)
        b.clear();
    for (auto &level : _over)
        for (Bucket &b : level)
            b.clear();
    _far.clear();
    _nearMap.assign(_nearMap.size(), 0);
    for (auto &map : _overMap)
        map.assign(map.size(), 0);
    _size = 0;
    _head = 0;
    _curSlot = 0;
    _w0 = 0;
    _scan.fill(kOverflowSlots);
    _minValid = false;
}

} // namespace flexsnoop
