/**
 * @file
 * Counting Bloom filter (paper §4.3.2, after JETTY).
 *
 * The line address is broken into P bit-fields; each field indexes a
 * separate table of counters. Insert increments the P counters, remove
 * decrements them, and a query is positive only when all P counters are
 * non-zero. Aliasing can produce false positives; with balanced
 * insert/remove calls there are never false negatives.
 *
 * Storage is split by access pattern, mirroring the "16-bit counter +
 * zero bit" entry of paper Table 4:
 *  - queries read a packed one-bit-per-entry zero bitmap (each field's
 *    region starts on its own cache line, one contiguous allocation);
 *  - the 16-bit counters live in a cold array touched only by
 *    insert/remove, which maintain bit == (counter != 0) per entry.
 *
 * Counters saturate stickily at 0xFFFF: a saturated entry is never
 * decremented again (its true count is unknowable), so its zero bit
 * stays set forever — conservative, preserving the no-false-negative
 * property. Underflowing removes assert in Debug and clamp in Release.
 *
 * Paper configurations:
 *  - "y" filter: fields of 10, 4 and 7 bits (2.5 KB)
 *  - "n" filter: fields of 9, 9 and 6 bits (2.3 KB)
 */

#ifndef FLEXSNOOP_PREDICTOR_BLOOM_FILTER_HH
#define FLEXSNOOP_PREDICTOR_BLOOM_FILTER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace flexsnoop
{

class CountingBloomFilter
{
  public:
    /** Most fields a filter supports (paper configs use 3). */
    static constexpr unsigned kMaxFields = 4;
    /** Sticky saturation ceiling of one 16-bit counter. */
    static constexpr std::uint16_t kCounterMax = 0xFFFF;

    /**
     * @param field_bits widths of the consecutive index fields, applied
     *                   to the line index starting at bit 0
     */
    explicit CountingBloomFilter(std::vector<unsigned> field_bits);

    /** Number of fields / tables. */
    std::size_t numFields() const { return _numFields; }

    /** Add one line to the tracked multiset. */
    void insert(Addr line);

    /**
     * Remove one line previously inserted. Counters must never
     * underflow; the caller guarantees insert/remove balance.
     */
    void remove(Addr line);

    /** True when the line *may* be present (all counters non-zero). */
    bool
    mayContain(Addr line) const
    {
        std::uint32_t sig[kMaxFields];
        fillSignature(line, sig);
        return mayContain(sig);
    }

    /**
     * The line's global bitmap-entry indices (one per field). @p out
     * must hold kMaxFields slots. @return the field count. All filters
     * built with the same field widths share geometry, so indices
     * filled here are valid against any of them.
     */
    unsigned
    fillSignature(Addr line, std::uint32_t *out) const
    {
        const std::uint64_t idx = lineIndex(line);
        for (unsigned f = 0; f < _numFields; ++f) {
            const FieldGeom &g = _geom[f];
            out[f] = g.entryBase +
                     static_cast<std::uint32_t>((idx >> g.shift) & g.mask);
        }
        return _numFields;
    }

    /**
     * Query with precomputed indices: pure indexed loads into the
     * packed zero bitmap, which every hop's probe ends in. Never
     * touches the counters. Branchless on purpose: ANDing the field
     * bits costs at most two extra L1 loads, while an early-exit loop
     * costs a data-dependent mispredict on nearly every probe.
     */
    bool
    mayContain(const std::uint32_t *sig) const
    {
        std::uint64_t hit = 1;
        for (unsigned f = 0; f < _numFields; ++f) {
            const std::uint32_t e = sig[f];
            hit &= _bitmap[e >> 6] >> (e & 63);
        }
        return hit & 1;
    }

    /** Number of elements currently inserted. */
    std::uint64_t population() const { return _population; }

    /** Storage in bits: 16-bit counter + zero bit per entry (Table 4). */
    std::uint64_t storageBits() const;

    /** Reset all counters. */
    void clear();

    /**
     * Full consistency audit: every entry's zero bit equals
     * (counter != 0). The per-mutation Debug asserts check only the
     * touched entries; tests call this after randomized storms.
     */
    bool crossCheckConsistent() const;

    /** Raw counter value of entry @p idx of field @p field (tests). */
    std::uint16_t
    counterValue(std::size_t field, std::size_t idx) const
    {
        return _counters[_geom[field].counterBase + idx];
    }

  private:
    struct FieldGeom
    {
        unsigned shift = 0;       ///< first line-index bit of this field
        unsigned bits = 0;
        std::uint32_t mask = 0;   ///< (1 << bits) - 1
        std::uint32_t entryBase = 0;   ///< bit offset into _bitmap
        std::uint32_t counterBase = 0; ///< offset into _counters
    };

    bool
    bitAt(std::uint32_t entry) const
    {
        return (_bitmap[entry >> 6] >> (entry & 63)) & 1;
    }

    void setBit(std::uint32_t entry)
    {
        _bitmap[entry >> 6] |= std::uint64_t{1} << (entry & 63);
    }

    void clearBit(std::uint32_t entry)
    {
        _bitmap[entry >> 6] &= ~(std::uint64_t{1} << (entry & 63));
    }

    std::array<FieldGeom, kMaxFields> _geom{};
    unsigned _numFields = 0;

    /** Hot: packed zero bits, one contiguous allocation, every field's
     *  region aligned to a 64-byte cache line (512 bits). */
    std::vector<std::uint64_t> _bitmap;
    /** Cold: 16-bit counters, touched only by insert/remove. */
    std::vector<std::uint16_t> _counters;
    std::uint64_t _population = 0;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_PREDICTOR_BLOOM_FILTER_HH
