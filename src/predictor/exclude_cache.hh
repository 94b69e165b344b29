/**
 * @file
 * Exclude cache (paper §4.3.2, after JETTY).
 *
 * A set-associative cache of line addresses *known not to be* in supplier
 * states in the CMP. It patches the Bloom filter's aliasing: after a
 * false positive is detected (the snoop found nothing), the address is
 * inserted; a later query hitting here is declared negative without
 * consulting the filter outcome. Any line that (re-)enters the supplier
 * set is removed immediately, preserving the no-false-negative property.
 */

#ifndef FLEXSNOOP_PREDICTOR_EXCLUDE_CACHE_HH
#define FLEXSNOOP_PREDICTOR_EXCLUDE_CACHE_HH

#include "mem/set_assoc_array.hh"
#include "sim/types.hh"

namespace flexsnoop
{

class ExcludeCache
{
  public:
    /**
     * @param entries   capacity (512 or 2k in the paper)
     * @param ways      associativity (paper: 8)
     * @param entry_bits bits per entry for storage reporting
     */
    ExcludeCache(std::size_t entries, std::size_t ways,
                 unsigned entry_bits)
        : _array(entries, ways), _entryBits(entry_bits)
    {
    }

    /** Record that @p line is known absent from the supplier set. */
    void insert(Addr line) { _array.insert(lineAddr(line)); }

    /** @p line became a supplier; it must no longer be excluded. */
    void remove(Addr line) { _array.erase(lineAddr(line)); }

    /** True when @p line is recorded as a known non-supplier. */
    bool
    contains(Addr line)
    {
        return _array.lookup(lineAddr(line), true) != nullptr;
    }

    std::size_t occupancy() const { return _array.occupancy(); }

    std::uint64_t
    storageBits() const
    {
        return static_cast<std::uint64_t>(_array.numEntries()) * _entryBits;
    }

  private:
    struct Empty
    {
    };

    SetAssocArray<Empty> _array;
    unsigned _entryBits;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_PREDICTOR_EXCLUDE_CACHE_HH
