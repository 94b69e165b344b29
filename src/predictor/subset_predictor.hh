/**
 * @file
 * Subset Supplier Predictor (paper §4.3.1).
 *
 * A set-associative cache of addresses known to be in supplier states in
 * the CMP. Capacity conflicts silently drop addresses, so the content is
 * a strict subset of the true supplier set: no false positives, possible
 * false negatives.
 */

#ifndef FLEXSNOOP_PREDICTOR_SUBSET_PREDICTOR_HH
#define FLEXSNOOP_PREDICTOR_SUBSET_PREDICTOR_HH

#include "mem/set_assoc_array.hh"
#include "predictor/supplier_predictor.hh"

namespace flexsnoop
{

class SubsetPredictor : public SupplierPredictor
{
  public:
    /**
     * @param entries   predictor cache entries (512 / 2k / 8k in paper)
     * @param ways      associativity (paper: 8)
     * @param entry_bits bits per entry for storage reporting (20/18/16)
     * @param latency   access latency in cycles
     */
    SubsetPredictor(const std::string &name, std::size_t entries,
                    std::size_t ways, unsigned entry_bits, Cycle latency);

    bool predict(Addr line) override;
    void supplierGained(Addr line) override;
    void supplierLost(Addr line) override;

    Cycle accessLatency() const override { return _latency; }
    bool mayFalsePositive() const override { return false; }
    bool mayFalseNegative() const override { return true; }
    std::uint64_t storageBits() const override
    {
        return static_cast<std::uint64_t>(_array.numEntries()) * _entryBits;
    }

    std::size_t occupancy() const { return _array.occupancy(); }

    /** Test hook: is @p line currently tracked? */
    bool contains(Addr line) const
    {
        return _array.lookup(lineAddr(line)) != nullptr;
    }

  private:
    struct Empty
    {
    };

    SetAssocArray<Empty> _array;
    unsigned _entryBits;
    Cycle _latency;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_PREDICTOR_SUBSET_PREDICTOR_HH
