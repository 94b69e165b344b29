/**
 * @file
 * Exact Supplier Predictor (paper §4.3.3).
 *
 * Same structure as the Subset predictor, but conflict evictions are not
 * allowed to create false negatives: when a valid entry is displaced, the
 * predictor *forces a downgrade* of the corresponding line in the CMP
 * (SG/E -> SL silently; D/T -> written back to memory and kept in SL).
 * The tracked set therefore always equals the true supplier set.
 *
 * The downgrade is performed by the owning CMP through the callback; it
 * is the source of Exact's performance and energy pathologies in the
 * paper (extra writebacks, more reads served by memory).
 */

#ifndef FLEXSNOOP_PREDICTOR_EXACT_PREDICTOR_HH
#define FLEXSNOOP_PREDICTOR_EXACT_PREDICTOR_HH

#include <functional>

#include "mem/set_assoc_array.hh"
#include "predictor/supplier_predictor.hh"

namespace flexsnoop
{

class ExactPredictor : public SupplierPredictor
{
  public:
    /**
     * Downgrade request: the CMP must demote @p line from its supplier
     * state (and call supplierLost back, which is a no-op by then).
     */
    using DowngradeFn = std::function<void(Addr line)>;

    ExactPredictor(const std::string &name, std::size_t entries,
                   std::size_t ways, unsigned entry_bits, Cycle latency);

    void setDowngradeFn(DowngradeFn fn) { _downgrade = std::move(fn); }

    bool predict(Addr line) override;
    void supplierGained(Addr line) override;
    void supplierLost(Addr line) override;

    Cycle accessLatency() const override { return _latency; }
    bool mayFalsePositive() const override { return false; }
    bool mayFalseNegative() const override { return false; }
    std::uint64_t storageBits() const override
    {
        return static_cast<std::uint64_t>(_array.numEntries()) * _entryBits;
    }

    std::size_t occupancy() const { return _array.occupancy(); }
    std::uint64_t downgrades() const
    {
        return _stats.counterValue("forced_downgrades");
    }

  private:
    struct Empty
    {
    };

    SetAssocArray<Empty> _array;
    unsigned _entryBits;
    Cycle _latency;
    DowngradeFn _downgrade;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_PREDICTOR_EXACT_PREDICTOR_HH
