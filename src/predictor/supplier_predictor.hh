/**
 * @file
 * Supplier Predictor interface (paper §3.2, §4.3).
 *
 * One predictor sits in each CMP's ring gateway and answers: "does this
 * CMP hold the requested line in a supplier state (SG, E, D, T)?" The
 * predictor taxonomy drives the Flexible Snooping algorithms:
 *
 *  - Subset   (no false positives, false negatives possible)
 *  - Superset (false positives possible, no false negatives)
 *  - Exact    (neither, at the cost of forced downgrades)
 *  - Perfect  (oracle; consults actual cache state, zero cost)
 *
 * Training events are pushed by the CMP node whenever a line enters or
 * leaves the CMP's supplier set.
 */

#ifndef FLEXSNOOP_PREDICTOR_SUPPLIER_PREDICTOR_HH
#define FLEXSNOOP_PREDICTOR_SUPPLIER_PREDICTOR_HH

#include <cstdint>
#include <string>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace flexsnoop
{

/** Classification of one prediction against ground truth. */
enum class PredictionClass : std::uint8_t
{
    TruePositive,
    TrueNegative,
    FalsePositive,
    FalseNegative,
};

class SupplierPredictor
{
  public:
    explicit SupplierPredictor(std::string name)
        : _stats(std::move(name)),
          _truePositives(_stats.counter("true_positives")),
          _trueNegatives(_stats.counter("true_negatives")),
          _falsePositives(_stats.counter("false_positives")),
          _falseNegatives(_stats.counter("false_negatives"))
    {
    }

    virtual ~SupplierPredictor() = default;

    SupplierPredictor(const SupplierPredictor &) = delete;
    SupplierPredictor &operator=(const SupplierPredictor &) = delete;

    /** Predict whether the CMP can supply @p line. */
    virtual bool predict(Addr line) = 0;

    /** A line entered the CMP's supplier set. */
    virtual void supplierGained(Addr line) = 0;

    /** A line left the CMP's supplier set. */
    virtual void supplierLost(Addr line) = 0;

    /**
     * A positive prediction was contradicted by the actual snoop; lets
     * Superset predictors train their Exclude cache.
     */
    virtual void falsePositive(Addr line) { (void)line; }

    /** Lookup latency in processor cycles (Table 4: 2-3). */
    virtual Cycle accessLatency() const = 0;

    /** True if the structure can mispredict positive (Superset). */
    virtual bool mayFalsePositive() const = 0;

    /** True if the structure can mispredict negative (Subset). */
    virtual bool mayFalseNegative() const = 0;

    /** Storage cost in bits (for reporting against paper Table 4). */
    virtual std::uint64_t storageBits() const = 0;

    /**
     * Classify and count a prediction against the ground truth; returns
     * the classification for the caller's convenience.
     */
    PredictionClass
    recordOutcome(bool predicted, bool actual)
    {
        PredictionClass cls;
        if (predicted && actual) {
            cls = PredictionClass::TruePositive;
            _truePositives.inc();
        } else if (!predicted && !actual) {
            cls = PredictionClass::TrueNegative;
            _trueNegatives.inc();
        } else if (predicted) {
            cls = PredictionClass::FalsePositive;
            _falsePositives.inc();
        } else {
            cls = PredictionClass::FalseNegative;
            _falseNegatives.inc();
        }
        return cls;
    }

    std::uint64_t
    predictions() const
    {
        return _truePositives.value() + _trueNegatives.value() +
               _falsePositives.value() + _falseNegatives.value();
    }

    StatGroup &stats() { return _stats; }
    const StatGroup &stats() const { return _stats; }

  protected:
    StatGroup _stats;
    // Shared hot-path handles for the concrete predictors.
    Counter &_lookups = _stats.counter("lookups");
    Counter &_trains = _stats.counter("trains");
    Counter &_removals = _stats.counter("removals");

  private:
    // Per-gateway-check handles; every ring snoop decision records one.
    Counter &_truePositives;
    Counter &_trueNegatives;
    Counter &_falsePositives;
    Counter &_falseNegatives;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_PREDICTOR_SUPPLIER_PREDICTOR_HH
