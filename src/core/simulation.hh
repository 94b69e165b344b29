/**
 * @file
 * One-call simulation API: run a workload trace set on a machine
 * configuration and collect every metric the paper's evaluation uses.
 */

#ifndef FLEXSNOOP_CORE_SIMULATION_HH
#define FLEXSNOOP_CORE_SIMULATION_HH

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>

#include "core/machine.hh"
#include "workload/core_model.hh"
#include "workload/trace.hh"

namespace flexsnoop
{

/** All figures-of-merit of one simulation run (measured phase only). */
struct RunResult
{
    std::string workload;
    std::string algorithm;
    std::string predictor;

    Cycle execCycles = 0;       ///< measured-phase duration

    // Figure 6: snoop operations per read snoop request.
    std::uint64_t readRingRequests = 0;
    std::uint64_t readSnoops = 0;
    double snoopsPerReadRequest = 0.0;

    // Figure 7: read snoop messages on the ring (link traversals).
    std::uint64_t readLinkMessages = 0;
    double readLinkMessagesPerRequest = 0.0;

    // Figure 9: snoop-related energy.
    double energyNj = 0.0;
    double ringEnergyNj = 0.0;
    double snoopEnergyNj = 0.0;
    double predictorEnergyNj = 0.0;
    double downgradeEnergyNj = 0.0;

    // Figure 11: supplier-predictor accuracy.
    std::uint64_t truePositives = 0;
    std::uint64_t trueNegatives = 0;
    std::uint64_t falsePositives = 0;
    std::uint64_t falseNegatives = 0;

    // Write-side detail (incl. the write-filtering extension).
    std::uint64_t writeRingRequests = 0;
    std::uint64_t writeSnoops = 0;
    std::uint64_t writeFiltered = 0;

    // Hierarchical topology (docs/TOPOLOGY.md); all zero on a flat or
    // degenerate (local_rings=1) ring, so flat results compare equal.
    std::uint64_t bridgeSkips = 0;     ///< whole blocks skipped at bridges
    std::uint64_t bridgeDescends = 0;  ///< bridge decisions to enter block
    std::uint64_t globalLinkMessages = 0;  ///< global-ring link traversals

    // Supporting detail.
    std::uint64_t cacheSupplies = 0;  ///< reads answered by a remote cache
    std::uint64_t memoryFetches = 0;  ///< reads/writes answered by memory
    std::uint64_t downgrades = 0;     ///< Exact forced downgrades
    std::uint64_t collisions = 0;
    std::uint64_t retries = 0;
    std::uint64_t writebacks = 0;
    double avgReadLatency = 0.0;      ///< cycles, ring transactions only
    double p50ReadLatency = 0.0;
    double p95ReadLatency = 0.0;

    // Fault injection & recovery (docs/FAULTS.md); all zero when the
    // machine runs without a fault injector.
    std::uint64_t faultLinkDecisions = 0;  ///< link sends the injector saw
    std::uint64_t faultDrops = 0;
    std::uint64_t faultDups = 0;
    std::uint64_t faultDelays = 0;
    std::uint64_t faultPredictorFlips = 0;
    std::uint64_t watchdogTimeouts = 0;
    std::uint64_t staleMessagesAbsorbed = 0;
    std::uint64_t predictorFlipDegrades = 0;
    std::uint64_t incompleteConclusionsRejected = 0;
    std::uint64_t retryStormAborts = 0;

    // Sweep bookkeeping (runCells, core/experiment.hh): a cell whose
    // run threw is recorded as failed instead of killing the sweep;
    // `error` carries the exception message.
    bool failed = false;
    std::string error;

    std::uint64_t
    predictions() const
    {
        return truePositives + trueNegatives + falsePositives +
               falseNegatives;
    }

    void dump(std::ostream &os) const;

    /** Every field, doubles compared exactly: equivalent runs perform
     *  identical arithmetic on identical counters. */
    bool operator==(const RunResult &) const = default;
};

/**
 * A simulation lost liveness: the event queue drained with unfinished
 * cores/transactions (deadlock), the progress monitor saw no forward
 * progress for a whole check interval (livelock), or the wall-clock
 * budget was exceeded. stuckDump() carries the full state of every
 * stuck core and in-flight transaction for post-mortem.
 */
class SimulationStuckError : public std::runtime_error
{
  public:
    /** Which guard fired (the sweep log reports them differently). */
    enum class Kind
    {
        Stuck,   ///< deadlock or livelock
        Timeout, ///< wall-clock budget exceeded
    };

    SimulationStuckError(const std::string &what, std::string dump,
                         Kind kind = Kind::Stuck)
        : std::runtime_error(what), _dump(std::move(dump)), _kind(kind)
    {
    }

    const std::string &stuckDump() const { return _dump; }
    Kind kind() const { return _kind; }

  private:
    std::string _dump;
    Kind _kind;
};

/**
 * Run @p traces on a machine built from @p config.
 *
 * Statistics and energy are reset at the warmup barrier; everything in
 * the result covers the measured phase only. The machine is checked for
 * coherence-invariant violations after the run; violations throw
 * std::runtime_error in every build type.
 *
 * @param workload_name label recorded in the result
 */
RunResult runSimulation(const MachineConfig &config,
                        const CoreTraces &traces,
                        const std::string &workload_name);

} // namespace flexsnoop

#endif // FLEXSNOOP_CORE_SIMULATION_HH
