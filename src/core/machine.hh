/**
 * @file
 * The assembled machine: event queue, ring network, data network,
 * memory, CMP nodes with predictors, the snooping policy, and the
 * coherence controller, wired per a MachineConfig.
 *
 * This is the main entry point of the library together with
 * Simulation (simulation.hh), which drives workloads through it.
 */

#ifndef FLEXSNOOP_CORE_MACHINE_HH
#define FLEXSNOOP_CORE_MACHINE_HH

#include <memory>
#include <vector>

#include "coherence/checker.hh"
#include "coherence/controller.hh"
#include "core/machine_config.hh"

namespace flexsnoop
{

class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    const MachineConfig &config() const { return _config; }

    EventQueue &queue() { return _queue; }
    RingNetwork &ring() { return *_ring; }
    DataNetwork &dataNetwork() { return *_data; }
    MemoryController &memory() { return *_memory; }
    EnergyModel &energy() { return _energy; }
    SnoopPolicy &policy() { return *_policy; }
    CoherenceController &controller() { return *_controller; }
    CmpNode &node(NodeId n) { return *_nodes[n]; }
    std::size_t numNodes() const { return _nodes.size(); }
    const CoherenceChecker &checker() const { return *_checker; }

    /** Fault injector, or nullptr when config().faults is disarmed. */
    FaultInjector *faultInjector() { return _faults.get(); }
    const FaultInjector *faultInjector() const { return _faults.get(); }

    /** Trace sink, or nullptr when config().trace is disabled. */
    TraceSink *traceSink() { return _trace.get(); }
    const TraceSink *traceSink() const { return _trace.get(); }

    /** Metrics sampler, or nullptr when config().metrics is disabled. */
    MetricsSampler *metricsSampler() { return _metrics.get(); }
    const MetricsSampler *metricsSampler() const { return _metrics.get(); }

    /** Hierarchy geometry, or nullptr when the topology is flat (a
     *  degenerate hier config -- one local ring -- is also flat). */
    const Topology *topology() const { return _topology.get(); }

    /** Messages that traversed a global-ring link (zero when flat). */
    std::uint64_t globalLinkTraversals() const
    {
        return _ring->globalLinkTraversals();
    }

    /** Bridge aggregate predictors of @p block; null when that level
     *  cannot skip (reads) / write filtering is off (presence). */
    PresencePredictor *bridgeSupplierAggregate(std::size_t block)
    {
        return block < _bridgeSupplier.size()
                   ? _bridgeSupplier[block].get()
                   : nullptr;
    }
    PresencePredictor *bridgePresenceAggregate(std::size_t block)
    {
        return block < _bridgePresence.size()
                   ? _bridgePresence[block].get()
                   : nullptr;
    }

    /**
     * Reset all statistics and the energy account (used at the warmup
     * barrier so only the measured phase is reported).
     */
    void resetStats();

    /**
     * Fold end-of-run event counts that are accounted from statistics
     * (predictor lookups/training, downgrade cache ops) into the energy
     * model. Call once, after the run.
     */
    void finalizeEnergy();

    // Aggregated predictor accuracy over all nodes -----------------------
    std::uint64_t predictorTruePositives() const;
    std::uint64_t predictorTrueNegatives() const;
    std::uint64_t predictorFalsePositives() const;
    std::uint64_t predictorFalseNegatives() const;

    /** Total forced downgrades (Exact algorithm) over all nodes. */
    std::uint64_t downgrades() const;

  private:
    std::uint64_t sumPredictorCounter(const std::string &name) const;

    /** CounterSnapshot hook: sample the controller's headline counters
     *  into the trace (piggybacked on record(), never on the queue).
     *  Stamped with the queue's current cycle, when the counters are
     *  read: the triggering record may carry a later one (a Hop's link
     *  start cycle waits out a busy link). */
    void snapshotCounters();

    /** Register the standard series set on _metrics (docs/TELEMETRY.md)
     *  and arm the queue's sampling hook. */
    void registerMetricSeries();

    MachineConfig _config;
    EventQueue _queue;
    EnergyModel _energy;
    std::unique_ptr<SnoopPolicy> _policy;
    std::unique_ptr<RingNetwork> _ring;
    std::unique_ptr<DataNetwork> _data;
    std::unique_ptr<MemoryController> _memory;
    /** Machine-wide per-line census every node reports to; declared
     *  before the nodes so it outlives them. */
    LineCensus _census;
    std::vector<std::unique_ptr<CmpNode>> _nodes;
    std::unique_ptr<CoherenceController> _controller;
    std::unique_ptr<CoherenceChecker> _checker;
    std::unique_ptr<FaultInjector> _faults; ///< null when disarmed
    std::unique_ptr<TraceSink> _trace;      ///< null when tracing is off
    std::unique_ptr<MetricsSampler> _metrics; ///< null when sampling is off

    // Hierarchical topology (docs/TOPOLOGY.md); all empty when flat.
    std::unique_ptr<Topology> _topology;
    /** Per-level action table when topology.globalAlgorithm differs
     *  from the node algorithm; null = bridges use _policy. */
    std::unique_ptr<SnoopPolicy> _globalPolicy;
    /** Per-block bridge aggregates (entries may be null). */
    std::vector<std::unique_ptr<PresencePredictor>> _bridgeSupplier;
    std::vector<std::unique_ptr<PresencePredictor>> _bridgePresence;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_CORE_MACHINE_HH
