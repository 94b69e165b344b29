#include "core/machine.hh"

#include <cassert>

#include "predictor/exact_predictor.hh"

namespace flexsnoop
{

Machine::Machine(const MachineConfig &config)
    : _config(config), _energy(config.energy)
{
    assert(config.numCmps >= 2);
    assert(config.torus.columns * config.torus.rows == config.numCmps &&
           "torus shape must cover all CMPs");

    // Size the scheduler's near wheel to this configuration's hot
    // latencies before anything can schedule.
    _queue.configureWheel(config.eventQueueNearBuckets());

    _policy = makePolicy(config.algorithm);
    assert(_policy->predictorKind() == config.predictor.kind &&
           "predictor family does not match the algorithm's requirement");

    _ring = std::make_unique<RingNetwork>(_queue, config.numCmps,
                                          config.numRings, config.ring);
    _data = std::make_unique<DataNetwork>(config.torus);
    _memory =
        std::make_unique<MemoryController>(config.numCmps, config.memory);

    _nodes.reserve(config.numCmps);
    for (NodeId n = 0; n < config.numCmps; ++n) {
        auto node = std::make_unique<CmpNode>(
            n, config.coresPerCmp, config.l2Entries, config.l2Ways);
        CmpNode *raw = node.get();
        node->setCensus(&_census);
        node->setWritebackFn([this](Addr line, bool from_downgrade) {
            _memory->writeback(line);
            if (from_downgrade)
                _energy.record(EnergyEvent::DowngradeWriteback);
        });

        auto predictor = makePredictor(
            config.predictor, "cmp" + std::to_string(n) + ".pred",
            [raw](Addr line) { return raw->hasSupplier(line); });
        if (auto *exact = dynamic_cast<ExactPredictor *>(predictor.get())) {
            exact->setDowngradeFn(
                [raw](Addr line) { raw->downgrade(line); });
        }
        node->setPredictor(std::move(predictor));
        if (config.writeFiltering) {
            node->setPresencePredictor(
                std::make_unique<PresencePredictor>(
                    "cmp" + std::to_string(n) + ".presence",
                    config.presenceBloomFields));
        }
        _nodes.push_back(std::move(node));
    }

    _controller = std::make_unique<CoherenceController>(
        _queue, *_ring, *_data, *_memory, _energy, *_policy, _nodes,
        _census, config.coherence);
    _checker = std::make_unique<CoherenceChecker>(_nodes, _census);

    if (config.topology.hierarchical()) {
        _topology =
            std::make_unique<Topology>(config.numCmps, config.topology);
        _ring->setTopology(_topology.get());

        // Per-level flexible snooping: the global ring may run its own
        // algorithm's action table at the bridges.
        if (!config.topology.globalAlgorithm.empty())
            _globalPolicy = makePolicy(
                algorithmFromName(config.topology.globalAlgorithm));
        SnoopPolicy *gp =
            _globalPolicy ? _globalPolicy.get() : _policy.get();

        // A bridge can skip reads only when the per-level table maps a
        // negative aggregate answer to Forward; Oracle/Exact consult
        // authoritative member state instead of an aggregate Bloom.
        const bool reads_skip =
            gp->usesPredictor() &&
            gp->onPrediction(false) == Primitive::Forward;
        const bool aggregate_reads =
            reads_skip && gp->predictorKind() != PredictorKind::Perfect &&
            gp->predictorKind() != PredictorKind::Exact;
        for (std::size_t b = 0; b < _topology->numBlocks(); ++b) {
            _bridgeSupplier.push_back(
                aggregate_reads
                    ? std::make_unique<PresencePredictor>(
                          "bridge" + std::to_string(b) + ".supplier",
                          config.bridgeBloomFields)
                    : nullptr);
            _bridgePresence.push_back(
                config.writeFiltering
                    ? std::make_unique<PresencePredictor>(
                          "bridge" + std::to_string(b) + ".presence",
                          config.bridgeBloomFields)
                    : nullptr);
        }
        for (NodeId n = 0; n < config.numCmps; ++n) {
            const std::size_t b = _topology->blockOf(n);
            _nodes[n]->setAggregateMirrors(_bridgeSupplier[b].get(),
                                           _bridgePresence[b].get());
        }
        _controller->setTopology(_topology.get(), gp, &_bridgeSupplier,
                                 &_bridgePresence);
    }

    if (config.faults.armed()) {
        _faults = std::make_unique<FaultInjector>(config.faults);
        _faults->setClock(&_queue);
        _ring->setFaultInjector(_faults.get());
        _controller->setFaultInjector(_faults.get());
    }

    if (config.trace.enabled()) {
        _trace = std::make_unique<TraceSink>(config.trace, config.numCmps,
                                             config.numCores());
        _ring->setTraceSink(_trace.get());
        _controller->setTraceSink(_trace.get());
        _trace->setSnapshotFn(
            [this](Cycle) { snapshotCounters(); });
    }

    if (config.metrics.enabled()) {
        _metrics = std::make_unique<MetricsSampler>(
            config.metrics, config.numCmps, config.numCores());
        registerMetricSeries();
        _queue.setSampleHook(
            config.metrics.intervalCycles,
            [](void *ctx, Cycle now) {
                static_cast<MetricsSampler *>(ctx)->sample(now);
            },
            _metrics.get());
    }
}

void
Machine::registerMetricSeries()
{
    MetricsSampler &m = *_metrics;

    // Controller headline counters: cached Counter& handles, one
    // find-or-create here and a plain load per sample.
    StatGroup &cs = _controller->stats();
    static constexpr const char *kCtrlCounters[] = {
        "read_ring_requests", "read_snoops", "read_link_messages",
        "write_ring_requests", "write_snoops", "write_filtered",
        "collisions", "retries", "watchdog_timeouts",
        "stale_messages_absorbed", "predictor_flip_degrades",
        "incomplete_conclusions_rejected", "retry_storm_aborts",
        "read_cache_supplies", "memory_fetches"};
    for (const char *name : kCtrlCounters)
        m.addCounter(std::string("ctrl.") + name, cs.counter(name));

    // In-flight pressure gauges.
    m.addSeries("ctrl.outstanding", SeriesKind::Gauge,
                [this](Cycle) { return _controller->outstanding(); });
    m.addSeries("ctrl.gated_lines", SeriesKind::Gauge,
                [this](Cycle) { return _controller->gatedLines(); });

    // Scheduler self-observation.
    m.addSeries("queue.executed", SeriesKind::Counter,
                [this](Cycle) { return _queue.executed(); });
    m.addSeries("queue.depth", SeriesKind::Gauge,
                [this](Cycle) { return _queue.pending(); });
    m.addSeries("queue.horizon", SeriesKind::Gauge,
                [this](Cycle) { return _queue.horizonAhead(); });

    // Per-ring traffic and instantaneous link occupancy.
    for (std::size_t r = 0; r < _ring->numRings(); ++r) {
        Ring &ring = _ring->ring(r);
        const std::string prefix = "ring" + std::to_string(r);
        m.addSeries(prefix + ".link_traversals", SeriesKind::Counter,
                    [&ring](Cycle) { return ring.linkTraversals(); });
        m.addSeries(prefix + ".busy_links", SeriesKind::Gauge,
                    [&ring](Cycle now) { return ring.busyLinks(now); });
    }
    m.addSeries("net.global_link_traversals", SeriesKind::Counter,
                [this](Cycle) { return globalLinkTraversals(); });

    // Aggregated predictor accuracy (all nodes). hit_rate_ppm is the
    // derived convenience gauge; the two raw counters are what the
    // drift detector differentiates.
    const auto predictions = [this] {
        return predictorTruePositives() + predictorTrueNegatives() +
               predictorFalsePositives() + predictorFalseNegatives();
    };
    const auto correct = [this] {
        return predictorTruePositives() + predictorTrueNegatives();
    };
    m.addSeries("pred.predictions", SeriesKind::Counter,
                [predictions](Cycle) { return predictions(); });
    m.addSeries("pred.correct", SeriesKind::Counter,
                [correct](Cycle) { return correct(); });
    m.addSeries("pred.hit_rate_ppm", SeriesKind::Gauge,
                [predictions, correct](Cycle) -> std::uint64_t {
                    const std::uint64_t total = predictions();
                    return total ? correct() * 1000000 / total : 0;
                });

    if (_topology) {
        m.addSeries("bridge.skips", SeriesKind::Counter, [this](Cycle) {
            return _controller->bridgeSkips();
        });
        m.addSeries("bridge.descends", SeriesKind::Counter,
                    [this](Cycle) { return _controller->bridgeDescends(); });
        m.addSeries("bridge.skip_ratio_ppm", SeriesKind::Gauge,
                    [this](Cycle) -> std::uint64_t {
                        const std::uint64_t skips =
                            _controller->bridgeSkips();
                        const std::uint64_t total =
                            skips + _controller->bridgeDescends();
                        return total ? skips * 1000000 / total : 0;
                    });
    }

    if (_faults) {
        StatGroup &fs = _faults->stats();
        static constexpr const char *kFaultCounters[] = {
            "link_decisions", "drops_injected", "dups_injected",
            "delays_injected", "predictor_lookups", "predictor_flips"};
        for (const char *name : kFaultCounters)
            m.addCounter(std::string("faults.") + name, fs.counter(name));
    }

    m.addCounter("mem.writebacks", _memory->stats().counter("writebacks"));
    m.addSeries("energy.total_nj", SeriesKind::Gauge, [this](Cycle) {
        return static_cast<std::uint64_t>(_energy.totalNj());
    });
}

void
Machine::snapshotCounters()
{
    const auto &s = _controller->stats();
    const Cycle now = _queue.now();
    const auto rec = [&](TraceCounterId id, std::uint64_t value) {
        _trace->record(TraceEvent::CounterSnapshot, now, 0, value, 0,
                       kTraceNoNode, static_cast<std::uint16_t>(id));
    };
    rec(TraceCounterId::ReadRingRequests,
        s.counterValue("read_ring_requests"));
    rec(TraceCounterId::ReadSnoops, s.counterValue("read_snoops"));
    rec(TraceCounterId::ReadLinkMessages,
        s.counterValue("read_link_messages"));
    rec(TraceCounterId::WriteRingRequests,
        s.counterValue("write_ring_requests"));
    rec(TraceCounterId::Collisions, s.counterValue("collisions"));
    rec(TraceCounterId::Retries, s.counterValue("retries"));
    rec(TraceCounterId::WatchdogTimeouts,
        s.counterValue("watchdog_timeouts"));
}

void
Machine::resetStats()
{
    _energy.reset();
    _controller->stats().reset();
    _memory->stats().reset();
    _data->stats().reset();
    if (_faults)
        _faults->stats().reset();
    for (std::size_t r = 0; r < _ring->numRings(); ++r)
        _ring->ring(r).stats().reset();
    for (auto &node : _nodes) {
        node->stats().reset();
        if (node->predictor())
            node->predictor()->stats().reset();
        if (node->presencePredictor())
            node->presencePredictor()->stats().reset();
        for (std::size_t c = 0; c < node->numCores(); ++c)
            node->l2(c).stats().reset();
    }
    for (auto &agg : _bridgeSupplier) {
        if (agg)
            agg->stats().reset();
    }
    for (auto &agg : _bridgePresence) {
        if (agg)
            agg->stats().reset();
    }
}

void
Machine::finalizeEnergy()
{
    std::uint64_t lookups = 0;
    std::uint64_t trainings = 0;
    std::uint64_t downgrade_ops = 0;
    for (const auto &node : _nodes) {
        if (const auto *pred = node->predictor()) {
            lookups += pred->stats().counterValue("lookups");
            trainings += pred->stats().counterValue("trains") +
                         pred->stats().counterValue("removals") +
                         pred->stats().counterValue("exclude_inserts");
        }
        if (const auto *presence = node->presencePredictor()) {
            lookups += presence->stats().counterValue("lookups");
            trainings += presence->stats().counterValue("trains") +
                         presence->stats().counterValue("removals");
        }
        downgrade_ops += node->stats().counterValue("downgrades");
    }
    _energy.record(EnergyEvent::PredictorAccess, lookups);
    _energy.record(EnergyEvent::PredictorTrain, trainings);
    _energy.record(EnergyEvent::DowngradeCacheOp, downgrade_ops);

    // Bridge aggregates (hier topology) are folded into their own
    // categories: their longer-reach SRAMs cost more per access.
    std::uint64_t bridge_lookups = 0;
    std::uint64_t bridge_trains = 0;
    const auto fold = [&](const auto &aggs) {
        for (const auto &agg : aggs) {
            if (!agg)
                continue;
            bridge_lookups += agg->stats().counterValue("lookups");
            bridge_trains += agg->stats().counterValue("trains") +
                             agg->stats().counterValue("removals");
        }
    };
    fold(_bridgeSupplier);
    fold(_bridgePresence);
    _energy.record(EnergyEvent::BridgePredictorAccess, bridge_lookups);
    _energy.record(EnergyEvent::BridgePredictorTrain, bridge_trains);
}

std::uint64_t
Machine::sumPredictorCounter(const std::string &name) const
{
    std::uint64_t total = 0;
    for (const auto &node : _nodes) {
        if (const auto *pred = node->predictor())
            total += pred->stats().counterValue(name);
    }
    return total;
}

std::uint64_t
Machine::predictorTruePositives() const
{
    return sumPredictorCounter("true_positives");
}

std::uint64_t
Machine::predictorTrueNegatives() const
{
    return sumPredictorCounter("true_negatives");
}

std::uint64_t
Machine::predictorFalsePositives() const
{
    return sumPredictorCounter("false_positives");
}

std::uint64_t
Machine::predictorFalseNegatives() const
{
    return sumPredictorCounter("false_negatives");
}

std::uint64_t
Machine::downgrades() const
{
    std::uint64_t total = 0;
    for (const auto &node : _nodes)
        total += node->stats().counterValue("downgrades");
    return total;
}

} // namespace flexsnoop
