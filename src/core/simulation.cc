#include "core/simulation.hh"

#include <cassert>
#include <chrono>
#include <functional>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "sim/fault_injector.hh"
#include "sim/log.hh"

namespace flexsnoop
{

namespace
{

/** Full liveness post-mortem: every unfinished core, its in-flight
 *  lines, and the controller's transaction/gateway state. */
std::string
describeStuckState(Machine &machine, WorkloadRunner &runner)
{
    std::ostringstream os;
    os << "stuck at cycle " << machine.queue().now() << "\n";
    for (std::size_t c = 0; c < runner.numCores(); ++c) {
        TraceCore &core = runner.core(c);
        if (core.done())
            continue;
        os << "core " << core.id() << ": issued " << core.refsIssued()
           << ", outstanding " << core.outstanding()
           << (core.atBarrier() ? ", at warmup barrier" : "") << "\n";
        core.inFlight().forEach([&os](Addr line, unsigned count) {
            os << "  awaiting line 0x" << std::hex << line << std::dec
               << " x" << count << "\n";
        });
    }
    machine.controller().dumpOutstanding(os);
    // The telemetry lead-up: how the machine got here, not just the
    // frozen state (satellite of docs/TELEMETRY.md).
    if (const MetricsSampler *metrics = machine.metricsSampler())
        metrics->dumpRecent(os, 8);
    return os.str();
}

/** Sum of references issued and completed over all cores: strictly
 *  increases while the workload moves, frozen in deadlock *and* in
 *  livelock (endless squash/retry completes nothing). */
std::uint64_t
progressMetric(WorkloadRunner &runner)
{
    std::uint64_t progress = 0;
    for (std::size_t c = 0; c < runner.numCores(); ++c) {
        TraceCore &core = runner.core(c);
        progress += core.refsIssued() +
                    core.stats().counterValue("completions");
    }
    return progress;
}

} // namespace

void
RunResult::dump(std::ostream &os) const
{
    os << workload << " / " << algorithm << " (" << predictor << ")\n"
       << "  exec cycles          " << execCycles << '\n'
       << "  read ring requests   " << readRingRequests << '\n'
       << "  snoops/request       " << std::fixed << std::setprecision(2)
       << snoopsPerReadRequest << '\n'
       << "  link msgs/request    " << readLinkMessagesPerRequest << '\n'
       << "  energy (uJ)          " << energyNj / 1e3 << '\n'
       << "  cache supplies       " << cacheSupplies << '\n'
       << "  memory fetches       " << memoryFetches << '\n'
       << "  avg read latency     " << avgReadLatency << '\n';
    if (bridgeSkips + bridgeDescends + globalLinkMessages > 0) {
        os << "  bridge skip/descend  " << bridgeSkips << " / "
           << bridgeDescends << '\n'
           << "  global link msgs     " << globalLinkMessages << '\n';
    }
    if (predictions() > 0) {
        const double n = static_cast<double>(predictions());
        os << "  predictor TP/TN/FP/FN  " << truePositives / n << " / "
           << trueNegatives / n << " / " << falsePositives / n << " / "
           << falseNegatives / n << '\n';
    }
    if (faultLinkDecisions > 0) {
        os << "  faults drop/dup/delay  " << faultDrops << " / "
           << faultDups << " / " << faultDelays << " (of "
           << faultLinkDecisions << " link sends)\n"
           << "  predictor flips        " << faultPredictorFlips
           << " (degrades " << predictorFlipDegrades << ")\n"
           << "  watchdog timeouts      " << watchdogTimeouts << '\n'
           << "  stale msgs absorbed    " << staleMessagesAbsorbed << '\n'
           << "  incomplete rejected    "
           << incompleteConclusionsRejected << '\n';
    }
    if (failed)
        os << "  FAILED: " << error << '\n';
    os.unsetf(std::ios::fixed);
}

RunResult
runSimulation(const MachineConfig &config, const CoreTraces &traces,
              const std::string &workload_name)
{
    assert(traces.numCores() == config.numCores() &&
           "trace core count must match the machine");

    Machine machine(config);
    WorkloadRunner runner(machine.queue(), machine.controller(), traces,
                          config.core);
    runner.setWarmupDoneFn([&machine]() {
        machine.resetStats();
        if (TraceSink *trace = machine.traceSink())
            trace->record(TraceEvent::MeasureStart, machine.queue().now(),
                          0, 0);
        if (MetricsSampler *metrics = machine.metricsSampler())
            metrics->markMeasureStart(machine.queue().now());
    });

    // Liveness guards (docs/FAULTS.md): armed whenever faults are on or
    // a guard is configured explicitly. They run between bounded chunks
    // of the event queue and schedule no event, so a guarded run ends
    // at the same cycle, with the same results, as a plain one.
    Cycle step = EventQueue::kNoEvent;
    std::function<void()> guard;
    if (config.faults.armed() || config.guards.progressCheckCycles > 0 ||
        config.guards.wallClockLimitSec > 0) {
        step = config.guards.progressCheckCycles > 0
                   ? config.guards.progressCheckCycles
                   : Cycle{1'000'000};
        const double wall_limit = config.guards.wallClockLimitSec;
        const auto wall_start = std::chrono::steady_clock::now();
        guard = [&machine, &runner, step, wall_limit, wall_start,
                 last = progressMetric(runner)]() mutable {
            if (runner.allDone() &&
                machine.controller().outstanding() == 0)
                return; // finished; only stale timers are left to drain
            if (wall_limit > 0) {
                const double sec =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
                if (sec > wall_limit) {
                    std::ostringstream oss;
                    oss << "simulation exceeded wall-clock limit ("
                        << wall_limit << " s)";
                    throw SimulationStuckError(
                        oss.str(), describeStuckState(machine, runner),
                        SimulationStuckError::Kind::Timeout);
                }
            }
            const std::uint64_t now_progress = progressMetric(runner);
            if (now_progress == last) {
                std::ostringstream oss;
                oss << "no forward progress for " << step
                    << " cycles (deadlock or livelock)";
                throw SimulationStuckError(
                    oss.str(), describeStuckState(machine, runner));
            }
            last = now_progress;
        };
    }

    const Cycle measured = runner.run(step, guard);

    // The queue drained; nothing can ever move again. Any unfinished
    // core or live transaction is a hard deadlock (e.g. a dropped
    // message with the watchdog disabled).
    if (!runner.allDone() || machine.controller().outstanding() != 0) {
        throw SimulationStuckError(
            "event queue drained with unfinished work: protocol deadlock",
            describeStuckState(machine, runner));
    }

    machine.finalizeEnergy();

    // The protocol must leave the caches in a coherent state. This is a
    // hard error in every build type: a run that violated coherence
    // invariants has meaningless statistics, so it must never feed a
    // figure silently.
    const auto violations = machine.checker().check();
    if (!violations.empty()) {
        for (const auto &v : violations) {
            FS_LOG(Error, machine.queue().now(), "checker",
                   "line 0x" << std::hex << v.line << std::dec << ": "
                             << v.description);
        }
        std::ostringstream oss;
        oss << "coherence invariants violated (" << violations.size()
            << " violation(s); first: line 0x" << std::hex
            << violations.front().line << std::dec << ' '
            << violations.front().description << ')';
        throw std::runtime_error(oss.str());
    }

    const auto &cstats = machine.controller().stats();
    const auto &energy = machine.energy();

    RunResult r;
    r.workload = workload_name;
    r.algorithm = std::string(toString(config.algorithm));
    r.predictor = config.predictor.id;
    r.execCycles = measured;

    r.readRingRequests = cstats.counterValue("read_ring_requests");
    r.readSnoops = cstats.counterValue("read_snoops");
    r.snoopsPerReadRequest =
        r.readRingRequests
            ? static_cast<double>(r.readSnoops) / r.readRingRequests
            : 0.0;

    r.readLinkMessages = cstats.counterValue("read_link_messages");
    r.readLinkMessagesPerRequest =
        r.readRingRequests
            ? static_cast<double>(r.readLinkMessages) / r.readRingRequests
            : 0.0;

    r.energyNj = energy.totalNj();
    r.ringEnergyNj = energy.categoryNj(EnergyEvent::RingLinkMessage);
    r.snoopEnergyNj = energy.categoryNj(EnergyEvent::CmpSnoop);
    r.predictorEnergyNj = energy.categoryNj(EnergyEvent::PredictorAccess) +
                          energy.categoryNj(EnergyEvent::PredictorTrain);
    r.downgradeEnergyNj =
        energy.categoryNj(EnergyEvent::DowngradeCacheOp) +
        energy.categoryNj(EnergyEvent::DowngradeWriteback) +
        energy.categoryNj(EnergyEvent::DowngradeReRead);

    r.writeRingRequests = cstats.counterValue("write_ring_requests");
    r.writeSnoops = cstats.counterValue("write_snoops");
    r.writeFiltered = cstats.counterValue("write_filtered");

    r.truePositives = machine.predictorTruePositives();
    r.trueNegatives = machine.predictorTrueNegatives();
    r.falsePositives = machine.predictorFalsePositives();
    r.falseNegatives = machine.predictorFalseNegatives();

    r.bridgeSkips = machine.controller().bridgeSkips();
    r.bridgeDescends = machine.controller().bridgeDescends();
    r.globalLinkMessages = machine.globalLinkTraversals();

    r.cacheSupplies = cstats.counterValue("read_cache_supplies");
    r.memoryFetches = cstats.counterValue("memory_fetches");
    r.downgrades = machine.downgrades();
    r.collisions = cstats.counterValue("collisions");
    r.retries = cstats.counterValue("retries");
    r.writebacks = machine.memory().writebacks();
    r.avgReadLatency = cstats.scalarMean("read_latency");
    {
        auto &hist = machine.controller().stats().histogram(
            "read_latency_hist", 50.0, 80);
        r.p50ReadLatency = hist.percentile(0.5);
        r.p95ReadLatency = hist.percentile(0.95);
    }

    r.watchdogTimeouts = cstats.counterValue("watchdog_timeouts");
    r.staleMessagesAbsorbed =
        cstats.counterValue("stale_messages_absorbed");
    r.predictorFlipDegrades =
        cstats.counterValue("predictor_flip_degrades");
    r.incompleteConclusionsRejected =
        cstats.counterValue("incomplete_conclusions_rejected");
    r.retryStormAborts = cstats.counterValue("retry_storm_aborts");
    if (const FaultInjector *faults = machine.faultInjector()) {
        r.faultLinkDecisions = faults->linkDecisions();
        r.faultDrops = faults->dropsInjected();
        r.faultDups = faults->dupsInjected();
        r.faultDelays = faults->delaysInjected();
        r.faultPredictorFlips = faults->predictorFlips();
    }
    return r;
}

} // namespace flexsnoop
