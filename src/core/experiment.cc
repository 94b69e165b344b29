#include "core/experiment.hh"

#include <cassert>
#include <cctype>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "core/parallel_executor.hh"
#include "core/report.hh"
#include "core/sweep_log.hh"
#include "workload/synthetic_generator.hh"

namespace flexsnoop
{

const RunResult &
SweepResult::byAlgorithm(Algorithm a) const
{
    for (const auto &r : runs) {
        if (r.algorithm == toString(a))
            return r;
    }
    throw std::out_of_range("algorithm not present in sweep: " +
                            std::string(toString(a)));
}

MachineConfig
sweepConfig(Algorithm algorithm, const WorkloadProfile &profile,
            const std::string &override_predictor)
{
    MachineConfig cfg =
        MachineConfig::paperDefault(algorithm, profile.coresPerCmp);
    cfg.setNumCmps(profile.numCmps());
    if (!override_predictor.empty() &&
        cfg.predictor.kind != PredictorKind::None &&
        cfg.predictor.kind != PredictorKind::Perfect) {
        PredictorConfig forced =
            PredictorConfig::fromName(override_predictor);
        if (forced.kind == cfg.predictor.kind)
            cfg.predictor = forced;
    }
    return cfg;
}

namespace
{

/** Each profile's traces, generated once, on @p jobs workers. */
std::vector<CoreTraces>
generateTraces(const std::vector<WorkloadProfile> &profiles,
               std::size_t jobs)
{
    return ParallelExecutor(jobs).map(
        profiles.size(), [&profiles](std::size_t p) {
            return SyntheticGenerator(profiles[p]).generate();
        });
}

} // namespace

SweepPlan
planSweep(const std::vector<Algorithm> &algorithms,
          const std::vector<WorkloadProfile> &profiles, std::size_t jobs,
          const std::string &override_predictor)
{
    SweepPlan plan;
    plan.traces = generateTraces(profiles, jobs);
    for (std::size_t p = 0; p < profiles.size(); ++p) {
        for (Algorithm a : algorithms) {
            plan.cells.push_back(PlannedCell{
                sweepConfig(a, profiles[p], override_predictor), p,
                profiles[p].name});
        }
    }
    return plan;
}

SweepPlan
planHierSweep(const std::vector<Algorithm> &algorithms,
              const std::vector<std::size_t> &node_counts,
              std::size_t jobs, Cycle global_hop_cycles,
              const WorkloadProfile &base)
{
    // One scaled profile per node count; the flat and hier machines of
    // a node count replay the same traces.
    std::vector<WorkloadProfile> profiles;
    profiles.reserve(node_counts.size());
    for (std::size_t n : node_counts) {
        if (n < 16 || n % 8 != 0) {
            throw std::invalid_argument(
                "hier sweep node counts must be multiples of 8, >= 16; "
                "got " + std::to_string(n));
        }
        WorkloadProfile p = base;
        p.name = "scale" + std::to_string(n);
        p.numCores = n * p.coresPerCmp; // n CMP nodes on the ring
        // Weak scaling: grow the shared pool with the machine and
        // thin out each core's issue rate so per-line contention stays
        // bounded -- with the base footprint, the hottest shared lines
        // of a 64+-core machine collapse into retry storms on every
        // algorithm, flat or hierarchical.
        if (base.numCores > 0 && p.numCores > base.numCores) {
            const double f = static_cast<double>(p.numCores) /
                             static_cast<double>(base.numCores);
            p.sharedLines = static_cast<std::size_t>(
                static_cast<double>(base.sharedLines) * f);
            p.meanGap = base.meanGap * std::pow(f, 0.75);
        }
        profiles.push_back(p);
    }

    SweepPlan plan;
    plan.traces = generateTraces(profiles, jobs);
    for (std::size_t p = 0; p < profiles.size(); ++p) {
        for (bool hier : {false, true}) { // flat row, then hier row
            for (Algorithm a : algorithms) {
                MachineConfig cfg = sweepConfig(a, profiles[p]);
                if (hier) {
                    cfg.topology.kind = TopologyKind::Hier;
                    cfg.topology.localRings = node_counts[p] / 8;
                    cfg.topology.globalHopCycles = global_hop_cycles;
                }
                plan.cells.push_back(
                    PlannedCell{std::move(cfg), p, profiles[p].name});
            }
        }
    }
    return plan;
}

std::vector<SweepResult>
runSweeps(const std::vector<Algorithm> &algorithms,
          const std::vector<WorkloadProfile> &profiles, std::size_t jobs,
          const std::string &override_predictor)
{
    std::vector<RunResult> runs = runCells(
        planSweep(algorithms, profiles, jobs, override_predictor), jobs);
    for (const RunResult &r : runs) {
        if (r.failed) {
            throw std::runtime_error(r.workload + " / " + r.algorithm +
                                     ": " + r.error);
        }
    }

    const std::size_t width = algorithms.size();
    std::vector<SweepResult> out(profiles.size());
    for (std::size_t p = 0; p < profiles.size(); ++p) {
        out[p].workload = profiles[p].name;
        out[p].runs.assign(
            std::make_move_iterator(runs.begin() + p * width),
            std::make_move_iterator(runs.begin() + (p + 1) * width));
    }
    return out;
}

namespace
{

/** Resume key: a cell is identified by what writeCsvRow records. */
std::string
cellKey(const std::string &workload, const std::string &algorithm,
        const std::string &predictor)
{
    return workload + '\x1f' + algorithm + '\x1f' + predictor;
}

std::string
sanitizeFileComponent(std::string s)
{
    for (char &c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
            c != '_')
            c = '_';
    }
    return s;
}

} // namespace

std::vector<RunResult>
runCells(const SweepPlan &plan, std::size_t jobs,
         const SweepHardening &hardening)
{
    const std::vector<PlannedCell> &cells = plan.cells;

    // Resume: rows already checkpointed by a previous (partial) sweep
    // are reused verbatim. Only successful rows ever reach the file,
    // so failed cells are retried automatically.
    std::map<std::string, RunResult> resumed;
    if (!hardening.checkpointPath.empty()) {
        for (RunResult &r : loadCsvFile(hardening.checkpointPath)) {
            if (!r.failed) {
                std::string key =
                    cellKey(r.workload, r.algorithm, r.predictor);
                resumed.emplace(std::move(key), std::move(r));
            }
        }
    }

    std::ofstream checkpoint;
    std::mutex checkpoint_mutex;
    if (!hardening.checkpointPath.empty()) {
        // Rewrite rather than append: resumed rows are re-emitted below
        // as their cells complete, and rows of cells no longer in the
        // plan must not linger.
        checkpoint.open(hardening.checkpointPath, std::ios::trunc);
        if (!checkpoint) {
            throw std::runtime_error("cannot open checkpoint file: " +
                                     hardening.checkpointPath);
        }
        writeCsvHeader(checkpoint);
        checkpoint.flush();
    }

    std::unique_ptr<SweepLog> sweep_log;
    if (!hardening.sweepLogPath.empty()) {
        sweep_log = std::make_unique<SweepLog>(hardening.sweepLogPath,
                                               cells.size());
    }

    std::vector<RunResult> out(cells.size());
    std::vector<ParallelExecutor::Job> batch;
    batch.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        batch.push_back([&, i]() {
            const PlannedCell &cell = cells[i];
            MachineConfig cfg = cell.cfg;
            if (hardening.cellWallClockLimitSec > 0 &&
                cfg.guards.wallClockLimitSec == 0)
                cfg.guards.wallClockLimitSec =
                    hardening.cellWallClockLimitSec;

            const std::string algorithm(toString(cfg.algorithm));
            if (sweep_log) {
                sweep_log->cellStart(i, cell.workload, algorithm,
                                     cfg.predictor.id);
            }
            const auto wall_start = std::chrono::steady_clock::now();
            const auto cellWallSec = [wall_start]() {
                return std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_start)
                    .count();
            };
            const auto logFinish = [&](SweepLog::Status status) {
                if (sweep_log) {
                    sweep_log->cellFinish(i, cell.workload, algorithm,
                                          cfg.predictor.id, status,
                                          cellWallSec());
                }
            };

            const std::string key =
                cellKey(cell.workload, algorithm, cfg.predictor.id);
            try {
                if (auto it = resumed.find(key); it != resumed.end()) {
                    out[i] = it->second;
                    logFinish(SweepLog::Status::Resumed);
                } else {
                    out[i] = runSimulation(cfg, plan.traces.at(cell.traces),
                                           cell.workload);
                    logFinish(SweepLog::Status::Ok);
                }
            } catch (const SimulationStuckError &e) {
                logFinish(e.kind() == SimulationStuckError::Kind::Timeout
                              ? SweepLog::Status::Timeout
                              : SweepLog::Status::Failed);
                throw;
            } catch (...) {
                logFinish(SweepLog::Status::Failed);
                throw;
            }

            if (checkpoint.is_open()) {
                std::lock_guard<std::mutex> lock(checkpoint_mutex);
                writeCsvRow(checkpoint, out[i]);
                checkpoint.flush();
            }
        });
    }

    ParallelExecutor pool(jobs);
    const auto errors = pool.runCollect(batch);
    if (sweep_log)
        sweep_log->finish();

    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!errors[i])
            continue;
        RunResult &r = out[i];
        r = RunResult{};
        r.workload = cells[i].workload;
        r.algorithm = std::string(toString(cells[i].cfg.algorithm));
        r.predictor = cells[i].cfg.predictor.id;
        r.failed = true;
        std::string dump;
        try {
            std::rethrow_exception(errors[i]);
        } catch (const SimulationStuckError &e) {
            r.error = e.what();
            dump = e.stuckDump();
        } catch (const std::exception &e) {
            r.error = e.what();
        } catch (...) {
            r.error = "unknown error";
        }
        if (!hardening.dumpDir.empty() && !dump.empty()) {
            std::filesystem::create_directories(hardening.dumpDir);
            const std::string path =
                hardening.dumpDir + "/stuck_cell" + std::to_string(i) +
                "_" + sanitizeFileComponent(r.workload) + "_" +
                sanitizeFileComponent(r.algorithm) + ".txt";
            std::ofstream df(path);
            if (df)
                df << r.error << "\n\n" << dump;
        }
    }
    return out;
}

double
arithMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
geoMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        assert(v > 0.0 && "geometric mean needs positive values");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
lazyNormalizedGeoMean(const std::vector<SweepResult> &apps,
                      Algorithm algorithm, const Metric &metric)
{
    std::vector<double> ratios;
    ratios.reserve(apps.size());
    for (const auto &app : apps) {
        const double base = metric(app.byAlgorithm(Algorithm::Lazy));
        const double value = metric(app.byAlgorithm(algorithm));
        assert(base > 0.0);
        ratios.push_back(value / base);
    }
    return geoMean(ratios);
}

double
suiteArithMean(const std::vector<SweepResult> &apps, Algorithm algorithm,
               const Metric &metric)
{
    std::vector<double> values;
    values.reserve(apps.size());
    for (const auto &app : apps)
        values.push_back(metric(app.byAlgorithm(algorithm)));
    return arithMean(values);
}

void
printTable(std::ostream &os, const std::string &title,
           const std::vector<Algorithm> &algorithms,
           const std::vector<
               std::pair<std::string, std::map<Algorithm, double>>> &rows,
           int precision)
{
    os << '\n' << title << '\n';
    os << std::left << std::setw(14) << "workload";
    for (Algorithm a : algorithms)
        os << std::right << std::setw(13) << toString(a);
    os << '\n';
    os << std::string(14 + 13 * algorithms.size(), '-') << '\n';
    for (const auto &[label, values] : rows) {
        os << std::left << std::setw(14) << label;
        for (Algorithm a : algorithms) {
            auto it = values.find(a);
            if (it == values.end()) {
                os << std::right << std::setw(13) << "-";
            } else {
                os << std::right << std::setw(13) << std::fixed
                   << std::setprecision(precision) << it->second;
            }
        }
        os << '\n';
    }
    os.unsetf(std::ios::fixed);
}

} // namespace flexsnoop
