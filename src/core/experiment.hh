/**
 * @file
 * Experiment helpers: the sweep runner (runCells) and its planners,
 * Lazy-normalization, SPLASH-2 aggregation (the paper uses the
 * arithmetic mean for Fig. 6 and the geometric mean of per-application
 * Lazy-normalized values for Figs. 7-9), and table printing.
 */

#ifndef FLEXSNOOP_CORE_EXPERIMENT_HH
#define FLEXSNOOP_CORE_EXPERIMENT_HH

#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/simulation.hh"
#include "workload/profile.hh"

namespace flexsnoop
{

/** Extract one metric from a RunResult. */
using Metric = std::function<double(const RunResult &)>;

/** Results of a full algorithm sweep over one workload. */
struct SweepResult
{
    std::string workload;
    std::vector<RunResult> runs; ///< one per algorithm, sweep order

    const RunResult &byAlgorithm(Algorithm a) const;

    /** Every field of every run, doubles compared exactly. */
    bool operator==(const SweepResult &) const = default;
};

/**
 * Machine configuration one sweep cell runs with: the §6.1 paper
 * default for @p algorithm sized to @p profile, with
 * @p override_predictor (if non-empty and of the same predictor kind)
 * forced on — the sensitivity-study hook shared by every sweep
 * planner.
 */
MachineConfig sweepConfig(Algorithm algorithm,
                          const WorkloadProfile &profile,
                          const std::string &override_predictor = "");

/**
 * One cell of a sweep: a fully-resolved machine configuration, the
 * plan's trace set it replays, and the workload label of its result.
 */
struct PlannedCell
{
    MachineConfig cfg;
    std::size_t traces = 0; ///< index into SweepPlan::traces
    std::string workload;
};

/**
 * What runCells() runs: each workload's traces, generated or loaded
 * once, and the cells that replay them. All cells of a workload refer
 * to the same trace set, so its algorithms compare on identical
 * traces (the paper: "exactly the same traces").
 */
struct SweepPlan
{
    std::vector<CoreTraces> traces;
    std::vector<PlannedCell> cells;
};

/** Robustness options of runCells() (docs/FAULTS.md). */
struct SweepHardening
{
    /**
     * Per-cell wall-clock budget in seconds (0 = none). Applied to any
     * cell that does not already set guards.wallClockLimitSec.
     */
    double cellWallClockLimitSec = 0.0;

    /**
     * Incremental checkpoint CSV (empty = off). Each successful cell
     * appends its row immediately; on a re-run, cells whose
     * (workload, algorithm, predictor) key is already present are
     * served from the file instead of re-simulated. Failed cells are
     * never checkpointed, so a resume retries them.
     */
    std::string checkpointPath;

    /** Directory for stuck-transaction dumps (empty = don't write). */
    std::string dumpDir;

    /**
     * Structured JSON-lines progress log (docs/TELEMETRY.md, empty =
     * off): cell start/finish events with status, wall time, ETA and
     * peak RSS, mirroring the checkpoint CSV's per-cell flushing.
     */
    std::string sweepLogPath;
};

/**
 * The sweep runner: run every cell of @p plan across @p jobs workers
 * with crash isolation. A cell that throws (stuck simulation, retry
 * storm, coherence violation) is returned as a RunResult with
 * failed=true and the message in `error`, and the other cells run to
 * completion. Results are in plan.cells order and do not depend on
 * @p jobs or on @p hardening: a cell's guards and a resumed row change
 * no result field.
 */
std::vector<RunResult> runCells(const SweepPlan &plan, std::size_t jobs,
                                const SweepHardening &hardening = {});

/**
 * Plan @p algorithms (with their §6.1 default predictors) on every
 * profile: one cell per (profile x algorithm), profile-major, each
 * configured by sweepConfig(). Each profile's traces are generated
 * once, on @p jobs workers. With no algorithms the plan holds only the
 * traces, for callers that add cells of their own.
 *
 * @param override_predictor if non-empty, forces this predictor config
 *        on every algorithm that uses one (sensitivity studies)
 */
SweepPlan planSweep(const std::vector<Algorithm> &algorithms,
                    const std::vector<WorkloadProfile> &profiles,
                    std::size_t jobs,
                    const std::string &override_predictor = "");

/**
 * Scalability sweep plan (docs/TOPOLOGY.md): for each node count in
 * @p node_counts, every algorithm on the same traces twice — once on
 * the flat embedded ring and once on a two-level hierarchy with 8-node
 * local rings (local_rings = N/8) — so hier-vs-flat is an
 * apples-to-apples comparison per (node count, algorithm). Every node
 * count must be a multiple of 8, at least 16, so the hierarchy has at
 * least two local rings. Cells are in node_counts x {flat, hier} x
 * algorithms order.
 *
 * @param base workload template; its numCores is replaced by the
 *        swept node count (x coresPerCmp) per cell. The footprint is
 *        weak-scaled: sharedLines grows linearly with the core factor
 *        and meanGap by factor^0.75, keeping per-line contention
 *        bounded (the base footprint hammered by 64+ cores collapses
 *        into retry storms on every algorithm, flat or hier).
 */
SweepPlan planHierSweep(const std::vector<Algorithm> &algorithms,
                        const std::vector<std::size_t> &node_counts,
                        std::size_t jobs, Cycle global_hop_cycles = 62,
                        const WorkloadProfile &base = miniProfile());

/**
 * planSweep() and runCells() for the figure benches: one SweepResult
 * per profile, in @p profiles order, each in @p algorithms order.
 *
 * @throws std::runtime_error carrying the first failed cell's error
 */
std::vector<SweepResult>
runSweeps(const std::vector<Algorithm> &algorithms,
          const std::vector<WorkloadProfile> &profiles, std::size_t jobs,
          const std::string &override_predictor = "");

/** Arithmetic mean of @p metric over a set of runs. */
double arithMean(const std::vector<double> &values);

/** Geometric mean (values must be positive). */
double geoMean(const std::vector<double> &values);

/**
 * Aggregate a per-application suite into the paper's SPLASH-2 bar:
 * metric(app, algo) / metric(app, Lazy), geometric mean over apps.
 */
double lazyNormalizedGeoMean(const std::vector<SweepResult> &apps,
                             Algorithm algorithm, const Metric &metric);

/** Arithmetic mean of a raw metric over apps for one algorithm. */
double suiteArithMean(const std::vector<SweepResult> &apps,
                      Algorithm algorithm, const Metric &metric);

/**
 * Pretty-print a workloads x algorithms table of doubles.
 *
 * @param rows (workload label, algorithm -> value)
 */
void printTable(std::ostream &os, const std::string &title,
                const std::vector<Algorithm> &algorithms,
                const std::vector<std::pair<
                    std::string, std::map<Algorithm, double>>> &rows,
                int precision = 3);

} // namespace flexsnoop

#endif // FLEXSNOOP_CORE_EXPERIMENT_HH
