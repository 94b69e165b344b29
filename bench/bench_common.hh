/**
 * @file
 * Shared helpers for the figure/table benches: standard workload sets
 * sized for bench runtime, sweep execution, machine-readable perf
 * records, and printing utilities.
 */

#ifndef FLEXSNOOP_BENCH_BENCH_COMMON_HH
#define FLEXSNOOP_BENCH_BENCH_COMMON_HH

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/parallel_executor.hh"

namespace flexsnoop::bench
{

/** Scale factor from FLEXSNOOP_BENCH_SCALE (default 1.0; smaller =
 *  faster, e.g. 0.25 for smoke runs). */
inline double
benchScale()
{
    if (const char *env = std::getenv("FLEXSNOOP_BENCH_SCALE")) {
        const double v = std::atof(env);
        if (v > 0.0)
            return v;
    }
    return 1.0;
}

/** Worker threads for parallel sweeps: FLEXSNOOP_BENCH_JOBS (0 = run
 *  serially), default hardware concurrency. */
inline std::size_t
benchJobs()
{
    if (const char *env = std::getenv("FLEXSNOOP_BENCH_JOBS")) {
        const long v = std::atol(env);
        if (v >= 0)
            return static_cast<std::size_t>(v);
    }
    return ParallelExecutor::defaultWorkers();
}

/**
 * Write the machine-readable perf record BENCH_<name>.json (schema
 * documented in docs/METRICS.md) into FLEXSNOOP_BENCH_RECORD_DIR
 * (default: the current directory).
 */
inline void
writeBenchRecord(
    const std::string &name,
    const std::vector<std::pair<std::string, double>> &metrics)
{
    std::string dir = ".";
    if (const char *env = std::getenv("FLEXSNOOP_BENCH_RECORD_DIR"))
        dir = env;
    const std::string path = dir + "/BENCH_" + name + ".json";
    std::ofstream os(path);
    if (!os) {
        std::cerr << "warning: cannot write " << path << '\n';
        return;
    }
    os << "{\n"
       << "  \"schema\": \"flexsnoop-bench-v1\",\n"
       << "  \"bench\": \"" << name << "\",\n"
       << "  \"metrics\": {\n";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << "    \"" << metrics[i].first << "\": "
           << std::setprecision(12) << metrics[i].second
           << (i + 1 < metrics.size() ? "," : "") << '\n';
    }
    os << "  }\n}\n";
    std::cerr << "wrote " << path << '\n';
}

inline void
scaleProfile(WorkloadProfile &p, std::size_t refs, std::size_t warmup)
{
    const double s = benchScale();
    p.refsPerCore = static_cast<std::size_t>(refs * s);
    p.warmupRefs = static_cast<std::size_t>(warmup * s);
}

/** runCells() on @p jobs workers; a failed cell aborts the bench. */
inline std::vector<RunResult>
runBenchCells(const SweepPlan &plan, std::size_t jobs = benchJobs())
{
    std::vector<RunResult> runs = runCells(plan, jobs);
    for (const RunResult &r : runs) {
        if (r.failed) {
            throw std::runtime_error(r.workload + " / " + r.algorithm +
                                     ": " + r.error);
        }
    }
    return runs;
}

/** The 11 SPLASH-2 profiles at bench size. */
inline std::vector<WorkloadProfile>
splashBenchProfiles(std::size_t refs = 8000, std::size_t warmup = 2500)
{
    auto apps = splash2Profiles();
    for (auto &p : apps)
        scaleProfile(p, refs, warmup);
    return apps;
}

inline WorkloadProfile
jbbBenchProfile(std::size_t refs = 12000, std::size_t warmup = 3000)
{
    auto p = specJbbProfile();
    scaleProfile(p, refs, warmup);
    return p;
}

inline WorkloadProfile
webBenchProfile(std::size_t refs = 12000, std::size_t warmup = 3000)
{
    auto p = specWebProfile();
    scaleProfile(p, refs, warmup);
    return p;
}

/** Run the paper's seven algorithms over the three workload groups and
 *  hand each group's sweeps to the caller. */
struct PaperSweeps
{
    std::vector<SweepResult> splash; ///< one per application
    SweepResult jbb;
    SweepResult web;
};

inline PaperSweeps
runPaperSweeps(std::size_t splash_refs = 8000,
               std::size_t spec_refs = 12000,
               std::size_t jobs = benchJobs())
{
    std::vector<WorkloadProfile> profiles =
        splashBenchProfiles(splash_refs, splash_refs * 5 / 16);
    profiles.push_back(jbbBenchProfile(spec_refs, spec_refs / 4));
    profiles.push_back(webBenchProfile(spec_refs, spec_refs / 4));

    const auto &algos = paperAlgorithms();
    std::cerr << "  running " << profiles.size() << " workloads x "
              << algos.size() << " algorithms on " << jobs
              << " worker(s)...\n";
    std::vector<SweepResult> sweeps = runSweeps(algos, profiles, jobs);

    PaperSweeps out;
    out.web = std::move(sweeps.back());
    sweeps.pop_back();
    out.jbb = std::move(sweeps.back());
    sweeps.pop_back();
    out.splash = std::move(sweeps);
    return out;
}

/** Assemble the standard three-row (SPLASH-2 / jbb / web) figure table. */
inline void
printFigureTable(const std::string &title, const PaperSweeps &sweeps,
                 const Metric &metric, bool normalize_to_lazy,
                 bool splash_arith_mean, int precision = 3)
{
    const auto &algos = paperAlgorithms();
    std::vector<std::pair<std::string, std::map<Algorithm, double>>> rows;

    std::map<Algorithm, double> splash_row;
    for (Algorithm a : algos) {
        if (normalize_to_lazy) {
            splash_row[a] = lazyNormalizedGeoMean(sweeps.splash, a, metric);
        } else if (splash_arith_mean) {
            splash_row[a] = suiteArithMean(sweeps.splash, a, metric);
        } else {
            std::vector<double> values;
            for (const auto &app : sweeps.splash)
                values.push_back(metric(app.byAlgorithm(a)));
            splash_row[a] = geoMean(values);
        }
    }
    rows.emplace_back("SPLASH-2", splash_row);

    for (const auto *sweep : {&sweeps.jbb, &sweeps.web}) {
        std::map<Algorithm, double> row;
        const double base =
            normalize_to_lazy
                ? metric(sweep->byAlgorithm(Algorithm::Lazy))
                : 1.0;
        for (Algorithm a : algos)
            row[a] = metric(sweep->byAlgorithm(a)) / base;
        rows.emplace_back(sweep->workload, row);
    }

    printTable(std::cout, title, algos, rows, precision);
}

/** Per-application detail table for one metric. */
inline void
printPerAppTable(const std::string &title, const PaperSweeps &sweeps,
                 const Metric &metric, bool normalize_to_lazy,
                 int precision = 3)
{
    const auto &algos = paperAlgorithms();
    std::vector<std::pair<std::string, std::map<Algorithm, double>>> rows;
    auto add = [&](const SweepResult &sweep) {
        std::map<Algorithm, double> row;
        const double base =
            normalize_to_lazy
                ? metric(sweep.byAlgorithm(Algorithm::Lazy))
                : 1.0;
        for (Algorithm a : algos)
            row[a] = metric(sweep.byAlgorithm(a)) / base;
        rows.emplace_back(sweep.workload, row);
    };
    for (const auto &app : sweeps.splash)
        add(app);
    add(sweeps.jbb);
    add(sweeps.web);
    printTable(std::cout, title, algos, rows, precision);
}

} // namespace flexsnoop::bench

#endif // FLEXSNOOP_BENCH_BENCH_COMMON_HH
