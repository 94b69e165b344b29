/**
 * @file
 * Reproduces paper Figure 10: sensitivity of execution time to the
 * Supplier Predictor size and organization.
 *
 * Predictors swept (paper §5.2): Sub512/Sub2k/Sub8k for Subset;
 * SupCy512/SupCy2k/SupCn2k for Superset Con; SupAy512/SupAy2k/SupAn2k
 * for Superset Agg; Exa512/Exa2k/Exa8k for Exact. Bars are normalized
 * to the 2k configuration of each algorithm.
 *
 * Expected shape: largely flat ("these environments are not very
 * sensitive to the size and organization of the Supplier Predictor"),
 * except Exact on SPLASH-2, where small predictors cause many
 * downgrades and visibly higher execution time.
 */

#include <chrono>
#include <iomanip>
#include <iostream>

#include "bench_common.hh"

using namespace flexsnoop;
using namespace flexsnoop::bench;

int
main()
{
    std::cout << "=== Figure 10: predictor size/organization sensitivity "
                 "===\n";

    struct AlgoSweep
    {
        Algorithm algo;
        std::vector<std::string> predictors; ///< small, default, large
    };
    const std::vector<AlgoSweep> sweeps_cfg = {
        {Algorithm::Subset, {"sub512", "sub2k", "sub8k"}},
        {Algorithm::SupersetCon, {"y512", "y2k", "n2k"}},
        {Algorithm::SupersetAgg, {"y512", "y2k", "n2k"}},
        {Algorithm::Exact, {"exa512", "exa2k", "exa8k"}},
    };

    // Workload set: 4 representative SPLASH-2-like applications
    // (aggregated), SPECjbb, SPECweb.
    std::vector<WorkloadProfile> splash_apps;
    for (const auto &name : {"barnes", "ocean", "raytrace", "fft"}) {
        auto p = profileByName(name);
        scaleProfile(p, 6000, 2000);
        splash_apps.push_back(p);
    }
    // All workloads of the sweep, in group order: the 4 SPLASH-2-like
    // applications, then SPECjbb, then SPECweb.
    std::vector<WorkloadProfile> workloads = splash_apps;
    workloads.push_back(jbbBenchProfile(8000, 2000));
    workloads.push_back(webBenchProfile(8000, 2000));

    // One plan: each workload's traces are generated once and replayed
    // by every (algorithm, predictor) cell.
    const std::size_t jobs = benchJobs();
    const auto start = std::chrono::steady_clock::now();
    SweepPlan plan = planSweep({}, workloads, jobs);
    for (const auto &cfg : sweeps_cfg) {
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            for (const auto &pred : cfg.predictors) {
                plan.cells.push_back(PlannedCell{
                    sweepConfig(cfg.algo, workloads[w], pred), w,
                    workloads[w].name});
            }
        }
    }
    std::cerr << "  running " << plan.cells.size() << " simulations on "
              << jobs << " worker(s)...\n";
    const std::vector<RunResult> runs = runBenchCells(plan, jobs);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    // exec[workload-group][algo][predictor]
    std::size_t cell = 0;
    for (const auto &cfg : sweeps_cfg) {
        std::cout << "\n--- " << toString(cfg.algo) << " ---\n"
                  << std::left << std::setw(12) << "workload";
        for (const auto &pred : cfg.predictors)
            std::cout << std::right << std::setw(12) << pred;
        std::cout << " (normalized to middle config)\n"
                  << std::string(12 + 12 * cfg.predictors.size(), '-')
                  << '\n';

        // Cells of this algorithm, per workload, in predictor order.
        std::vector<std::vector<double>> by_workload;
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            std::vector<double> app_exec;
            for (std::size_t p = 0; p < cfg.predictors.size(); ++p)
                app_exec.push_back(
                    static_cast<double>(runs[cell++].execCycles));
            by_workload.push_back(std::move(app_exec));
        }

        auto print_group = [&](const std::string &label, std::size_t lo,
                               std::size_t hi) {
            std::vector<double> exec(cfg.predictors.size(), 0.0);
            for (std::size_t w = lo; w < hi; ++w) {
                const auto &app_exec = by_workload[w];
                for (std::size_t i = 0; i < app_exec.size(); ++i)
                    exec[i] += app_exec[i] / app_exec[1] / (hi - lo);
            }
            std::cout << std::left << std::setw(12) << label;
            for (double e : exec)
                std::cout << std::right << std::fixed
                          << std::setprecision(3) << std::setw(12) << e;
            std::cout << '\n';
        };

        print_group("SPLASH-2", 0, splash_apps.size());
        print_group("SPECjbb", splash_apps.size(),
                    splash_apps.size() + 1);
        print_group("SPECweb", splash_apps.size() + 1,
                    splash_apps.size() + 2);
    }

    writeBenchRecord(
        "fig10_sensitivity",
        {{"wall_seconds", wall_s},
         {"jobs", static_cast<double>(jobs)},
         {"simulations", static_cast<double>(runs.size())},
         {"simulations_per_second",
          wall_s > 0.0 ? runs.size() / wall_s : 0.0}});

    std::cout << "\npaper expectation: near-flat rows (within a few "
                 "percent), except Exact on SPLASH-2 where the small "
                 "predictor (Exa512) is visibly slower than Exa8k.\n";
    return 0;
}
