/**
 * @file
 * Ablation: the Exclude cache of the Superset predictor (paper §4.3.2
 * and the §6.2 discussion that it "helps for SPLASH-2 and SPECweb but
 * not for SPECjbb, where it thrashes").
 *
 * Compares Superset Con with the y Bloom filter plus a 2k Exclude cache
 * ("y2k") against the same filter with the Exclude cache removed
 * ("y0"): false-positive rate, snoops per request, and energy.
 */

#include <iomanip>
#include <iostream>

#include "bench_common.hh"

using namespace flexsnoop;
using namespace flexsnoop::bench;

int
main()
{
    std::cout << "=== Ablation: Superset Exclude cache (y2k vs no "
                 "exclude) ===\n";

    std::vector<WorkloadProfile> profiles;
    for (const auto &name : {"barnes", "raytrace"}) {
        auto p = profileByName(name);
        scaleProfile(p, 8000, 2500);
        profiles.push_back(p);
    }
    profiles.push_back(jbbBenchProfile(10000, 2500));
    profiles.push_back(webBenchProfile(10000, 2500));

    // One plan: each workload's traces are replayed with and without
    // the Exclude cache. (predictor, Exclude-cache label) per variant:
    const std::vector<std::pair<std::string, std::string>> variants = {
        {"y2k", "2k"}, {"y0", "none"}};
    SweepPlan plan = planSweep({}, profiles, benchJobs());
    for (std::size_t p = 0; p < profiles.size(); ++p) {
        for (const auto &variant : variants) {
            plan.cells.push_back(PlannedCell{
                sweepConfig(Algorithm::SupersetCon, profiles[p],
                            variant.first),
                p, profiles[p].name});
        }
    }
    std::cerr << "  running " << plan.cells.size() << " simulations...\n";
    const std::vector<RunResult> runs = runBenchCells(plan);

    std::cout << '\n'
              << std::left << std::setw(12) << "workload" << std::setw(10)
              << "exclude" << std::right << std::setw(10) << "FP rate"
              << std::setw(12) << "snoops/req" << std::setw(14)
              << "energy (uJ)" << '\n'
              << std::string(58, '-') << '\n';

    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunResult &r = runs[i];
        const double preds = static_cast<double>(r.predictions());
        std::cout << std::left << std::setw(12) << r.workload
                  << std::setw(10) << variants[i % variants.size()].second
                  << std::right << std::fixed << std::setprecision(3)
                  << std::setw(10)
                  << (preds ? r.falsePositives / preds : 0.0)
                  << std::setprecision(2) << std::setw(12)
                  << r.snoopsPerReadRequest << std::setprecision(1)
                  << std::setw(14) << r.energyNj / 1e3 << '\n';
    }

    std::cout << "\npaper expectation: removing the Exclude cache raises "
                 "the false-positive rate and snoop count on the "
                 "sharing-heavy workloads; on SPECjbb the cache thrashes "
                 "and the difference is small.\n";
    return 0;
}
