/**
 * @file
 * Reproduces paper Figure 11: the fraction of true positive, true
 * negative, false positive and false negative predictions issued by
 * read snoop requests, for a perfect predictor and every Supplier
 * Predictor implementation.
 *
 * Expected shape:
 *  - perfect: ~4 TN per TP on SPLASH-2/web (supplier ~5 nodes away);
 *    almost all TN on SPECjbb (rarely a supplier);
 *  - Subset: few FN, vanishing at 8K entries;
 *  - Superset: significant FP (paper: 20-40% for the best config);
 *  - Exact: lower TP fraction for smaller tables (downgrades).
 */

#include <iomanip>
#include <iostream>

#include "bench_common.hh"

using namespace flexsnoop;
using namespace flexsnoop::bench;

namespace
{

struct AccuracyRow
{
    double tp = 0.0, tn = 0.0, fp = 0.0, fn = 0.0;

    void
    accumulate(const RunResult &r, double weight)
    {
        const double total = static_cast<double>(r.predictions());
        if (total == 0.0)
            return;
        tp += r.truePositives / total * weight;
        tn += r.trueNegatives / total * weight;
        fp += r.falsePositives / total * weight;
        fn += r.falseNegatives / total * weight;
    }
};

} // namespace

int
main()
{
    std::cout << "=== Figure 11: Supplier Predictor accuracy ===\n";

    struct Config
    {
        std::string label;
        Algorithm algo;
        std::string predictor;
    };
    const std::vector<Config> configs = {
        {"Perfect", Algorithm::Oracle, ""},
        {"Sub512", Algorithm::Subset, "sub512"},
        {"Sub2k", Algorithm::Subset, "sub2k"},
        {"Sub8k", Algorithm::Subset, "sub8k"},
        {"SupCy512", Algorithm::SupersetCon, "y512"},
        {"SupCy2k", Algorithm::SupersetCon, "y2k"},
        {"SupCn2k", Algorithm::SupersetCon, "n2k"},
        {"Exa512", Algorithm::Exact, "exa512"},
        {"Exa2k", Algorithm::Exact, "exa2k"},
        {"Exa8k", Algorithm::Exact, "exa8k"},
    };

    std::vector<WorkloadProfile> workloads;
    for (const auto &name : {"barnes", "ocean", "raytrace", "water-nsq"}) {
        auto p = profileByName(name);
        scaleProfile(p, 6000, 2000);
        workloads.push_back(p);
    }
    const std::size_t splash_apps = workloads.size();
    workloads.push_back(jbbBenchProfile(8000, 2000));
    workloads.push_back(webBenchProfile(8000, 2000));

    // One plan: each workload's traces are generated once and replayed
    // by every predictor configuration.
    SweepPlan plan = planSweep({}, workloads, benchJobs());
    for (const auto &cfg : configs) {
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            plan.cells.push_back(PlannedCell{
                sweepConfig(cfg.algo, workloads[w], cfg.predictor), w,
                workloads[w].name});
        }
    }
    std::cerr << "  running " << plan.cells.size() << " simulations...\n";
    const std::vector<RunResult> runs = runBenchCells(plan);

    std::cout << '\n'
              << std::left << std::setw(11) << "predictor" << std::setw(10)
              << "workload" << std::right << std::setw(9) << "TP"
              << std::setw(9) << "TN" << std::setw(9) << "FP"
              << std::setw(9) << "FN" << '\n'
              << std::string(57, '-') << '\n';

    auto print_row = [](const std::string &config,
                        const std::string &workload,
                        const AccuracyRow &row) {
        std::cout << std::left << std::setw(11) << config << std::setw(10)
                  << workload << std::right << std::fixed
                  << std::setprecision(3) << std::setw(9) << row.tp
                  << std::setw(9) << row.tn << std::setw(9) << row.fp
                  << std::setw(9) << row.fn << '\n';
    };

    for (std::size_t c = 0; c < configs.size(); ++c) {
        const RunResult *row_runs = &runs[c * workloads.size()];
        AccuracyRow splash_row;
        for (std::size_t w = 0; w < splash_apps; ++w)
            splash_row.accumulate(row_runs[w], 1.0 / splash_apps);
        print_row(configs[c].label, "SPLASH-2", splash_row);
        AccuracyRow jbb_row;
        jbb_row.accumulate(row_runs[splash_apps], 1.0);
        print_row(configs[c].label, "SPECjbb", jbb_row);
        AccuracyRow web_row;
        web_row.accumulate(row_runs[splash_apps + 1], 1.0);
        print_row(configs[c].label, "SPECweb", web_row);
        std::cout << '\n';
    }

    std::cout << "paper expectations: perfect predictor shows ~4 TN per "
                 "TP on SPLASH-2/SPECweb and almost no TP on SPECjbb; "
                 "Sub8k false negatives vanish; Superset FP around "
                 "20-40%; Exa512 true positives below Exa8k "
                 "(downgrades).\n";
    return 0;
}
