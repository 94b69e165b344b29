/**
 * @file
 * Algorithm comparison study: the workload the paper's introduction
 * motivates -- a scientific application with heavy cache-to-cache
 * sharing (SPLASH-2-like) next to a commercial memory-bound workload
 * (SPECjbb-like) -- swept across all seven snooping algorithms, with a
 * cost-effectiveness summary mirroring the paper's §6.1.5 conclusions.
 *
 * Usage: algorithm_study [splash_app] (default: barnes)
 */

#include <iomanip>
#include <iostream>

#include "core/experiment.hh"
#include "core/parallel_executor.hh"

using namespace flexsnoop;

namespace
{

void
study(const WorkloadProfile &profile)
{
    std::cout << "\n=== " << profile.name << " ===\n";
    const SweepResult sweep =
        runSweeps(paperAlgorithms(), {profile},
                  ParallelExecutor::defaultWorkers())
            .front();
    const RunResult &lazy = sweep.byAlgorithm(Algorithm::Lazy);

    std::cout << std::left << std::setw(13) << "algorithm" << std::right
              << std::setw(11) << "exec" << std::setw(11) << "energy"
              << std::setw(12) << "snoops/req" << std::setw(11)
              << "msgs/req" << std::setw(12) << "mem reads" << '\n'
              << std::string(70, '-') << '\n';
    for (const auto &r : sweep.runs) {
        std::cout << std::left << std::setw(13) << r.algorithm
                  << std::right << std::fixed << std::setprecision(3)
                  << std::setw(11)
                  << static_cast<double>(r.execCycles) / lazy.execCycles
                  << std::setw(11) << r.energyNj / lazy.energyNj
                  << std::setprecision(2) << std::setw(12)
                  << r.snoopsPerReadRequest << std::setw(11)
                  << r.readLinkMessagesPerRequest << std::setw(12)
                  << r.memoryFetches << '\n';
    }

    const auto &agg = sweep.byAlgorithm(Algorithm::SupersetAgg);
    const auto &con = sweep.byAlgorithm(Algorithm::SupersetCon);
    const auto &eager = sweep.byAlgorithm(Algorithm::Eager);
    std::cout << "\ncost-effectiveness (paper §6.1.5):\n"
              << "  high-performance pick (SupersetAgg): "
              << std::setprecision(1)
              << (1.0 - static_cast<double>(agg.execCycles) /
                            eager.execCycles) *
                     100
              << "% faster than Eager at "
              << (1.0 - agg.energyNj / eager.energyNj) * 100
              << "% less energy\n"
              << "  energy-efficient pick (SupersetCon): "
              << (static_cast<double>(con.execCycles) / agg.execCycles -
                  1.0) *
                     100
              << "% slower than SupersetAgg at "
              << (1.0 - con.energyNj / agg.energyNj) * 100
              << "% less energy\n";
}

} // namespace

int
main(int argc, char **argv)
{
    WorkloadProfile splash =
        profileByName(argc > 1 ? argv[1] : "barnes");
    splash.refsPerCore = 8000;
    splash.warmupRefs = 2500;

    WorkloadProfile jbb = specJbbProfile();
    jbb.refsPerCore = 10000;
    jbb.warmupRefs = 2500;

    study(splash);
    study(jbb);
    return 0;
}
