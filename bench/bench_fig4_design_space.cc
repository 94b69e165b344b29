/**
 * @file
 * Reproduces paper Figure 4-(b): the design-space placement of all
 * snooping algorithms on the (snoop request latency, snoop operations
 * per request) plane, measured on the SPLASH-2-like suite mean.
 *
 * Expected placement: Lazy = high latency / medium snoops; Eager = low
 * latency / max snoops; Subset above Lazy's snoop count at low latency;
 * Superset Agg near Eager's latency with few snoops; Superset Con
 * slightly slower; Exact near the Oracle origin.
 */

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>

#include "bench_common.hh"

using namespace flexsnoop;
using namespace flexsnoop::bench;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main()
{
    std::cout << "=== Figure 4(b): design space (latency vs snoop "
                 "operations) ===\n";

    // A few representative SPLASH-2-like applications keep this bench
    // quick; the placement is stable across the suite.
    std::vector<WorkloadProfile> apps;
    for (const auto &name : {"barnes", "ocean", "raytrace", "water-nsq"}) {
        auto p = profileByName(name);
        scaleProfile(p, 8000, 2500);
        apps.push_back(p);
    }

    // This bench doubles as the parallel-runner speedup check: the full
    // (app x algorithm) matrix is run once serially and once across the
    // worker pool, and both the wall-clock ratio and a result-equality
    // check are reported.
    const std::size_t jobs = std::max<std::size_t>(benchJobs(), 2);

    std::cerr << "  serial matrix (" << apps.size() << " apps x "
              << paperAlgorithms().size() << " algorithms)...\n";
    const auto serial_start = std::chrono::steady_clock::now();
    const std::vector<SweepResult> serial =
        runSweeps(paperAlgorithms(), apps, 1);
    const double serial_s = secondsSince(serial_start);

    std::cerr << "  parallel matrix (" << jobs << " workers)...\n";
    const auto parallel_start = std::chrono::steady_clock::now();
    const std::vector<SweepResult> sweeps =
        runSweeps(paperAlgorithms(), apps, jobs);
    const double parallel_s = secondsSince(parallel_start);

    // Every RunResult field, doubles compared exactly.
    const bool identical = serial == sweeps;

    struct Point
    {
        double latency = 0.0;
        double snoops = 0.0;
    };
    std::map<Algorithm, Point> points;
    for (const auto &sweep : sweeps) {
        for (const auto &r : sweep.runs) {
            auto &pt = points[algorithmFromName(r.algorithm)];
            pt.latency += r.avgReadLatency / apps.size();
            pt.snoops += r.snoopsPerReadRequest / apps.size();
        }
    }

    std::cout << '\n'
              << std::left << std::setw(13) << "algorithm" << std::right
              << std::setw(18) << "req latency (cyc)" << std::setw(14)
              << "snoops/req" << '\n'
              << std::string(45, '-') << '\n';
    for (Algorithm a : paperAlgorithms()) {
        const auto &pt = points[a];
        std::cout << std::left << std::setw(13) << toString(a)
                  << std::right << std::fixed << std::setprecision(1)
                  << std::setw(18) << pt.latency << std::setprecision(2)
                  << std::setw(14) << pt.snoops << '\n';
    }

    // ASCII rendition of the design-space chart.
    const double max_lat =
        std::max_element(points.begin(), points.end(),
                         [](const auto &x, const auto &y) {
                             return x.second.latency < y.second.latency;
                         })
            ->second.latency;
    const double max_snoops = 7.0;
    constexpr int kWidth = 56, kHeight = 16;
    std::vector<std::string> canvas(kHeight, std::string(kWidth, ' '));
    std::cout << "\nsnoops/request ^ (labels mark algorithm positions)\n";
    for (Algorithm a : paperAlgorithms()) {
        const auto &pt = points[a];
        const int x = static_cast<int>(pt.latency / max_lat *
                                       (kWidth - 14));
        const int y = kHeight - 1 -
                      static_cast<int>(pt.snoops / max_snoops *
                                       (kHeight - 1));
        const std::string label = std::string(toString(a));
        for (std::size_t i = 0;
             i < label.size() && x + static_cast<int>(i) < kWidth; ++i) {
            canvas[std::clamp(y, 0, kHeight - 1)][x + i] = label[i];
        }
    }
    for (const auto &row : canvas)
        std::cout << " |" << row << '\n';
    std::cout << " +" << std::string(kWidth, '-')
              << "> unloaded request latency\n";

    const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
    std::cout << "\nparallel runner: serial " << std::fixed
              << std::setprecision(2) << serial_s << " s, parallel "
              << parallel_s << " s on " << jobs << " workers (speedup "
              << speedup << "x, "
              << ParallelExecutor::defaultWorkers()
              << " hardware threads), results "
              << (identical ? "bit-identical" : "MISMATCH") << '\n';
    writeBenchRecord(
        "fig4_design_space",
        {{"serial_seconds", serial_s},
         {"parallel_seconds", parallel_s},
         {"jobs", static_cast<double>(jobs)},
         {"hardware_concurrency",
          static_cast<double>(ParallelExecutor::defaultWorkers())},
         {"speedup", speedup},
         {"results_identical", identical ? 1.0 : 0.0}});
    return identical ? 0 : 1;
}
