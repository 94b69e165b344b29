/**
 * @file
 * Node-count scaling study (paper §1/§2.1.4: the embedded-ring approach
 * "is certainly appropriate for medium-range machines -- for example,
 * systems with 8-16 nodes", and its drawback -- snoop latency and
 * operations growing with the ring -- is what Flexible Snooping
 * attacks).
 *
 * Sweeps the machine from 4 to 16 CMPs under Lazy, Eager, Superset Agg
 * and Oracle on a SPECweb-like workload scaled per node, and reports
 * how snoops/request and read latency grow with N.
 */

#include <iomanip>
#include <iostream>

#include "bench_common.hh"

using namespace flexsnoop;
using namespace flexsnoop::bench;

int
main()
{
    std::cout << "=== Scaling: 4 to 16 CMPs on the embedded ring ===\n";

    const std::vector<std::size_t> node_counts = {4, 8, 12, 16};
    const std::vector<Algorithm> algos = {
        Algorithm::Lazy,
        Algorithm::Eager,
        Algorithm::SupersetAgg,
        Algorithm::Oracle,
    };

    std::vector<WorkloadProfile> profiles;
    for (std::size_t n : node_counts) {
        WorkloadProfile profile = specWebProfile();
        profile.name = "web" + std::to_string(n);
        profile.numCores = n;
        profile.coresPerCmp = 1;
        scaleProfile(profile, 6000, 1500);
        profiles.push_back(profile);
    }
    std::cerr << "  running " << profiles.size() << " node counts x "
              << algos.size() << " algorithms...\n";
    const std::vector<SweepResult> sweeps =
        runSweeps(algos, profiles, benchJobs());

    std::cout << '\n'
              << std::left << std::setw(13) << "algorithm" << std::right
              << std::setw(7) << "CMPs" << std::setw(13) << "snoops/req"
              << std::setw(13) << "read lat" << std::setw(14)
              << "exec cycles" << '\n'
              << std::string(60, '-') << '\n';

    for (std::size_t a = 0; a < algos.size(); ++a) {
        for (std::size_t n = 0; n < node_counts.size(); ++n) {
            const RunResult &r = sweeps[n].runs[a];
            std::cout << std::left << std::setw(13) << toString(algos[a])
                      << std::right << std::setw(7) << node_counts[n]
                      << std::fixed << std::setprecision(2)
                      << std::setw(13) << r.snoopsPerReadRequest
                      << std::setprecision(0) << std::setw(13)
                      << r.avgReadLatency << std::setw(14)
                      << r.execCycles << '\n';
        }
        std::cout << '\n';
    }

    std::cout << "expectation: Lazy's snoops and latency grow roughly "
                 "linearly with N; Eager's snoops grow as N-1 while its "
                 "latency grows only with the ring circumference; "
                 "Superset Agg keeps snoops nearly flat (predictor "
                 "filtering) and tracks Oracle's latency at every size "
                 "-- the gap to Lazy widens with N, which is the paper's "
                 "motivation.\n";
    return 0;
}
