/**
 * @file
 * Hierarchical-topology scaling study (docs/TOPOLOGY.md): flat embedded
 * ring vs a two-level hierarchy (8-node local rings joined by a global
 * ring via bridge gateways) from 16 to 128 nodes, all seven paper
 * algorithms, identical traces per node count.
 *
 * The flat ring's snoop latency grows with N: a read round walks all
 * N-1 remote nodes. The hierarchy caps the walk at one local ring plus
 * the global ring whenever the bridges' aggregate predictors let whole
 * blocks be skipped, so the predictive algorithms (whose action table
 * maps a negative prediction to Forward) should pull away from their
 * flat counterparts as N grows — that latency ratio is the gating
 * metric of this bench.
 *
 * Perf record: BENCH_hier_topology.json. speedup_* entries are
 * simulated-cycle ratios (flat latency / hier latency) and gate the
 * build for the skip-capable algorithms at 64 and 128 nodes; ratios
 * for Lazy/Eager/Subset (which never skip reads and just pay the
 * global-hop tax) are recorded informationally.
 */

#include <cctype>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench_common.hh"

using namespace flexsnoop;
using namespace flexsnoop::bench;

namespace
{

std::string
lowerName(Algorithm a)
{
    std::string s(toString(a));
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

bool
canSkipReads(Algorithm a)
{
    const auto policy = makePolicy(a);
    return policy->usesPredictor() &&
           policy->onPrediction(false) == Primitive::Forward;
}

} // namespace

int
main()
{
    std::cout << "=== Hierarchical topology: flat vs two-level ring, "
                 "16 to 128 nodes ===\n";

    const std::vector<std::size_t> node_counts = {16, 32, 64, 128};
    const std::vector<Algorithm> algos = paperAlgorithms();

    WorkloadProfile base = miniProfile();
    scaleProfile(base, 1500, 400);

    std::cerr << "  " << node_counts.size() << " node counts x 2 "
              << "topologies x " << algos.size() << " algorithms on "
              << benchJobs() << " worker(s)...\n";
    const std::vector<RunResult> runs = runBenchCells(
        planHierSweep(algos, node_counts, benchJobs(), 62, base));

    // runs order: node_counts x {flat, hier} x algorithms.
    const std::size_t width = algos.size();
    const auto cell = [&](std::size_t n_idx, bool hier,
                          std::size_t a_idx) -> const RunResult & {
        return runs[n_idx * 2 * width + (hier ? width : 0) + a_idx];
    };

    std::cout << '\n'
              << std::left << std::setw(13) << "algorithm" << std::right
              << std::setw(7) << "nodes" << std::setw(11) << "flat lat"
              << std::setw(11) << "hier lat" << std::setw(9) << "ratio"
              << std::setw(12) << "blk skips" << std::setw(12)
              << "descends" << std::setw(12) << "glob msgs" << '\n'
              << std::string(87, '-') << '\n';

    std::vector<std::pair<std::string, double>> metrics;
    for (std::size_t a = 0; a < width; ++a) {
        const std::string name = lowerName(algos[a]);
        const bool gates = canSkipReads(algos[a]);
        for (std::size_t n = 0; n < node_counts.size(); ++n) {
            const RunResult &flat = cell(n, false, a);
            const RunResult &hier = cell(n, true, a);
            const double ratio =
                hier.avgReadLatency > 0.0
                    ? flat.avgReadLatency / hier.avgReadLatency
                    : 0.0;
            std::cout << std::left << std::setw(13) << toString(algos[a])
                      << std::right << std::setw(7) << node_counts[n]
                      << std::fixed << std::setprecision(0)
                      << std::setw(11) << flat.avgReadLatency
                      << std::setw(11) << hier.avgReadLatency
                      << std::setprecision(2) << std::setw(9) << ratio
                      << std::setw(12) << hier.bridgeSkips
                      << std::setw(12) << hier.bridgeDescends
                      << std::setw(12) << hier.globalLinkMessages << '\n';

            // Simulated-cycle ratios are machine-independent; gate the
            // skip-capable algorithms where the hierarchy must win.
            std::ostringstream key;
            const bool gate = gates && node_counts[n] >= 64;
            key << (gate ? "speedup_latency_" : "latency_ratio_") << name
                << "_n" << node_counts[n];
            metrics.emplace_back(key.str(), ratio);
        }
        std::cout << '\n';
    }

    // Bridge effectiveness at the largest machine (informational).
    for (std::size_t a = 0; a < width; ++a) {
        const RunResult &hier = cell(node_counts.size() - 1, true, a);
        const double decisions = static_cast<double>(
            hier.bridgeSkips + hier.bridgeDescends);
        metrics.emplace_back(
            "skip_fraction_" + lowerName(algos[a]) + "_n128",
            decisions > 0.0 ? hier.bridgeSkips / decisions : 0.0);
    }

    writeBenchRecord("hier_topology", metrics);

    std::cout << "expectation: Lazy/Eager/Subset never skip a block, so "
                 "their hierarchical ratio sits below 1 (the global-hop "
                 "tax); the negative-prediction-forwards algorithms "
                 "(Oracle, SupersetCon, SupersetAgg, Exact) skip most "
                 "remote blocks and beat the flat ring at 64+ nodes, "
                 "with the gap widening at 128.\n";
    return 0;
}
