/**
 * @file
 * flexsnoop_sim — command-line driver for the simulator.
 *
 * Runs one or more (workload, algorithm) combinations on a configurable
 * machine and prints a summary table; optionally exports the full
 * results as CSV or JSON for plotting.
 *
 * Usage:
 *   flexsnoop_sim [options] [key=value ...]
 *     --workloads w1,w2,...   profiles (default: mini)
 *     --algorithms a1,a2,...  algorithms or "paper" (default: paper)
 *     --predictor NAME        force a predictor (sub512..exa8k, y2k, n2k)
 *     --refs N                measured refs per core (profile default)
 *     --warmup N              warmup refs per core (profile default)
 *     --jobs N                parallel simulations (default: hardware
 *                             concurrency; 1 = serial)
 *     --topology flat|hier    ring topology (docs/TOPOLOGY.md)
 *     --local-rings N         local rings in the hierarchy (hier only)
 *     --global-hop-cycles N   latency of one global-ring hop
 *     --trace-out PATH        save the generated traces (binary); with
 *                             more than one workload, one file per
 *                             workload, "_<workload>" inserted before
 *                             PATH's extension
 *     --trace-in PATH         replay traces from a file instead (every
 *                             workload replays it; its core count must
 *                             match the planned machine)
 *     --trace SPEC            record a .fstrace event trace per cell
 *                             (docs/TRACING.md); SPEC is
 *                             FILE[,ring_kb=N][,mode=drop|spill]
 *                             [,snapshot=N]. With more than one cell,
 *                             "_<workload>_<algorithm>" is inserted
 *                             before FILE's extension.
 *     --metrics SPEC          sample counters/gauges into a .fsmetrics
 *                             time-series file per cell
 *                             (docs/TELEMETRY.md); SPEC is
 *                             FILE[,interval=N][,select=GLOB]. Per-cell
 *                             naming as with --trace. Sampling changes
 *                             no result: RunResult and any .fstrace are
 *                             bit-identical with it on or off.
 *     --sweep-log PATH        JSON-lines sweep progress log: cell
 *                             start/finish with status, wall time, ETA
 *                             and peak RSS (docs/TELEMETRY.md)
 *     --csv PATH              write results as CSV
 *     --json PATH             write results as JSON
 *     --list                  list workload profiles, algorithms, and
 *                             metric series selectors
 *     --version               print version and build type
 *     key=value               machine overrides (see config_parser.hh)
 *
 * Unreliable-ring mode and sweep hardening (docs/FAULTS.md):
 *     --faults SPEC           arm fault injection; SPEC is a comma list
 *                             of drop=R, dup=R, delay=R, predictor=R,
 *                             seed=S, delay_cycles=N
 *     --watchdog-cycles N     per-transaction watchdog timeout
 *                             (defaults to 20000 when --faults is on)
 *     --max-retries N         squash/watchdog reissue cap per request
 *     --cell-timeout SEC      per-cell wall-clock budget
 *     --checkpoint PATH       incremental result CSV; re-running skips
 *                             cells already present (sweep resume).
 *                             Rows are keyed by workload, algorithm and
 *                             predictor only: resume with the same
 *                             command line.
 *     --dump-dir PATH         write stuck-transaction dumps here
 *   Every sweep runs crash-isolated: a failing cell is reported as a
 *   FAILED row (and the exit status is 1) instead of aborting the
 *   remaining cells.
 *
 * Examples:
 *   flexsnoop_sim --workloads barnes,specjbb --algorithms lazy,supagg
 *   flexsnoop_sim --workloads ocean --algorithms paper --csv out.csv \
 *       num_rings=1 prefetch_enabled=off
 *   flexsnoop_sim --workloads mini --faults drop=1e-3,seed=7 \
 *       --dump-dir dumps
 */

#include <initializer_list>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "core/cli_parse.hh"
#include "core/config_parser.hh"
#include "core/experiment.hh"
#include "core/parallel_executor.hh"
#include "core/report.hh"
#include "core/version.hh"
#include "workload/profile.hh"
#include "workload/trace_io.hh"

#ifndef FLEXSNOOP_BUILD_TYPE
#define FLEXSNOOP_BUILD_TYPE "unknown"
#endif

using namespace flexsnoop;

namespace
{

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::istringstream iss(list);
    std::string item;
    while (std::getline(iss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

void
usage()
{
    std::cerr
        << "usage: flexsnoop_sim [options] [key=value ...]\n"
           "  --workloads w1,w2,... --algorithms a1,...|paper\n"
           "  --predictor NAME --refs N --warmup N --jobs N\n"
           "  --topology flat|hier --local-rings N "
           "--global-hop-cycles N\n"
           "  --trace-out PATH --trace-in PATH --csv PATH --json PATH\n"
           "  --trace FILE[,ring_kb=N][,mode=drop|spill][,snapshot=N]\n"
           "  --metrics FILE[,interval=N][,select=GLOB] "
           "--sweep-log PATH\n"
           "  --faults drop=R,dup=R,delay=R,predictor=R,seed=S,start=N\n"
           "  --watchdog-cycles N --max-retries N --cell-timeout SEC\n"
           "  --checkpoint PATH --dump-dir PATH\n"
           "  --list --version --help\n"
           "machine override keys:";
    for (const auto &key : configKeys())
        std::cerr << ' ' << key;
    std::cerr << '\n';
}

void
printVersion()
{
    std::cout << "flexsnoop_sim " << kVersionString << " ("
              << FLEXSNOOP_BUILD_TYPE << " build)\n";
}

void
printList()
{
    const auto profile_line = [](const WorkloadProfile &p,
                                 const std::string &note) {
        std::cout << "  " << std::left << std::setw(14) << p.name
                  << p.numCores << " cores / " << p.numCmps()
                  << " CMPs, " << p.refsPerCore << " refs/core"
                  << (note.empty() ? "" : ", " + note) << '\n';
    };
    std::cout << "workload profiles:\n";
    profile_line(miniProfile(), "small/fast SPLASH-2-like");
    for (const auto &p : splash2Profiles())
        profile_line(p, "SPLASH-2-like");
    profile_line(specJbbProfile(), "SPECjbb-like, little sharing");
    profile_line(specWebProfile(), "SPECweb-like, moderate sharing");

    struct AlgoDesc
    {
        const char *name;
        const char *desc;
    };
    // One line per paper algorithm (Tables 1 and 3), plus the adaptive
    // extension; names are accepted case-insensitively.
    static const AlgoDesc algos[] = {
        {"lazy", "snoop then forward at every node (fewest messages)"},
        {"eager", "forward then snoop at every node (lowest latency)"},
        {"oracle", "perfect predictor: snoop only at the supplier"},
        {"subset",
         "subset predictor: positive snoops-then-forwards, negative "
         "forwards-then-snoops"},
        {"supersetcon",
         "superset predictor, conservative: positive "
         "snoops-then-forwards, negative just forwards"},
        {"supersetagg",
         "superset predictor, aggressive: positive "
         "forwards-then-snoops, negative just forwards"},
        {"exact",
         "exact predictor with forced downgrades: positive "
         "snoops-then-forwards, negative just forwards"},
        {"adaptive",
         "extension: switches between supersetcon and supersetagg at "
         "run time"},
    };
    std::cout << "algorithms (--algorithms, or \"paper\" for the first "
                 "seven):\n";
    for (const AlgoDesc &a : algos)
        std::cout << "  " << std::left << std::setw(14) << a.name
                  << a.desc << '\n';

    std::cout << "topologies (--topology; docs/TOPOLOGY.md):\n"
              << "  " << std::left << std::setw(14) << "flat"
              << "one embedded ring over all nodes (the paper's "
                 "machine)\n"
              << "  " << std::left << std::setw(14) << "hier"
              << "local rings joined by a global ring via bridge "
                 "gateways;\n"
              << "  " << std::setw(14) << ""
              << "size with --local-rings N (nodes must divide evenly) "
                 "and\n"
              << "  " << std::setw(14) << ""
              << "--global-hop-cycles N; per-level algorithm via "
                 "global_algorithm=\n";

    struct SelectorDesc
    {
        const char *glob;
        const char *desc;
    };
    // Series families the sampler registers; --metrics select= globs
    // match against these names (docs/TELEMETRY.md).
    static const SelectorDesc selectors[] = {
        {"ctrl.*", "coherence-controller counters and in-flight gauges"},
        {"queue.*", "event-queue depth, horizon, and executed events"},
        {"ring<N>.*", "per-ring link traversals and busy-link occupancy"},
        {"net.*", "global-ring (hier) link traversals"},
        {"pred.*", "aggregated predictor accuracy and hit rate"},
        {"bridge.*", "bridge skip/descend counts (hier topology only)"},
        {"faults.*", "injected-fault counters (--faults only)"},
        {"mem.*", "memory-controller writebacks"},
        {"energy.*", "cumulative energy account (nJ)"},
    };
    std::cout << "metric series selectors (--metrics ...,select=GLOB; "
                 ".fsmetrics format v"
              << kMetricsVersion << "):\n";
    for (const SelectorDesc &s : selectors)
        std::cout << "  " << std::left << std::setw(14) << s.glob << s.desc
                  << '\n';
}

/**
 * Per-workload or per-cell artifact path: insert "_<part>" for each of
 * @p parts before the extension of @p base (or append them when there
 * is none), so each workload or cell of a sweep writes its own file.
 */
std::string
splitFilePath(const std::string &base,
              std::initializer_list<std::string_view> parts)
{
    std::string suffix;
    for (std::string_view part : parts) {
        suffix += '_';
        suffix += part;
    }
    const auto slash = base.find_last_of("/\\");
    const auto dot = base.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return base + suffix;
    return base.substr(0, dot) + suffix + base.substr(dot);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<Algorithm> algorithms = paperAlgorithms();
    std::vector<std::string> workloads = {"mini"};
    std::string predictor, trace_out, trace_in, csv_path, json_path;
    std::string faults_spec, trace_spec, metrics_spec;
    SweepHardening hardening;
    std::size_t refs = 0, warmup = SIZE_MAX;
    std::uint64_t watchdog_cycles = UINT64_MAX; // unset
    std::uint64_t max_retries = 0;              // unset
    std::size_t jobs = ParallelExecutor::defaultWorkers();
    std::vector<std::string> overrides;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        try {
            if (arg == "--workloads") {
                workloads = splitCommas(next());
            } else if (arg == "--algorithms") {
                const std::string value = next();
                if (value == "paper") {
                    algorithms = paperAlgorithms();
                } else {
                    algorithms.clear();
                    for (const auto &name : splitCommas(value))
                        algorithms.push_back(algorithmFromName(name));
                }
            } else if (arg == "--predictor") {
                predictor = next();
            } else if (arg == "--refs") {
                refs = parseUnsignedArg(arg, next());
            } else if (arg == "--warmup") {
                warmup = parseUnsignedArg(arg, next());
            } else if (arg == "--jobs") {
                jobs = parseUnsignedArg(arg, next());
            } else if (arg == "--topology") {
                const std::string value = next();
                topologyKindFromName(value); // validate, with diagnostics
                overrides.push_back("topology=" + value);
            } else if (arg == "--local-rings") {
                overrides.push_back(
                    "local_rings=" +
                    std::to_string(parseUnsignedArg(arg, next())));
            } else if (arg == "--global-hop-cycles") {
                overrides.push_back(
                    "global_hop_cycles=" +
                    std::to_string(parseUnsignedArg(arg, next())));
            } else if (arg == "--trace-out") {
                trace_out = next();
            } else if (arg == "--trace-in") {
                trace_in = next();
            } else if (arg == "--trace") {
                trace_spec = next();
                TraceConfig::fromSpec(trace_spec); // validate early
            } else if (arg == "--metrics") {
                metrics_spec = next();
                MetricsConfig::fromSpec(metrics_spec); // validate early
            } else if (arg == "--sweep-log") {
                hardening.sweepLogPath = next();
            } else if (arg == "--csv") {
                csv_path = next();
            } else if (arg == "--json") {
                json_path = next();
            } else if (arg == "--faults") {
                faults_spec = next();
            } else if (arg == "--watchdog-cycles") {
                watchdog_cycles = parseUnsignedArg(arg, next());
            } else if (arg == "--max-retries") {
                max_retries = parseUnsignedArg(arg, next());
            } else if (arg == "--cell-timeout") {
                hardening.cellWallClockLimitSec =
                    parseDoubleArg(arg, next());
            } else if (arg == "--checkpoint") {
                hardening.checkpointPath = next();
            } else if (arg == "--dump-dir") {
                hardening.dumpDir = next();
            } else if (arg == "--list") {
                printList();
                return 0;
            } else if (arg == "--version") {
                printVersion();
                return 0;
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else if (arg.find('=') != std::string::npos) {
                overrides.push_back(arg);
            } else {
                std::cerr << "unknown argument: " << arg << '\n';
                usage();
                return 2;
            }
        } catch (const std::exception &e) {
            std::cerr << "error: " << e.what() << '\n';
            return 2;
        }
    }

    // Plan first, run second: configs are prepared serially (overrides
    // mutate them), then every (workload, algorithm) cell runs as an
    // independent job on the worker pool. Results keep plan order, so
    // the output is identical to the serial loop. A cell that fails is
    // reported (and the exit status is 1) without aborting the others.
    std::vector<RunResult> results;
    try {
        FaultConfig fault_config;
        if (!faults_spec.empty())
            fault_config = FaultConfig::fromSpec(faults_spec);
        TraceConfig trace_config;
        if (!trace_spec.empty())
            trace_config = TraceConfig::fromSpec(trace_spec);
        MetricsConfig metrics_config;
        if (!metrics_spec.empty())
            metrics_config = MetricsConfig::fromSpec(metrics_spec);
        const std::size_t total_cells =
            workloads.size() * algorithms.size();

        std::vector<WorkloadProfile> profiles;
        for (const auto &workload : workloads) {
            WorkloadProfile profile = profileByName(workload);
            if (refs > 0)
                profile.refsPerCore = refs;
            if (warmup != SIZE_MAX)
                profile.warmupRefs = warmup;
            profiles.push_back(std::move(profile));
        }

        // One trace set per workload: generated on the worker pool, or
        // the --trace-in file, replayed by every workload.
        SweepPlan plan;
        if (trace_in.empty())
            plan = planSweep({}, profiles, jobs);
        else
            plan.traces.assign(profiles.size(), loadTraces(trace_in));
        // --trace-out: one file per workload, named like per-cell
        // files when the sweep has more than one workload.
        if (!trace_out.empty()) {
            for (std::size_t w = 0; w < profiles.size(); ++w) {
                saveTraces(profiles.size() > 1
                               ? splitFilePath(trace_out, {workloads[w]})
                               : trace_out,
                           plan.traces[w]);
            }
        }

        for (std::size_t w = 0; w < profiles.size(); ++w) {
            const WorkloadProfile &profile = profiles[w];
            const std::string &workload = workloads[w];
            for (Algorithm algorithm : algorithms) {
                MachineConfig cfg = MachineConfig::paperDefault(
                    algorithm, profile.coresPerCmp);
                cfg.setNumCmps(profile.numCmps());
                applyOverrides(cfg, overrides);
                if (!predictor.empty() &&
                    cfg.predictor.kind != PredictorKind::None &&
                    cfg.predictor.kind != PredictorKind::Perfect) {
                    applyOverride(cfg, "predictor=" + predictor);
                }
                cfg.faults = fault_config;
                if (watchdog_cycles != UINT64_MAX)
                    cfg.coherence.watchdogCycles = watchdog_cycles;
                else if (cfg.faults.armed() &&
                         cfg.coherence.watchdogCycles == 0)
                    cfg.coherence.watchdogCycles = 20000;
                if (max_retries > 0)
                    cfg.coherence.maxRetries =
                        static_cast<unsigned>(max_retries);
                if (trace_config.enabled()) {
                    cfg.trace = trace_config;
                    if (total_cells > 1)
                        cfg.trace.path =
                            splitFilePath(trace_config.path,
                                          {workload, toString(algorithm)});
                }
                if (metrics_config.enabled()) {
                    cfg.metrics = metrics_config;
                    if (total_cells > 1)
                        cfg.metrics.path =
                            splitFilePath(metrics_config.path,
                                          {workload, toString(algorithm)});
                }
                // A machine cannot replay traces of another core count;
                // reject them here rather than abort mid-sweep.
                const std::size_t trace_cores = plan.traces[w].numCores();
                if (trace_cores != cfg.numCores()) {
                    throw std::runtime_error(
                        (trace_in.empty() ? "workload " + workload
                                          : trace_in) +
                        ": traces have " + std::to_string(trace_cores) +
                        " cores, but the planned " + workload +
                        " machine has " + std::to_string(cfg.numCores()));
                }
                std::cerr << "planned " << workload << " / "
                          << toString(algorithm) << '\n';
                plan.cells.push_back(
                    PlannedCell{std::move(cfg), w, profile.name});
            }
        }

        std::cerr << "running " << plan.cells.size()
                  << " simulation(s) on " << jobs << " worker(s)...\n";
        if (!faults_spec.empty())
            std::cerr << "fault injection: " << fault_config.describe()
                      << '\n';
        if (trace_config.enabled())
            std::cerr << "event tracing: one .fstrace per cell "
                         "(decode with flexsnoop_trace)\n";
        if (metrics_config.enabled())
            std::cerr << "telemetry: one .fsmetrics per cell, interval "
                      << metrics_config.intervalCycles
                      << " (analyze with flexsnoop_metrics)\n";
        results = runCells(plan, jobs, hardening);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }

    // Summary table.
    std::cout << std::left << std::setw(12) << "workload" << std::setw(14)
              << "algorithm" << std::right << std::setw(13)
              << "exec cycles" << std::setw(12) << "snoops/req"
              << std::setw(11) << "msgs/req" << std::setw(13)
              << "energy (uJ)" << std::setw(10) << "lat p50"
              << std::setw(10) << "lat p95" << '\n'
              << std::string(95, '-') << '\n';
    std::size_t failed_cells = 0;
    for (const auto &r : results) {
        if (r.failed) {
            ++failed_cells;
            std::cout << std::left << std::setw(12) << r.workload
                      << std::setw(14) << r.algorithm
                      << "  FAILED: " << r.error << '\n';
            continue;
        }
        std::cout << std::left << std::setw(12) << r.workload
                  << std::setw(14) << r.algorithm << std::right
                  << std::setw(13) << r.execCycles << std::fixed
                  << std::setprecision(2) << std::setw(12)
                  << r.snoopsPerReadRequest << std::setw(11)
                  << r.readLinkMessagesPerRequest << std::setprecision(1)
                  << std::setw(13) << r.energyNj / 1e3
                  << std::setprecision(0) << std::setw(10)
                  << r.p50ReadLatency << std::setw(10)
                  << r.p95ReadLatency << '\n';
    }

    if (!csv_path.empty()) {
        saveCsv(csv_path, results);
        std::cerr << "wrote " << csv_path << '\n';
    }
    if (!json_path.empty()) {
        saveJson(json_path, results);
        std::cerr << "wrote " << json_path << '\n';
    }
    if (failed_cells > 0) {
        std::cerr << failed_cells << " of " << results.size()
                  << " cell(s) failed\n";
        return 1;
    }
    return 0;
}
