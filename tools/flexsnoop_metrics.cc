/**
 * @file
 * flexsnoop_metrics — offline analyzer for `.fsmetrics` time-series
 * captures (docs/TELEMETRY.md).
 *
 * Usage:
 *   flexsnoop_metrics [options] FILE.fsmetrics
 *     --summary            per-series summary table (the default)
 *     --csv PATH           export all columns as CSV ("-" = stdout)
 *     --prom PATH          export final values in Prometheus textfile
 *                          format ("-" = stdout)
 *     --align TRACE        cross-validate against the CounterSnapshot
 *                          records of a .fstrace from the same run
 *     --detect             run the health detectors and report onset
 *                          cycles (retry storm, predictor drift, ring
 *                          saturation, queue-horizon blowout)
 *     --json               machine-readable --detect output
 *     --sustain N          detector trip persistence (samples)
 *     --version --help
 *
 * Exit status: 0 on success (findings or not), 1 on error, 2 on usage.
 * Scripts gate on the "fired" fields of --detect --json, not on the
 * exit status, so a monitoring pass that finds problems still exits 0.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli_parse.hh"
#include "core/version.hh"
#include "telemetry/health.hh"
#include "telemetry/metrics_align.hh"
#include "telemetry/metrics_reader.hh"
#include "trace/trace_reader.hh"

#ifndef FLEXSNOOP_BUILD_TYPE
#define FLEXSNOOP_BUILD_TYPE "unknown"
#endif

using namespace flexsnoop;

namespace
{

void
usage()
{
    std::cerr << "usage: flexsnoop_metrics [options] FILE.fsmetrics\n"
                 "  --summary            per-series summary (default)\n"
                 "  --csv PATH|-         export columns as CSV\n"
                 "  --prom PATH|-        Prometheus textfile export\n"
                 "  --align TRACE        cross-check a .fstrace capture\n"
                 "  --detect [--json]    run health detectors\n"
                 "  --sustain N          detector trip persistence\n"
                 "  --version --help\n";
}

const char *
kindName(SeriesKind kind)
{
    return kind == SeriesKind::Counter ? "counter" : "gauge";
}

void
printSummary(const MetricsFile &file, const std::string &path)
{
    const auto &h = file.header;
    std::cout << path << ": .fsmetrics v" << h.version << ", "
              << h.seriesCount << " series x " << h.sampleCount
              << " samples, interval " << h.intervalCycles << " cycles, "
              << h.numNodes << " nodes / " << h.numCores << " cores\n";
    if (h.measureStartCycle == kMetricsNoMeasureStart)
        std::cout << "measure start: not reached (all-warmup capture)\n";
    else
        std::cout << "measure start: cycle " << h.measureStartCycle
                  << " (statistics reset here)\n";
    if (file.cycles.empty())
        return;
    std::cout << "cycles " << file.cycles.front() << ".."
              << file.cycles.back() << "\n\n";

    std::cout << std::left << std::setw(36) << "series" << std::setw(9)
              << "kind" << std::right << std::setw(12) << "first"
              << std::setw(14) << "last" << std::setw(14) << "min"
              << std::setw(14) << "max" << '\n'
              << std::string(99, '-') << '\n';
    for (std::size_t s = 0; s < file.names.size(); ++s) {
        const auto &col = file.columns[s];
        const auto [mn, mx] = std::minmax_element(col.begin(), col.end());
        std::cout << std::left << std::setw(36) << file.names[s]
                  << std::setw(9) << kindName(file.kinds[s]) << std::right
                  << std::setw(12) << col.front() << std::setw(14)
                  << col.back() << std::setw(14) << *mn << std::setw(14)
                  << *mx << '\n';
    }
}

/** Open @p path for writing, or alias stdout for "-". */
std::ostream &
openOut(const std::string &path, std::ofstream &file)
{
    if (path == "-")
        return std::cout;
    file.open(path, std::ios::trunc);
    if (!file)
        throw std::runtime_error("cannot create output file: " + path);
    return file;
}

void
exportCsv(const MetricsFile &file, const std::string &path)
{
    std::ofstream out_file;
    std::ostream &os = openOut(path, out_file);
    os << "cycle";
    for (const auto &name : file.names)
        os << ',' << name;
    os << '\n';
    for (std::size_t i = 0; i < file.cycles.size(); ++i) {
        os << file.cycles[i];
        for (const auto &col : file.columns)
            os << ',' << col[i];
        os << '\n';
    }
}

void
exportProm(const MetricsFile &file, const std::string &path)
{
    std::ofstream out_file;
    std::ostream &os = openOut(path, out_file);
    if (file.cycles.empty())
        return;
    os << "# HELP flexsnoop_sample_cycle Simulated cycle of the last "
          "metric sample\n"
          "# TYPE flexsnoop_sample_cycle gauge\n"
          "flexsnoop_sample_cycle "
       << file.cycles.back() << '\n';
    for (std::size_t s = 0; s < file.names.size(); ++s) {
        std::string prom = "flexsnoop_" + file.names[s];
        for (char &c : prom) {
            if (c == '.' || c == '-')
                c = '_';
        }
        os << "# TYPE " << prom << ' ' << kindName(file.kinds[s]) << '\n'
           << prom << ' ' << file.columns[s].back() << '\n';
    }
}

/** Print the --align report; @return the exit status. */
int
alignWithTrace(const MetricsFile &file, const std::string &trace_path)
{
    const TraceFile trace = loadTrace(trace_path);
    const AlignmentReport report = alignMetricsWithTrace(file, trace);

    std::cout << "aligning " << trace_path << " (" << trace.records.size()
              << " records) from cycle " << report.barrier << ":\n";
    for (const CounterAlignment &c : report.counters) {
        if (c.consistent) {
            std::cout << "  " << c.series << ": consistent ("
                      << c.tracePoints << " trace snapshots vs "
                      << c.metricPoints << " metric samples)\n";
        } else {
            std::cout << "  " << c.series << ": INCONSISTENT at cycle "
                      << c.drop.cycle << " (" << c.drop.value
                      << " after " << c.before.value << " at cycle "
                      << c.before.cycle << ")\n";
        }
    }
    if (report.counters.empty()) {
        std::cout << "  no overlapping counters (trace has no "
                     "CounterSnapshot records, or ctrl.* was filtered "
                     "out of the metrics)\n";
    }
    return report.consistent() ? 0 : 1;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

void
printFindings(const std::vector<HealthFinding> &findings, bool as_json,
              const std::string &path)
{
    if (as_json) {
        std::ostringstream os;
        os << "{\"file\":\"" << jsonEscape(path) << "\",\"findings\":[";
        for (std::size_t i = 0; i < findings.size(); ++i) {
            const HealthFinding &f = findings[i];
            os << (i ? "," : "") << "{\"detector\":\"" << f.detector
               << "\",\"series\":\"" << jsonEscape(f.series)
               << "\",\"fired\":" << (f.fired ? "true" : "false")
               << ",\"onset_cycle\":" << f.onsetCycle
               << ",\"baseline\":" << f.baseline << ",\"peak\":" << f.peak
               << ",\"detail\":\"" << jsonEscape(f.detail) << "\"}";
        }
        os << "]}";
        std::cout << os.str() << '\n';
        return;
    }
    if (findings.empty()) {
        std::cout << "no detector had enough data to evaluate\n";
        return;
    }
    for (const HealthFinding &f : findings) {
        std::cout << (f.fired ? "[FIRED] " : "[ok]    ") << std::left
                  << std::setw(16) << f.detector << ' ' << f.detail
                  << '\n';
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string input, csv_path, prom_path, align_path;
    bool detect = false, as_json = false, summary = false;
    HealthThresholds thresholds;

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
            if (arg == "--summary") {
                summary = true;
            } else if (arg == "--csv") {
                csv_path = next();
            } else if (arg == "--prom") {
                prom_path = next();
            } else if (arg == "--align") {
                align_path = next();
            } else if (arg == "--detect") {
                detect = true;
            } else if (arg == "--json") {
                as_json = true;
            } else if (arg == "--sustain") {
                thresholds.sustainSamples = static_cast<std::size_t>(
                    parseUnsignedArg(arg, next()));
            } else if (arg == "--version") {
                std::cout << "flexsnoop_metrics " << kVersionString << " ("
                          << FLEXSNOOP_BUILD_TYPE << " build)\n";
                return 0;
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else if (!arg.empty() && arg[0] == '-') {
                std::cerr << "unknown argument: " << arg << '\n';
                usage();
                return 2;
            } else if (input.empty()) {
                input = arg;
            } else {
                std::cerr << "multiple input files given\n";
                usage();
                return 2;
            }
        } catch (const std::exception &e) {
            std::cerr << "error: " << e.what() << '\n';
            return 2;
        }
    }
    if (input.empty()) {
        usage();
        return 2;
    }

    try {
        const MetricsFile file = loadMetrics(input);

        const bool only_summary = !detect && csv_path.empty() &&
                                  prom_path.empty() && align_path.empty();
        if (summary || only_summary)
            printSummary(file, input);
        if (!csv_path.empty()) {
            exportCsv(file, csv_path);
            if (csv_path != "-")
                std::cerr << "wrote " << csv_path << '\n';
        }
        if (!prom_path.empty()) {
            exportProm(file, prom_path);
            if (prom_path != "-")
                std::cerr << "wrote " << prom_path << '\n';
        }
        int align_status = 0;
        if (!align_path.empty())
            align_status = alignWithTrace(file, align_path);
        if (detect)
            printFindings(runHealthDetectors(file, thresholds), as_json,
                          input);
        return align_status;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
