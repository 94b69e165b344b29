/**
 * @file
 * flexbench — the end-to-end benchmark's C++ program (see README.md).
 *
 *   flexbench --workload NAME --out DIR [--seed S] [--seconds T]
 *             [--scale X] [--traced]
 *
 * Runs one named workload through the library's public entry points
 * (SyntheticGenerator::generate, runSimulation, loadTrace/analyzeTrace/
 * criticalPath, loadMetrics), one cell at a time on one thread, and
 * writes DIR/report.json: every end-to-end metric by name and unit, the
 * full RunResult of every cell (for the golden check flexbench.py does),
 * and the outcome of every built-in correctness check. With --traced it
 * instead runs the traced pass: it mirrors runSimulation()'s public call
 * sequence with a span around each call, writes DIR/spans.json (Chrome
 * trace-event JSON) and reports the per-layer metrics.
 *
 * It never parses tool output: the critical path comes from
 * criticalPath() directly.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "coherence/controller.hh"
#include "core/experiment.hh"
#include "core/machine.hh"
#include "core/simulation.hh"
#include "telemetry/metrics_reader.hh"
#include "trace/trace_analysis.hh"
#include "trace/trace_reader.hh"
#include "workload/synthetic_generator.hh"

extern char **environ;

using namespace flexsnoop;
namespace fsys = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

std::string
fmt17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

/** JSON number; a non-finite value (never expected) becomes null. */
std::string
jsonNumber(double v)
{
    return std::isfinite(v) ? fmt17(v) : "null";
}

// ------------------------------------------------------------------ //
// Host-speed probe

/** Written by every probe so the compiler keeps the probe's work. */
volatile std::uint64_t probeSink = 0;

/**
 * The benchmark runs on hosts whose cores, caches and memory are shared
 * with other tenants. On the shared 4-vCPU Xeon host the bounds were
 * set on, their load moved the simulator's host time by up to 1.5x within
 * minutes, far more than the changes the benchmark must resolve, while
 * a compute-only loop moved by a few percent and a pointer chase over
 * 8-32 MiB by half to three quarters as much as the simulator. A small
 * discrete-event loop built like the simulator's hot path (a priority
 * queue of std::function events, hash-map lookups, scattered writes
 * over a few MiB) followed the simulator: over ten runs per workload
 * its median and the simulator's time correlated at 0.96-0.99, with a
 * fitted slope of 1.0-1.3. It is timed right before every cell, and
 * host times are reported rescaled by kReferenceS / (median probe time
 * of the run): seconds on a host where the probe takes kReferenceS. The
 * probe is part of the benchmark, not of the library, so a change to
 * the simulator never changes it.
 */
class HostProbe
{
  public:
    /** Median probe time on the reference host (quiet). */
    static constexpr double kReferenceS = 0.0090;

    HostProbe() : _lines(1u << 19)
    {
        for (std::uint64_t i = 0; i < kKeys; ++i)
            _table[i * kKeyStride] = i;
    }

    /** Time one probe and keep the sample. */
    void
    sample()
    {
        const auto t0 = Clock::now();
        probeSink = probeSink + simulate(20000);
        _samples.push_back(secondsSince(t0));
    }

    /** Multiply a host time measured during this run by this. */
    double
    factor() const
    {
        return _samples.empty() ? 1.0 : kReferenceS / median(_samples);
    }

  private:
    static constexpr std::uint64_t kKeys = 1u << 17;
    static constexpr std::uint64_t kKeyStride = 2654435761u;

    std::uint64_t
    next()
    {
        _rng ^= _rng << 13;
        _rng ^= _rng >> 7;
        _rng ^= _rng << 17;
        return _rng;
    }

    /** Run @p events events, each scheduling one more at a random delay;
     *  returns a checksum. */
    std::uint64_t
    simulate(int events)
    {
        using Event = std::pair<std::uint64_t, std::function<void()>>;
        const auto later = [](const Event &a, const Event &b) {
            return a.first > b.first;
        };
        std::priority_queue<Event, std::vector<Event>, decltype(later)> queue(
            later);
        std::uint64_t acc = 0;
        const std::uint64_t mask = _lines.size() - 1;
        const auto touch = [this, &acc, mask](std::uint64_t r) {
            acc += _lines[r & mask]++;
            if (r & 1)
                acc ^= _lines[(r >> 20) & mask];
        };
        for (int i = 0; i < 256; ++i) {
            const std::uint64_t r = next();
            queue.push({r % 1000, [touch, r]() { touch(r); }});
        }
        for (int i = 0; i < events; ++i) {
            const Event ev = queue.top();
            queue.pop();
            ev.second();
            const auto it = _table.find((next() % kKeys) * kKeyStride);
            acc += it->second;
            const std::uint64_t r = next();
            queue.push({ev.first + 1 + r % 500, [touch, r]() { touch(r); }});
        }
        return acc;
    }

    std::unordered_map<std::uint64_t, std::uint64_t> _table;
    std::vector<std::uint64_t> _lines; ///< 4 MiB
    std::uint64_t _rng = 0x9E3779B97F4A7C15ull;
    std::vector<double> _samples;
};

// ------------------------------------------------------------------ //
// Options

struct Options
{
    std::string workload;
    std::string outDir;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    double scale = 0.25;
    bool traced = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "flexbench: " << why << "\n"
              << "usage: flexbench --workload splash|commercial|scale64|"
                 "observed --out DIR [--seed S] [--seconds T] "
                 "[--scale X] [--traced]\n";
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                o.workload = next();
            else if (arg == "--out")
                o.outDir = next();
            else if (arg == "--seed")
                o.seed = std::stoull(next());
            else if (arg == "--seconds")
                o.seconds = std::stod(next());
            else if (arg == "--scale")
                o.scale = std::stod(next());
            else if (arg == "--traced")
                o.traced = true;
            else
                usage("unknown argument " + arg);
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    if (o.workload.empty() || o.outDir.empty())
        usage("--workload and --out are required");
    if (!(o.scale > 0.0) || !(o.seconds >= 0.0))
        usage("--scale must be > 0 and --seconds >= 0");
    return o;
}

/** The library still reads a few process-global FLEXSNOOP_* switches
 *  (scheduler, probe signatures, express path, queue stats). Any of
 *  them would silently change what is measured. */
void
refuseEnvSwitches()
{
    for (char **env = environ; env && *env; ++env) {
        if (std::strncmp(*env, "FLEXSNOOP_", 10) == 0) {
            std::cerr << "flexbench: refusing to run with " << *env
                      << " set; unset every FLEXSNOOP_* variable\n";
            std::exit(2);
        }
    }
}

// ------------------------------------------------------------------ //
// Workloads

/** One simulation of the workload: a machine replaying one trace set. */
struct Cell
{
    std::string id;          ///< "<profile>/<topology>/<algorithm>"
    std::string group;       ///< "<profile>/<topology>": Lazy-ratio base
    std::size_t traceIndex;  ///< into Workload::profiles
    MachineConfig cfg;
    bool lazy = false;
};

struct Workload
{
    std::string name;
    std::vector<WorkloadProfile> profiles;
    std::vector<Cell> cells;
    bool observed = false; ///< captures and decodes .fstrace/.fsmetrics
};

WorkloadProfile
sized(WorkloadProfile p, double refs, double warmup, const Options &o)
{
    p.refsPerCore = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(refs * o.scale)));
    p.warmupRefs = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(warmup * o.scale)));
    p.seed += o.seed;
    return p;
}

void
addCells(Workload &w, std::size_t trace_index,
         const std::vector<Algorithm> &algorithms, bool hier,
         bool write_filtering)
{
    const WorkloadProfile &p = w.profiles[trace_index];
    const std::string group = p.name + (hier ? "/hier" : "/flat");
    for (const Algorithm a : algorithms) {
        Cell c;
        c.id = group + "/" + std::string(toString(a));
        c.group = group;
        c.traceIndex = trace_index;
        c.cfg = sweepConfig(a, p);
        c.cfg.writeFiltering = write_filtering;
        if (hier) {
            c.cfg.topology.kind = TopologyKind::Hier;
            c.cfg.topology.localRings = p.numCmps() / 8;
            c.cfg.topology.globalHopCycles = 62;
        }
        c.lazy = a == Algorithm::Lazy;
        w.cells.push_back(std::move(c));
    }
}

/**
 * The four workloads. Sizes are the full-scale ones (--scale 1); each
 * stresses a different layer (README.md says which and why).
 */
Workload
makeWorkload(const Options &o)
{
    Workload w;
    w.name = o.workload;
    const auto &paper = paperAlgorithms();
    if (o.workload == "splash") {
        for (const char *name : {"barnes", "ocean", "radix"}) {
            w.profiles.push_back(sized(profileByName(name), 8000, 2500, o));
            addCells(w, w.profiles.size() - 1, paper, false, false);
        }
    } else if (o.workload == "commercial") {
        for (const char *name : {"specjbb", "specweb"}) {
            w.profiles.push_back(
                sized(profileByName(name), 32000, 8000, o));
            addCells(w, w.profiles.size() - 1, paper, false, true);
        }
    } else if (o.workload == "scale64") {
        // miniProfile() weak-scaled to 64 CMPs by runHierSweep()'s rule:
        // sharedLines x f, meanGap x f^0.75 (f = core-count factor).
        const WorkloadProfile base = miniProfile();
        WorkloadProfile p = sized(base, 1500, 400, o);
        p.name = "scale64";
        p.numCores = 64 * base.coresPerCmp;
        const double f = static_cast<double>(p.numCores) /
                         static_cast<double>(base.numCores);
        p.sharedLines = static_cast<std::size_t>(
            static_cast<double>(base.sharedLines) * f);
        p.meanGap = base.meanGap * std::pow(f, 0.75);
        w.profiles.push_back(p);
        const std::vector<Algorithm> algos = {
            Algorithm::Lazy, Algorithm::Eager, Algorithm::SupersetAgg,
            Algorithm::Exact};
        addCells(w, 0, algos, false, false);
        addCells(w, 0, algos, true, false);
    } else if (o.workload == "observed") {
        w.profiles.push_back(sized(profileByName("specweb"), 32000, 8000, o));
        addCells(w, 0, paper, false, false);
        w.observed = true;
    } else {
        usage("unknown workload '" + o.workload +
              "' (splash, commercial, scale64, observed)");
    }
    return w;
}

std::vector<CoreTraces>
generateAll(const Workload &w)
{
    std::vector<CoreTraces> out;
    out.reserve(w.profiles.size());
    for (const WorkloadProfile &p : w.profiles)
        out.push_back(SyntheticGenerator(p).generate());
    return out;
}

// ------------------------------------------------------------------ //
// RunResult export (every field, doubles at %.17g)

std::vector<std::pair<std::string, std::string>>
resultFields(const RunResult &r)
{
    std::vector<std::pair<std::string, std::string>> f;
    const auto u = [&](const char *name, std::uint64_t v) {
        f.emplace_back(name, std::to_string(v));
    };
    const auto d = [&](const char *name, double v) {
        f.emplace_back(name, fmt17(v));
    };
    f.emplace_back("workload", r.workload);
    f.emplace_back("algorithm", r.algorithm);
    f.emplace_back("predictor", r.predictor);
    u("execCycles", r.execCycles);
    u("readRingRequests", r.readRingRequests);
    u("readSnoops", r.readSnoops);
    d("snoopsPerReadRequest", r.snoopsPerReadRequest);
    u("readLinkMessages", r.readLinkMessages);
    d("readLinkMessagesPerRequest", r.readLinkMessagesPerRequest);
    d("energyNj", r.energyNj);
    d("ringEnergyNj", r.ringEnergyNj);
    d("snoopEnergyNj", r.snoopEnergyNj);
    d("predictorEnergyNj", r.predictorEnergyNj);
    d("downgradeEnergyNj", r.downgradeEnergyNj);
    u("truePositives", r.truePositives);
    u("trueNegatives", r.trueNegatives);
    u("falsePositives", r.falsePositives);
    u("falseNegatives", r.falseNegatives);
    u("writeRingRequests", r.writeRingRequests);
    u("writeSnoops", r.writeSnoops);
    u("writeFiltered", r.writeFiltered);
    u("bridgeSkips", r.bridgeSkips);
    u("bridgeDescends", r.bridgeDescends);
    u("globalLinkMessages", r.globalLinkMessages);
    u("cacheSupplies", r.cacheSupplies);
    u("memoryFetches", r.memoryFetches);
    u("downgrades", r.downgrades);
    u("collisions", r.collisions);
    u("retries", r.retries);
    u("writebacks", r.writebacks);
    d("avgReadLatency", r.avgReadLatency);
    d("p50ReadLatency", r.p50ReadLatency);
    d("p95ReadLatency", r.p95ReadLatency);
    u("faultLinkDecisions", r.faultLinkDecisions);
    u("faultDrops", r.faultDrops);
    u("faultDups", r.faultDups);
    u("faultDelays", r.faultDelays);
    u("faultPredictorFlips", r.faultPredictorFlips);
    u("watchdogTimeouts", r.watchdogTimeouts);
    u("staleMessagesAbsorbed", r.staleMessagesAbsorbed);
    u("predictorFlipDegrades", r.predictorFlipDegrades);
    u("incompleteConclusionsRejected", r.incompleteConclusionsRejected);
    u("retryStormAborts", r.retryStormAborts);
    f.emplace_back("failed", r.failed ? "true" : "false");
    f.emplace_back("error", r.error);
    return f;
}

/** First field where @p a and @p b differ; empty when identical. */
std::string
firstDifference(const RunResult &a, const RunResult &b)
{
    const auto fa = resultFields(a);
    const auto fb = resultFields(b);
    for (std::size_t i = 0; i < fa.size(); ++i) {
        if (fa[i].second != fb[i].second) {
            return fa[i].first + " (" + fa[i].second + " vs " +
                   fb[i].second + ")";
        }
    }
    return {};
}

// ------------------------------------------------------------------ //
// Checks, spans, capture

struct Checks
{
    struct Entry
    {
        std::string name;
        bool ok;
        std::string detail;
    };
    std::vector<Entry> entries;

    void
    add(std::string name, bool ok, std::string detail = {})
    {
        if (!ok)
            std::cerr << "flexbench: check failed: " << name << ": "
                      << detail << '\n';
        entries.push_back({std::move(name), ok, std::move(detail)});
    }
};

/** In-memory span log, written as Chrome trace-event JSON at the end. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::string cell; ///< id of the cell the span belongs to
        int parent;       ///< index into spans(), -1 for a root
        double start;     ///< seconds since the log's origin
        double end;
    };

    int
    open(std::string name, std::string cell, int parent)
    {
        _spans.push_back({std::move(name), std::move(cell), parent,
                          secondsSince(_origin), 0.0});
        return static_cast<int>(_spans.size()) - 1;
    }

    void close(int idx) { _spans[idx].end = secondsSince(_origin); }

    const std::vector<Span> &spans() const { return _spans; }

    /** Per span, the time its direct children cover (children of one
     *  span never overlap). */
    std::vector<double>
    childTimes() const
    {
        std::vector<double> t(_spans.size(), 0.0);
        for (const Span &s : _spans)
            if (s.parent >= 0)
                t[s.parent] += s.end - s.start;
        return t;
    }

    void
    writeChrome(const std::string &path) const
    {
        std::ofstream os(path);
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
           << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
              "\"args\":{\"name\":\"flexbench\"}}";
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":"
               << jsonString(s.name) << ",\"ts\":" << fmt17(s.start * 1e6)
               << ",\"dur\":" << fmt17((s.end - s.start) * 1e6)
               << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
               << ",\"cell\":" << jsonString(s.cell)
               << ",\"start_s\":" << fmt17(s.start)
               << ",\"end_s\":" << fmt17(s.end) << "}}";
        }
        os << "\n]}\n";
        if (!os)
            throw std::runtime_error("cannot write " + path);
    }

  private:
    Clock::time_point _origin = Clock::now();
    std::vector<Span> _spans;
};

/** What decoding one cell's .fstrace/.fsmetrics produced. */
struct CaptureStats
{
    std::uint64_t bytes = 0;
    std::uint64_t records = 0;
    std::uint64_t dropped = 0;
    std::uint64_t reads = 0;      ///< measured-phase completed reads
    std::uint64_t latencySum = 0; ///< their summed reported latency
    std::uint64_t pathMismatches = 0; ///< reads whose path != latency
    CriticalPath path;            ///< summed over those reads
    std::uint64_t samples = 0;    ///< .fsmetrics sample instants
    double traceDecodeS = 0.0;
    double metricsDecodeS = 0.0;

    void
    addPath(const CriticalPath &cp)
    {
        path.issueLocal += cp.issueLocal;
        path.ringTransit += cp.ringTransit;
        path.snoopWait += cp.snoopWait;
        path.gatewayHold += cp.gatewayHold;
        path.dataNetwork += cp.dataNetwork;
        path.memory += cp.memory;
        path.other += cp.other;
    }

    void
    add(const CaptureStats &o)
    {
        bytes += o.bytes;
        records += o.records;
        dropped += o.dropped;
        reads += o.reads;
        latencySum += o.latencySum;
        pathMismatches += o.pathMismatches;
        addPath(o.path);
        samples += o.samples;
        traceDecodeS += o.traceDecodeS;
        metricsDecodeS += o.metricsDecodeS;
    }
};

/** Point @p cfg's trace (spill) and metrics (10k-cycle) capture at
 *  @p dir; returns the two paths. */
std::pair<std::string, std::string>
enableCapture(MachineConfig &cfg, const std::string &dir)
{
    cfg.trace.path = dir + "/cell.fstrace";
    cfg.trace.mode = TraceMode::Spill;
    cfg.metrics.path = dir + "/cell.fsmetrics";
    cfg.metrics.intervalCycles = 10000;
    return {cfg.trace.path, cfg.metrics.path};
}

/**
 * Decode a finished capture the way `flexsnoop_trace --critical-path`
 * and `flexsnoop_metrics` do, then delete it. Spans (when @p spans is
 * set) bracket the two decodes.
 */
CaptureStats
decodeCapture(const std::pair<std::string, std::string> &paths,
              SpanLog *spans, const std::string &cell, int parent)
{
    CaptureStats s;
    s.bytes = fsys::file_size(paths.first) + fsys::file_size(paths.second);

    int span = spans ? spans->open("trace.decode", cell, parent) : -1;
    auto t0 = Clock::now();
    {
        const TraceFile file = loadTrace(paths.first);
        const TraceAnalysis analysis = analyzeTrace(file);
        s.records = file.records.size();
        s.dropped = file.header.dropped;
        // Statistics reset at the MeasureStart record; a read belongs
        // to the measured phase when its DataDelivered record follows
        // it in capture order, exactly as the controller's read_latency
        // stat sees it.
        std::size_t measure_idx = 0;
        for (std::size_t i = 0; i < file.records.size(); ++i) {
            if (file.records[i].event() == TraceEvent::MeasureStart) {
                measure_idx = i;
                break;
            }
        }
        for (const TxnTimeline &t : analysis.txns) {
            if (!t.complete || t.isWrite)
                continue;
            bool measured = false;
            for (const std::size_t idx : t.events) {
                if (file.records[idx].event() ==
                    TraceEvent::DataDelivered) {
                    measured = idx > measure_idx;
                    break;
                }
            }
            if (!measured)
                continue;
            const CriticalPath cp = criticalPath(file, t);
            ++s.reads;
            s.latencySum += t.latency;
            s.pathMismatches += cp.total() != t.latency;
            s.addPath(cp);
        }
    }
    s.traceDecodeS = secondsSince(t0);
    if (spans)
        spans->close(span);

    span = spans ? spans->open("telemetry.decode", cell, parent) : -1;
    t0 = Clock::now();
    {
        const MetricsFile m = loadMetrics(paths.second);
        s.samples = m.cycles.size();
    }
    s.metricsDecodeS = secondsSince(t0);
    if (spans)
        spans->close(span);

    fsys::remove(paths.first);
    fsys::remove(paths.second);
    return s;
}

// ------------------------------------------------------------------ //
// End-to-end metrics

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

/** Modeled metrics over the cells that succeeded. */
std::vector<Metric>
modeledMetrics(const Workload &w, const std::vector<RunResult> &results,
               const std::vector<bool> &ok)
{
    std::map<std::string, std::size_t> lazy_of;
    for (std::size_t i = 0; i < w.cells.size(); ++i)
        if (w.cells[i].lazy && ok[i])
            lazy_of[w.cells[i].group] = i;

    std::vector<double> exec_ratio, energy_ratio, lat_mean, lat_p95;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        if (!ok[i])
            continue;
        const RunResult &r = results[i];
        lat_mean.push_back(r.avgReadLatency);
        lat_p95.push_back(r.p95ReadLatency);
        const auto it = lazy_of.find(w.cells[i].group);
        if (w.cells[i].lazy || it == lazy_of.end())
            continue;
        const RunResult &base = results[it->second];
        exec_ratio.push_back(ratio(static_cast<double>(r.execCycles),
                                   static_cast<double>(base.execCycles)));
        energy_ratio.push_back(ratio(r.energyNj, base.energyNj));
    }
    return {
        {"exec_cycles_vs_lazy", "ratio", geoMean(exec_ratio)},
        {"energy_vs_lazy", "ratio", geoMean(energy_ratio)},
        {"read_lat_mean_cyc", "cycles", arithMean(lat_mean)},
        {"read_lat_p95_cyc", "cycles", arithMean(lat_p95)},
    };
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ------------------------------------------------------------------ //
// Report

struct CellOutcome
{
    bool ok = true;
    std::string error;
    RunResult result;
    std::vector<double> times; ///< host seconds, one per measured pass
};

void
writeReport(const Options &o, const Workload &w, std::size_t passes,
            double speed, const std::vector<CellOutcome> &cells,
            const std::vector<Metric> &metrics, const Checks &checks)
{
    const std::string path = o.outDir + "/report.json";
    std::ofstream os(path);
    os << "{\"workload\":" << jsonString(w.name) << ",\"seed\":" << o.seed
       << ",\"scale\":" << jsonNumber(o.scale)
       << ",\"seconds\":" << jsonNumber(o.seconds)
       << ",\"traced\":" << (o.traced ? "true" : "false")
       << ",\"passes\":" << passes
       << ",\"host_speed_factor\":" << jsonNumber(speed)
       << ",\"host_cores\":" << std::thread::hardware_concurrency()
       << ",\n\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ",\n" : "\n") << jsonString(metrics[i].name)
           << ":{\"value\":" << jsonNumber(metrics[i].value)
           << ",\"unit\":" << jsonString(metrics[i].unit) << "}";
    }
    os << "},\n\"checks\":[";
    for (std::size_t i = 0; i < checks.entries.size(); ++i) {
        const auto &c = checks.entries[i];
        os << (i ? ",\n" : "\n") << "{\"name\":" << jsonString(c.name)
           << ",\"ok\":" << (c.ok ? "true" : "false")
           << ",\"detail\":" << jsonString(c.detail) << "}";
    }
    os << "],\n\"cells\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        os << (i ? ",\n" : "\n") << "{\"id\":" << jsonString(w.cells[i].id)
           << ",\"ok\":" << (cells[i].ok ? "true" : "false")
           << ",\"error\":" << jsonString(cells[i].error) << ",\"times_s\":[";
        for (std::size_t k = 0; k < cells[i].times.size(); ++k)
            os << (k ? "," : "") << jsonNumber(cells[i].times[k]);
        os << "],\"result\":{";
        if (cells[i].ok) {
            const auto fields = resultFields(cells[i].result);
            for (std::size_t k = 0; k < fields.size(); ++k) {
                os << (k ? "," : "") << jsonString(fields[k].first) << ":"
                   << jsonString(fields[k].second);
            }
        }
        os << "}}";
    }
    os << "]}\n";
    if (!os)
        throw std::runtime_error("cannot write " + path);
}

std::uint64_t
totalRefs(const Workload &w, const std::vector<CoreTraces> &traces,
          const std::vector<CellOutcome> &cells)
{
    std::uint64_t refs = 0;
    for (std::size_t i = 0; i < w.cells.size(); ++i)
        if (cells[i].ok)
            refs += traces[w.cells[i].traceIndex].totalRefs();
    return refs;
}

/** Records a cell's result from one pass: the first success is kept,
 *  any later pass must reproduce it bit for bit. */
void
recordResult(CellOutcome &cell, bool first, RunResult r,
             const std::string &what)
{
    if (first) {
        cell.result = std::move(r);
        return;
    }
    const std::string diff = firstDifference(cell.result, r);
    if (!diff.empty()) {
        cell.ok = false;
        cell.error = what + " differs from the first pass at " + diff;
    }
}

void
recordFailure(CellOutcome &cell, const std::string &id,
              const std::exception &e)
{
    cell.ok = false;
    cell.error = e.what();
    std::cerr << "flexbench: cell " << id << " failed: " << e.what()
              << '\n';
}

// ------------------------------------------------------------------ //
// Untraced measurement

struct SetupTiming
{
    std::vector<CoreTraces> traces;
    double setupS = 0.0;
};

/**
 * One untimed generation pass, then timed ones until there are at
 * least kSetupPasses and kSetupSeconds of them; the set-up time is
 * their median (in host seconds, before probe rescaling). A pass takes
 * only 3-35 ms, so one burst of a neighbour's load covers several
 * passes, and the probe, timed next to cells, does not follow such
 * short bursts: many passes are what keep the median steady.
 */
constexpr std::size_t kSetupPasses = 15;
constexpr double kSetupSeconds = 0.5;

SetupTiming
timedSetup(const Workload &w)
{
    SetupTiming s;
    s.traces = generateAll(w);
    std::vector<double> times;
    double total = 0.0;
    while (times.size() < kSetupPasses || total < kSetupSeconds) {
        const auto t0 = Clock::now();
        s.traces = generateAll(w);
        times.push_back(secondsSince(t0));
        total += times.back();
    }
    s.setupS = median(times);
    return s;
}

/** Untimed warm-up cell: page in the code and the allocator. */
void
warmUp(const Workload &w, const std::vector<CoreTraces> &traces)
{
    const Cell &c = w.cells.front();
    try {
        runSimulation(c.cfg, traces[c.traceIndex],
                      w.profiles[c.traceIndex].name);
    } catch (const std::exception &) {
        // Reported when the measured passes meet the same cell.
    }
}

/** Whether another pass of roughly @p last seconds still fits. */
bool
anotherPass(std::size_t done, double elapsed, double last, double budget)
{
    return done == 0 || elapsed + last <= budget;
}

void
checkCapture(Checks &checks, const std::string &id, const CaptureStats &c,
             const RunResult &r)
{
    checks.add(id + ": trace.dropped == 0", c.dropped == 0,
               std::to_string(c.dropped) + " records dropped");
    checks.add(id + ": critical path sums to each read's latency",
               c.pathMismatches == 0,
               std::to_string(c.pathMismatches) + " of " +
                   std::to_string(c.reads) + " reads differ");
    // The trace and the controller's read_latency stat see the same
    // measured-phase reads, so their means agree bit for bit.
    const double trace_mean = c.reads ? static_cast<double>(c.latencySum) /
                                            static_cast<double>(c.reads)
                                      : 0.0;
    checks.add(id + ": trace read latency == avgReadLatency",
               trace_mean == r.avgReadLatency,
               fmt17(trace_mean) + " vs " + fmt17(r.avgReadLatency));
    checks.add(id + ": telemetry decoded", c.samples > 0,
               std::to_string(c.samples) + " samples");
}

int
runUntraced(const Options &o, const Workload &w)
{
    HostProbe probe;
    SetupTiming setup = timedSetup(w);
    const std::vector<CoreTraces> &traces = setup.traces;
    const std::size_t n = w.cells.size();
    const std::string capture_dir = o.outDir + "/capture";
    fsys::create_directories(capture_dir);

    std::vector<CellOutcome> cells(n);
    CaptureStats capture;
    Checks checks;
    warmUp(w, traces);

    const auto start = Clock::now();
    std::size_t passes = 0;
    double last = 0.0;
    while (anotherPass(passes, secondsSince(start), last, o.seconds)) {
        const auto pass_start = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            CellOutcome &cell = cells[i];
            if (!cell.ok)
                continue;
            const Cell &c = w.cells[i];
            MachineConfig cfg = c.cfg;
            std::pair<std::string, std::string> paths;
            if (w.observed)
                paths = enableCapture(cfg, capture_dir);
            probe.sample();
            try {
                const auto t0 = Clock::now();
                RunResult r = runSimulation(cfg, traces[c.traceIndex],
                                            w.profiles[c.traceIndex].name);
                CaptureStats cs;
                if (w.observed)
                    cs = decodeCapture(paths, nullptr, c.id, -1);
                cell.times.push_back(secondsSince(t0));
                if (w.observed && passes == 0) {
                    checkCapture(checks, c.id, cs, r);
                    capture.add(cs);
                }
                recordResult(cell, passes == 0, std::move(r), "rerun");
            } catch (const std::exception &e) {
                recordFailure(cell, c.id, e);
            }
        }
        ++passes;
        last = secondsSince(pass_start);
    }

    std::vector<bool> ok(n);
    std::vector<RunResult> results(n);
    double wall = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        ok[i] = cells[i].ok;
        results[i] = cells[i].result;
        if (ok[i])
            wall += median(cells[i].times);
    }
    const double refs =
        static_cast<double>(totalRefs(w, traces, cells));
    const double speed = probe.factor();

    std::vector<Metric> metrics = {
        {"wall_s", "s", wall * speed},
        {"sim_krefs_per_s", "kref/s", ratio(refs, wall * speed) / 1e3},
        {"setup_s", "s", setup.setupS * speed},
        {"peak_rss_mb", "MB", peakRssMb()},
    };
    for (Metric &m : modeledMetrics(w, results, ok))
        metrics.push_back(std::move(m));

    std::cout << "flexbench " << w.name << ": seed " << o.seed
              << ", scale " << o.scale << ", " << n << " cells x "
              << passes << " passes, host speed x" << speed << " (raw wall "
              << wall << " s)\n";
    for (const Metric &m : metrics) {
        std::cout << "  " << std::left << std::setw(22) << m.name
                  << std::right << std::setw(18) << std::setprecision(8)
                  << m.value << " " << m.unit << '\n';
    }
    if (w.observed) {
        std::cout << "  " << std::left << std::setw(22) << "capture_mb"
                  << std::right << std::setw(18)
                  << static_cast<double>(capture.bytes) / 1e6 << " MB\n";
    }
    writeReport(o, w, passes, speed, cells, metrics, checks);
    fsys::remove_all(capture_dir);
    return 0;
}

// ------------------------------------------------------------------ //
// Traced pass

/** Deterministic per-layer counts of one mirrored cell, by name. */
using Counts = std::map<std::string, double>;

Counts
collectCounts(Machine &m, Cycle measured)
{
    Counts c;
    c["exec_cycles"] = static_cast<double>(measured);
    c["events"] = static_cast<double>(m.queue().executed());
    c["wheel_overflow"] =
        static_cast<double>(m.queue().wheel().overflowScheduled());
    c["wheel_cascaded"] =
        static_cast<double>(m.queue().wheel().cascadedEntries());
    CoherenceController &ctrl = m.controller();
    c["txn_chunk_allocs"] =
        static_cast<double>(ctrl.txnPoolUsage().chunkAllocs);
    if (const StatGroup *ex = ctrl.expressStats()) {
        for (const char *name :
             {"hops_virtualized", "plans_created", "plans_cancelled"})
            c[name] = static_cast<double>(ex->counterValue(name));
    }
    for (std::size_t r = 0; r < m.ring().numRings(); ++r) {
        Ring &ring = m.ring().ring(r);
        c["link_traversals"] += static_cast<double>(ring.linkTraversals());
        const ScalarStat &q = ring.stats().scalar("link_queueing");
        c["link_queueing_total"] += q.total();
        c["link_queueing_count"] += static_cast<double>(q.count());
    }
    c["global_link_msgs"] = static_cast<double>(m.globalLinkTraversals());
    c["bridge_skips"] = static_cast<double>(ctrl.bridgeSkips());
    c["bridge_descends"] = static_cast<double>(ctrl.bridgeDescends());

    const StatGroup &s = ctrl.stats();
    for (const char *name :
         {"read_ring_requests", "write_ring_requests", "gate_deferrals",
          "collisions", "retries", "read_snoops", "read_link_messages",
          "read_cache_supplies", "read_memory_supplies", "write_snoops",
          "write_filtered", "memory_fetches"})
        c[name] = static_cast<double>(s.counterValue(name));
    c["read_latency_mean"] = s.scalarMean("read_latency");

    const double tp = static_cast<double>(m.predictorTruePositives());
    const double tn = static_cast<double>(m.predictorTrueNegatives());
    const double fp = static_cast<double>(m.predictorFalsePositives());
    const double fn = static_cast<double>(m.predictorFalseNegatives());
    c["predictions"] = tp + tn + fp + fn;
    c["predictions_correct"] = tp + tn;
    c["false_positives"] = fp;
    for (std::size_t n = 0; n < m.numNodes(); ++n) {
        const CmpNode &node = m.node(static_cast<NodeId>(n));
        for (const StatGroup *g :
             {node.predictor() ? &node.predictor()->stats() : nullptr,
              node.presencePredictor()
                  ? &node.presencePredictor()->stats()
                  : nullptr}) {
            if (!g)
                continue;
            c["probes_signature"] +=
                static_cast<double>(g->counterValue("probe_signature"));
            c["probes_hashed"] +=
                static_cast<double>(g->counterValue("probe_hashed"));
        }
    }

    const EnergyModel &e = m.energy();
    c["energy_total"] = e.totalNj();
    c["energy_ring"] = e.categoryNj(EnergyEvent::RingLinkMessage) +
                       e.categoryNj(EnergyEvent::GlobalRingLinkMessage);
    c["energy_snoop"] = e.categoryNj(EnergyEvent::CmpSnoop);
    c["energy_predictor"] =
        e.categoryNj(EnergyEvent::PredictorAccess) +
        e.categoryNj(EnergyEvent::PredictorTrain) +
        e.categoryNj(EnergyEvent::BridgePredictorAccess) +
        e.categoryNj(EnergyEvent::BridgePredictorTrain);
    return c;
}

/** First count where a mirrored run disagrees with runSimulation()'s
 *  result of the same cell; empty when they agree. */
std::string
mirrorDiff(const Counts &c, const RunResult &r)
{
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const std::pair<const char *, double> expect[] = {
        {"exec_cycles", d(r.execCycles)},
        {"read_ring_requests", d(r.readRingRequests)},
        {"read_snoops", d(r.readSnoops)},
        {"read_link_messages", d(r.readLinkMessages)},
        {"write_ring_requests", d(r.writeRingRequests)},
        {"write_snoops", d(r.writeSnoops)},
        {"write_filtered", d(r.writeFiltered)},
        {"read_cache_supplies", d(r.cacheSupplies)},
        {"memory_fetches", d(r.memoryFetches)},
        {"collisions", d(r.collisions)},
        {"retries", d(r.retries)},
        {"read_latency_mean", r.avgReadLatency},
        {"energy_total", r.energyNj},
    };
    for (const auto &[name, want] : expect) {
        if (c.at(name) != want)
            return std::string(name) + " (" + fmt17(c.at(name)) + " vs " +
                   fmt17(want) + ")";
    }
    return {};
}

/**
 * runSimulation()'s public call sequence, one span per call: build,
 * run, finalizeEnergy, checker, teardown (where capture sinks flush),
 * then decode when @p capture is set. The liveness guards are left out:
 * runSimulation arms them only for fault runs or explicit guards, and no
 * benchmark cell sets either.
 */
Counts
runMirrored(const Cell &cell, const CoreTraces &traces, SpanLog &spans,
            int parent, const std::string &capture_dir, CaptureStats *capture)
{
    MachineConfig cfg = cell.cfg;
    std::pair<std::string, std::string> paths;
    if (capture)
        paths = enableCapture(cfg, capture_dir);

    int s = spans.open("core.machine_build", cell.id, parent);
    auto machine = std::make_unique<Machine>(cfg);
    auto runner = std::make_unique<WorkloadRunner>(
        machine->queue(), machine->controller(), traces, cfg.core);
    Machine &m = *machine;
    runner->setWarmupDoneFn([&m]() {
        m.resetStats();
        if (TraceSink *trace = m.traceSink())
            trace->record(TraceEvent::MeasureStart, m.queue().now(), 0, 0);
        if (MetricsSampler *metrics = m.metricsSampler())
            metrics->markMeasureStart(m.queue().now());
    });
    spans.close(s);

    s = spans.open("sim.run", cell.id, parent);
    const Cycle measured = runner->run();
    spans.close(s);
    if (!runner->allDone() || m.controller().outstanding() != 0)
        throw std::runtime_error("mirrored run left unfinished work");

    s = spans.open("energy.finalize", cell.id, parent);
    m.finalizeEnergy();
    spans.close(s);

    s = spans.open("coherence.check", cell.id, parent);
    const auto violations = m.checker().check();
    spans.close(s);
    if (!violations.empty())
        throw std::runtime_error("coherence invariants violated");

    Counts counts = collectCounts(m, measured);

    s = spans.open("core.teardown", cell.id, parent);
    runner.reset();
    machine.reset();
    spans.close(s);

    if (capture)
        *capture = decodeCapture(paths, &spans, cell.id, parent);
    return counts;
}

void
printSelfTimes(const SpanLog &log, double speed)
{
    struct Row
    {
        std::size_t count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Row> rows;
    double root_total = 0.0;
    const auto &spans = log.spans();
    const std::vector<double> children = log.childTimes();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto &s = spans[i];
        const double dur = s.end - s.start;
        Row &row = rows[s.name];
        ++row.count;
        row.total += dur * speed;
        row.self += (dur - children[i]) * speed;
        if (s.parent < 0)
            root_total += dur * speed;
    }
    std::cout << "\nself time by layer (all traced passes, reference s)\n"
              << std::left << std::setw(22) << "span" << std::right
              << std::setw(8) << "count" << std::setw(12) << "total s"
              << std::setw(12) << "self s" << std::setw(9) << "self %"
              << '\n';
    for (const auto &[name, row] : rows) {
        std::cout << std::left << std::setw(22) << name << std::right
                  << std::setw(8) << row.count << std::fixed
                  << std::setprecision(4) << std::setw(12) << row.total
                  << std::setw(12) << row.self << std::setprecision(2)
                  << std::setw(9) << 100.0 * ratio(row.self, root_total)
                  << '\n';
        std::cout.unsetf(std::ios::fixed);
    }
}

int
runTraced(const Options &o, const Workload &w)
{
    HostProbe probe;
    SetupTiming setup = timedSetup(w);
    const std::vector<CoreTraces> &traces = setup.traces;
    const std::size_t n = w.cells.size();
    const std::string capture_dir = o.outDir + "/capture";
    fsys::create_directories(capture_dir);

    std::vector<CellOutcome> cells(n);
    std::vector<Counts> counts(n);
    // cell index -> span name -> durations over the mirrored rounds.
    std::vector<std::map<std::string, std::vector<double>>> span_times(n);
    SpanLog spans;
    Checks checks;
    warmUp(w, traces);

    // Rounds over all cells until the budget is spent. Each cell runs
    // plain (runSimulation) and then mirrored without capture, back to
    // back, so the ratio of their medians is the span overhead.
    const auto start = Clock::now();
    std::size_t rounds = 0;
    double last = 0.0;
    while (anotherPass(rounds, secondsSince(start), last, o.seconds)) {
        const auto round_start = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            CellOutcome &cell = cells[i];
            if (!cell.ok)
                continue;
            const Cell &c = w.cells[i];
            probe.sample();
            try {
                const auto t0 = Clock::now();
                RunResult r = runSimulation(c.cfg, traces[c.traceIndex],
                                            w.profiles[c.traceIndex].name);
                cell.times.push_back(secondsSince(t0));
                recordResult(cell, rounds == 0, std::move(r), "rerun");
            } catch (const std::exception &e) {
                recordFailure(cell, c.id, e);
                continue;
            }
            probe.sample();
            const std::size_t first = spans.spans().size();
            const int span = spans.open("cell", c.id, -1);
            try {
                Counts cc = runMirrored(c, traces[c.traceIndex], spans, span,
                                        capture_dir, nullptr);
                spans.close(span);
                for (std::size_t k = first; k < spans.spans().size(); ++k) {
                    const auto &sp = spans.spans()[k];
                    span_times[i][sp.name].push_back(sp.end - sp.start);
                }
                if (rounds == 0) {
                    const std::string diff = mirrorDiff(cc, cell.result);
                    checks.add(c.id + ": mirror matches runSimulation",
                               diff.empty(), diff);
                    counts[i] = std::move(cc);
                }
            } catch (const std::exception &e) {
                spans.close(span);
                recordFailure(cell, c.id, e);
            }
        }
        ++rounds;
        last = secondsSince(round_start);
    }

    // One mirrored pass with .fstrace + .fsmetrics capture on.
    CaptureStats capture;
    double run_captured = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        CellOutcome &cell = cells[i];
        if (!cell.ok)
            continue;
        const Cell &c = w.cells[i];
        probe.sample();
        const std::size_t first = spans.spans().size();
        const int span = spans.open("cell.captured", c.id, -1);
        try {
            CaptureStats cs;
            const Counts cc = runMirrored(c, traces[c.traceIndex], spans,
                                          span, capture_dir, &cs);
            spans.close(span);
            for (std::size_t k = first; k < spans.spans().size(); ++k) {
                const auto &sp = spans.spans()[k];
                if (sp.name == "sim.run")
                    run_captured += sp.end - sp.start;
            }
            const std::string diff = mirrorDiff(cc, cell.result);
            checks.add(c.id + ": capture leaves the run unchanged",
                       diff.empty(), diff);
            checkCapture(checks, c.id, cs, cell.result);
            capture.add(cs);
        } catch (const std::exception &e) {
            spans.close(span);
            recordFailure(cell, c.id, e);
        }
    }

    // Every cell's layer spans must account for its wall time.
    double worst_cover = 1.0;
    std::string worst_cell;
    const auto &all = spans.spans();
    const std::vector<double> children = spans.childTimes();
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (all[i].parent >= 0)
            continue;
        const double cover = ratio(children[i], all[i].end - all[i].start);
        if (cover < worst_cover) {
            worst_cover = cover;
            worst_cell = all[i].cell;
        }
    }
    checks.add("spans cover >= 95% of every cell", worst_cover >= 0.95,
               "lowest " + fmt17(worst_cover) + " (" + worst_cell + ")");

    // Host times: per cell the median over rounds, summed over cells.
    Counts sum;
    std::map<std::string, double> host;
    double plain = 0.0, refs = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!cells[i].ok)
            continue;
        for (const auto &[name, v] : counts[i])
            sum[name] += v;
        for (const auto &[name, times] : span_times[i])
            host[name] += median(times);
        plain += median(cells[i].times);
        refs += static_cast<double>(
            traces[w.cells[i].traceIndex].totalRefs());
    }
    const double run_uncaptured = host["sim.run"];
    const double speed = probe.factor();
    const auto reqs = sum["read_ring_requests"] + sum["write_ring_requests"];
    const auto reads = sum["read_ring_requests"];
    const auto cp_reads = static_cast<double>(capture.reads);
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

    const std::vector<Metric> metrics = {
        {"workload.generate_s", "s", setup.setupS * speed},
        {"core.machine_build_s", "s", host["core.machine_build"] * speed},
        {"core.teardown_s", "s", host["core.teardown"] * speed},
        {"sim.run_s", "s", host["sim.run"] * speed},
        {"sim.events", "count", sum["events"]},
        {"sim.events_per_ref", "ratio", ratio(sum["events"], refs)},
        {"sim.ns_per_event", "ns",
         ratio(host["sim.run"] * speed, sum["events"]) * 1e9},
        {"sim.wheel_overflow_frac", "ratio",
         ratio(sum["wheel_overflow"], sum["events"])},
        {"sim.wheel_cascaded_entries", "count", sum["wheel_cascaded"]},
        {"coherence.check_s", "s", host["coherence.check"] * speed},
        {"coherence.txn_pool_chunk_allocs", "count",
         sum["txn_chunk_allocs"]},
        {"coherence.express_hop_frac", "ratio",
         ratio(sum["hops_virtualized"], sum["link_traversals"])},
        {"coherence.express_cancel_frac", "ratio",
         ratio(sum["plans_cancelled"], sum["plans_created"])},
        {"coherence.gate_deferrals_per_req", "ratio",
         ratio(sum["gate_deferrals"], reqs)},
        {"coherence.collisions_per_req", "ratio",
         ratio(sum["collisions"], reqs)},
        {"coherence.retries_per_req", "ratio", ratio(sum["retries"], reqs)},
        {"coherence.issue_local_cyc", "cycles",
         ratio(d(capture.path.issueLocal), cp_reads)},
        {"coherence.gateway_hold_cyc", "cycles",
         ratio(d(capture.path.gatewayHold), cp_reads)},
        {"coherence.other_cyc", "cycles",
         ratio(d(capture.path.other), cp_reads)},
        {"net.ring_transit_cyc", "cycles",
         ratio(d(capture.path.ringTransit), cp_reads)},
        {"net.data_network_cyc", "cycles",
         ratio(d(capture.path.dataNetwork), cp_reads)},
        {"mem.snoop_wait_cyc", "cycles",
         ratio(d(capture.path.snoopWait), cp_reads)},
        {"mem.memory_cyc", "cycles",
         ratio(d(capture.path.memory), cp_reads)},
        {"net.link_msgs_per_read", "ratio",
         ratio(sum["read_link_messages"], reads)},
        {"net.link_queueing_cyc_per_msg", "cycles",
         ratio(sum["link_queueing_total"], sum["link_queueing_count"])},
        {"net.global_link_msgs", "count", sum["global_link_msgs"]},
        {"predictor.accuracy", "ratio",
         ratio(sum["predictions_correct"], sum["predictions"])},
        {"predictor.fp_frac", "ratio",
         ratio(sum["false_positives"], sum["predictions"])},
        {"predictor.sig_probe_frac", "ratio",
         ratio(sum["probes_signature"],
               sum["probes_signature"] + sum["probes_hashed"])},
        {"predictor.write_filtered_frac", "ratio",
         ratio(sum["write_filtered"],
               sum["write_filtered"] + sum["write_snoops"])},
        {"mem.snoops_per_read", "ratio", ratio(sum["read_snoops"], reads)},
        {"mem.cache_supply_frac", "ratio",
         ratio(sum["read_cache_supplies"], reads)},
        {"mem.memory_fetch_frac", "ratio",
         ratio(sum["read_memory_supplies"], reads)},
        {"topology.bridge_skip_frac", "ratio",
         ratio(sum["bridge_skips"],
               sum["bridge_skips"] + sum["bridge_descends"])},
        {"energy.ring_frac", "ratio",
         ratio(sum["energy_ring"], sum["energy_total"])},
        {"energy.snoop_frac", "ratio",
         ratio(sum["energy_snoop"], sum["energy_total"])},
        {"energy.predictor_frac", "ratio",
         ratio(sum["energy_predictor"], sum["energy_total"])},
        {"trace.records_per_ref", "ratio", ratio(d(capture.records), refs)},
        {"trace.dropped", "count", d(capture.dropped)},
        {"trace.analyze_s", "s", capture.traceDecodeS * speed},
        {"trace.capture_mb", "MB", d(capture.bytes) / 1e6},
        {"telemetry.samples", "count", d(capture.samples)},
        {"telemetry.decode_s", "s", capture.metricsDecodeS * speed},
        {"observe.overhead_pct", "%",
         100.0 * (ratio(run_captured, run_uncaptured) - 1.0)},
        {"bench.span_overhead_pct", "%",
         100.0 * (ratio(host["cell"], plain) - 1.0)},
    };

    std::cout << "flexbench " << w.name << " (traced): seed " << o.seed
              << ", scale " << o.scale << ", " << n << " cells x "
              << rounds << " rounds + 1 captured pass, host speed x"
              << speed << '\n';
    for (const Metric &m : metrics) {
        std::cout << "  " << std::left << std::setw(34) << m.name
                  << std::right << std::setw(18) << std::setprecision(8)
                  << m.value << " " << m.unit << '\n';
    }
    printSelfTimes(spans, speed);
    spans.writeChrome(o.outDir + "/spans.json");
    std::cout << "spans: " << o.outDir << "/spans.json\n";
    writeReport(o, w, rounds, speed, cells, metrics, checks);
    fsys::remove_all(capture_dir);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    refuseEnvSwitches();
    try {
        const Workload w = makeWorkload(o);
        fsys::create_directories(o.outDir);
        return o.traced ? runTraced(o, w) : runUntraced(o, w);
    } catch (const std::exception &e) {
        std::cerr << "flexbench: " << e.what() << '\n';
        return 1;
    }
}
