/**
 * @file
 * End-to-end guarantees of the tracing subsystem (docs/TRACING.md):
 *
 *  - observer effect: a traced run's RunResult is bit-identical to an
 *    untraced run of the same configuration;
 *  - determinism: the same (config, traces) pair produces a
 *    byte-identical .fstrace file every time, including when runs
 *    execute concurrently on a worker pool;
 *  - analysis: critical-path components sum exactly to each reported
 *    latency, and the Chrome-trace export is structurally sound.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel_executor.hh"
#include "core/simulation.hh"
#include "run_result_equality.hh"
#include "trace/trace_analysis.hh"
#include "trace/trace_reader.hh"
#include "workload/synthetic_generator.hh"

namespace flexsnoop
{
namespace
{

std::string
readBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.is_open()) << path;
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

struct Fixture
{
    MachineConfig cfg;
    CoreTraces traces;
    std::string workload;

    explicit Fixture(Algorithm a = Algorithm::SupersetAgg)
    {
        WorkloadProfile profile = miniProfile();
        profile.refsPerCore = 400;
        profile.warmupRefs = 100;
        workload = profile.name;
        traces = SyntheticGenerator(profile).generate();
        cfg = MachineConfig::paperDefault(a, profile.coresPerCmp);
        cfg.setNumCmps(profile.numCmps());
    }
};

TEST(TraceSubsystem, TracingDoesNotPerturbResults)
{
    for (Algorithm a : {Algorithm::Lazy, Algorithm::SupersetAgg,
                        Algorithm::Subset}) {
        SCOPED_TRACE(std::string(toString(a)));
        Fixture f(a);
        const RunResult untraced =
            runSimulation(f.cfg, f.traces, f.workload);

        const std::string path = "/tmp/flexsnoop_test_perturb.fstrace";
        f.cfg.trace.path = path;
        const RunResult traced =
            runSimulation(f.cfg, f.traces, f.workload);
        EXPECT_TRUE(identicalRuns(untraced, traced));
        std::remove(path.c_str());
    }
}

TEST(TraceSubsystem, SameSeedSameBytes)
{
    Fixture f;
    const std::string p1 = "/tmp/flexsnoop_test_det1.fstrace";
    const std::string p2 = "/tmp/flexsnoop_test_det2.fstrace";
    f.cfg.trace.path = p1;
    runSimulation(f.cfg, f.traces, f.workload);
    f.cfg.trace.path = p2;
    runSimulation(f.cfg, f.traces, f.workload);

    const std::string b1 = readBytes(p1);
    const std::string b2 = readBytes(p2);
    ASSERT_GT(b1.size(), sizeof(TraceFileHeader));
    // The header embeds no path/time, so the whole file must match.
    EXPECT_TRUE(b1 == b2) << "same run produced different trace bytes";
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST(TraceSubsystem, ParallelRunsMatchSerialRuns)
{
    // Four identical cells on a 4-worker pool vs. the same cells run
    // serially: every per-cell trace file must be byte-identical, which
    // proves the per-run sinks do not interact across threads.
    constexpr std::size_t kCells = 4;
    Fixture base;
    std::vector<MachineConfig> cfgs(kCells, base.cfg);
    for (std::size_t i = 0; i < kCells; ++i)
        cfgs[i].trace.path = "/tmp/flexsnoop_test_par" +
                             std::to_string(i) + ".fstrace";

    ParallelExecutor pool(kCells);
    pool.map(kCells, [&](std::size_t i) {
        return runSimulation(cfgs[i], base.traces, base.workload);
    });

    const std::string serial_path = "/tmp/flexsnoop_test_serial.fstrace";
    MachineConfig serial_cfg = base.cfg;
    serial_cfg.trace.path = serial_path;
    runSimulation(serial_cfg, base.traces, base.workload);
    const std::string expected = readBytes(serial_path);
    ASSERT_GT(expected.size(), sizeof(TraceFileHeader));

    for (std::size_t i = 0; i < kCells; ++i) {
        EXPECT_TRUE(readBytes(cfgs[i].trace.path) == expected)
            << "cell " << i << " diverged";
        std::remove(cfgs[i].trace.path.c_str());
    }
    std::remove(serial_path.c_str());
}

TEST(TraceSubsystem, CriticalPathComponentsSumToLatency)
{
    Fixture f;
    const std::string path = "/tmp/flexsnoop_test_cp.fstrace";
    f.cfg.trace.path = path;
    runSimulation(f.cfg, f.traces, f.workload);

    const TraceFile file = loadTrace(path);
    const TraceAnalysis analysis = analyzeTrace(file);
    ASSERT_GT(analysis.completed(), 0u);

    std::size_t checked = 0;
    for (const TxnTimeline &t : analysis.txns) {
        if (!t.complete)
            continue;
        const CriticalPath cp = criticalPath(file, t);
        ASSERT_EQ(cp.total(), t.latency) << "txn " << t.txn;
        ++checked;
    }
    EXPECT_EQ(checked, analysis.completed());
    std::remove(path.c_str());
}

/** Whitespace-separated fields of @p line. */
std::vector<std::string>
fields(const std::string &line)
{
    std::istringstream is(line);
    return {std::istream_iterator<std::string>(is),
            std::istream_iterator<std::string>()};
}

TEST(TraceSubsystem, CriticalPathTableColumnsStaySeparated)
{
    // One read whose phases run to 8-10 digits, as the total row's sums
    // do on a full-length run.
    std::vector<TraceRecord> records;
    const auto rec = [&records](TraceEvent e, Cycle at,
                                std::uint64_t arg1, std::uint16_t a = 0) {
        TraceRecord r;
        r.cycle = at;
        r.txn = 1;
        r.arg0 = 0x1000;
        r.arg1 = arg1;
        r.type = static_cast<std::uint16_t>(e);
        r.node = 0;
        r.a = a;
        records.push_back(r);
    };
    rec(TraceEvent::TxnStart, 5, 0);
    rec(TraceEvent::RingIssue, 12345683, 0);
    rec(TraceEvent::RingDone, 500000000, 0);
    rec(TraceEvent::MemFetch, 500000000, 700000000);
    rec(TraceEvent::MemData, 1200000000, 0);
    rec(TraceEvent::DataDelivered, 1234567890, 1234567885, 1);
    const TraceFile file(std::move(records));

    const TraceAnalysis analysis = analyzeTrace(file);
    ASSERT_EQ(analysis.completed(), 1u);
    const CriticalPath cp = criticalPath(file, analysis.txns.front());
    const std::uint64_t want[] = {cp.issueLocal, cp.ringTransit,
                                  cp.snoopWait,  cp.gatewayHold,
                                  cp.dataNetwork, cp.memory, cp.other};
    ASSERT_GE(cp.issueLocal, 10000000u) << "an 8-digit column";

    std::ostringstream os;
    writeCriticalPathTable(os, file, analysis);
    std::istringstream table(os.str());
    std::string header, row, total;
    std::getline(table, header);
    std::getline(table, row);
    std::getline(table, total);
    EXPECT_EQ(fields(header).size(), 13u) << header;
    EXPECT_EQ(fields(row).size(), 13u) << row;

    // total, latency, seven components, sum.
    const std::vector<std::string> f = fields(total);
    ASSERT_EQ(f.size(), 10u) << total;
    EXPECT_EQ(f[0], "total");
    const std::uint64_t latency = std::stoull(f[1]);
    EXPECT_EQ(latency, 1234567885u);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < 7; ++i) {
        EXPECT_EQ(std::stoull(f[2 + i]), want[i]) << "component " << i;
        sum += std::stoull(f[2 + i]);
    }
    EXPECT_EQ(sum, latency);
    EXPECT_EQ(std::stoull(f[9]), latency);
}

TEST(TraceSubsystem, DecodedTraceIsConsistent)
{
    Fixture f;
    const std::string path = "/tmp/flexsnoop_test_decode.fstrace";
    f.cfg.trace.path = path;
    const RunResult result = runSimulation(f.cfg, f.traces, f.workload);

    const TraceFile file = loadTrace(path);
    EXPECT_EQ(file.header.numNodes, f.cfg.numCmps);
    EXPECT_EQ(file.header.numCores, f.cfg.numCores());
    EXPECT_EQ(file.header.recorded, file.records.size());
    EXPECT_EQ(file.header.dropped, 0u);

    const TraceAnalysis analysis = analyzeTrace(file);
    EXPECT_GT(analysis.txns.size(), 0u);
    EXPECT_GT(analysis.completed(), 0u);
    // Every completed transaction traversed at least one ring link.
    for (const TxnTimeline &t : analysis.txns) {
        if (t.complete) {
            EXPECT_GT(t.hops, 0u) << "txn " << t.txn;
        }
    }
    // The trace covers warmup and drain too, so it must see at least
    // as many ring requests as the measured-phase statistics report.
    std::size_t reads = 0;
    for (const TxnTimeline &t : analysis.txns)
        if (!t.isWrite)
            ++reads;
    EXPECT_GE(reads, result.readRingRequests);

    std::ostringstream summary;
    writeSummary(summary, file, analysis);
    EXPECT_NE(summary.str().find("spans: "), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceSubsystem, ChromeTraceExportIsStructurallySound)
{
    Fixture f;
    const std::string path = "/tmp/flexsnoop_test_json.fstrace";
    f.cfg.trace.path = path;
    runSimulation(f.cfg, f.traces, f.workload);

    const TraceFile file = loadTrace(path);
    const TraceAnalysis analysis = analyzeTrace(file);
    std::ostringstream os;
    writeChromeTrace(os, file, analysis);
    const std::string json = os.str();

    EXPECT_EQ(json.find("{\"displayTimeUnit\""), 0u);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_EQ(json.back(), '\n');
    EXPECT_EQ(json[json.size() - 2], '}');

    const auto count = [&](const std::string &needle) {
        std::size_t n = 0;
        for (std::size_t at = json.find(needle);
             at != std::string::npos; at = json.find(needle, at + 1))
            ++n;
        return n;
    };
    // Async span begins and ends must pair up, one per completed txn.
    EXPECT_EQ(count("\"ph\":\"b\""), analysis.completed());
    EXPECT_EQ(count("\"ph\":\"e\""), analysis.completed());
    EXPECT_GT(count("\"ph\":\"X\""), 0u);
    // Braces balance (no truncated emission).
    EXPECT_EQ(count("{"), count("}"));
    std::remove(path.c_str());
}

} // namespace
} // namespace flexsnoop
