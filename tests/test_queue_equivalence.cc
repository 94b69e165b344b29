/**
 * @file
 * The scheduler equivalence guarantee: swapping the EventQueue's
 * timing-wheel implementation for the reference binary heap
 * (FLEXSNOOP_HEAP_QUEUE) must not change a single statistic — the wheel
 * fires events in the exact (cycle, seq) order the heap does, so every
 * RunResult field and every .fstrace byte is identical. Any divergence
 * here is an ordering bug in the wheel.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/simulation.hh"
#include "run_result_equality.hh"
#include "trace/trace_reader.hh"
#include "workload/core_model.hh"
#include "workload/synthetic_generator.hh"

namespace flexsnoop
{
namespace
{

/** Scoped FLEXSNOOP_HEAP_QUEUE=1: machines built inside use the
 *  reference heap scheduler. */
class HeapQueueEnv
{
  public:
    HeapQueueEnv() { ::setenv("FLEXSNOOP_HEAP_QUEUE", "1", 1); }
    ~HeapQueueEnv() { ::unsetenv("FLEXSNOOP_HEAP_QUEUE"); }
    HeapQueueEnv(const HeapQueueEnv &) = delete;
    HeapQueueEnv &operator=(const HeapQueueEnv &) = delete;
};

void
runBothAndCompare(const MachineConfig &cfg, const CoreTraces &traces,
                  const std::string &name)
{
    SCOPED_TRACE(name + " / " + std::string(toString(cfg.algorithm)));
    const RunResult wheel = runSimulation(cfg, traces, name);
    RunResult heap;
    {
        HeapQueueEnv env;
        heap = runSimulation(cfg, traces, name);
    }
    EXPECT_TRUE(identicalRuns(wheel, heap));
}

/** Shrink a built-in profile so the full matrix stays fast. */
WorkloadProfile
shrunk(WorkloadProfile p)
{
    p.refsPerCore = std::min<std::size_t>(p.refsPerCore, 400);
    p.warmupRefs = std::min<std::size_t>(p.warmupRefs, 100);
    return p;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.is_open()) << path;
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

TEST(QueueEquivalence, EnvSelectsTheHeapImplementation)
{
    MachineConfig cfg = MachineConfig::testDefault(Algorithm::Lazy);
    {
        Machine wheel(cfg);
        EXPECT_EQ(wheel.queue().impl(), EventQueue::Impl::Wheel);
        // Sized from the config's hot latencies (710 -> 1024).
        EXPECT_EQ(wheel.queue().nearBuckets(),
                  std::size_t{1024});
    }
    HeapQueueEnv env;
    Machine heap(cfg);
    EXPECT_EQ(heap.queue().impl(), EventQueue::Impl::Heap);
}

class QueueEquivalence : public ::testing::TestWithParam<Algorithm>
{
};

TEST_P(QueueEquivalence, AllBuiltinProfiles)
{
    std::vector<WorkloadProfile> profiles = splash2Profiles();
    profiles.push_back(specJbbProfile());
    profiles.push_back(specWebProfile());
    profiles.push_back(miniProfile());

    for (const WorkloadProfile &base : profiles) {
        const WorkloadProfile profile = shrunk(base);
        MachineConfig cfg =
            MachineConfig::paperDefault(GetParam(), profile.coresPerCmp);
        if (cfg.numCmps != profile.numCmps())
            cfg.setNumCmps(profile.numCmps());
        SyntheticGenerator gen(profile);
        runBothAndCompare(cfg, gen.generate(), profile.name);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, QueueEquivalence,
    ::testing::ValuesIn(paperAlgorithms()),
    [](const ::testing::TestParamInfo<Algorithm> &info) {
        return std::string(toString(info.param));
    });

TEST(QueueEquivalence, TraceBytesIdenticalUnderBothSchedulers)
{
    // The strongest equivalence statement available: the event-level
    // trace timestamps every ring hop and snoop, so byte-identical
    // .fstrace files mean the two schedulers interleaved the entire
    // simulation identically, not just its end-of-run aggregates.
    WorkloadProfile profile = miniProfile();
    profile.refsPerCore = 400;
    profile.warmupRefs = 100;
    const CoreTraces traces = SyntheticGenerator(profile).generate();
    MachineConfig cfg = MachineConfig::paperDefault(
        Algorithm::SupersetAgg, profile.coresPerCmp);
    cfg.setNumCmps(profile.numCmps());

    const std::string wheel_path = "/tmp/flexsnoop_test_qw.fstrace";
    const std::string heap_path = "/tmp/flexsnoop_test_qh.fstrace";
    cfg.trace.path = wheel_path;
    runSimulation(cfg, traces, profile.name);
    {
        HeapQueueEnv env;
        cfg.trace.path = heap_path;
        runSimulation(cfg, traces, profile.name);
    }

    const std::string wheel_bytes = readBytes(wheel_path);
    const std::string heap_bytes = readBytes(heap_path);
    ASSERT_GT(wheel_bytes.size(), sizeof(TraceFileHeader));
    EXPECT_TRUE(wheel_bytes == heap_bytes)
        << "schedulers produced different trace bytes";
    std::remove(wheel_path.c_str());
    std::remove(heap_path.c_str());
}

} // namespace
} // namespace flexsnoop
