/**
 * @file
 * The degenerate-hierarchy guarantee: topology=hier with a single
 * local ring builds no Topology object at all, so every component runs
 * the identical flat-ring instruction path — the results must be
 * bit-exact with topology=flat, field by field, for every paper
 * algorithm on every built-in workload profile, and the emitted
 * .fstrace event streams must be byte-identical.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulation.hh"
#include "run_result_equality.hh"
#include "workload/profile.hh"
#include "workload/synthetic_generator.hh"

namespace flexsnoop
{
namespace
{

/** Shrink a built-in profile so the full matrix stays fast. */
WorkloadProfile
shrunk(WorkloadProfile p)
{
    p.refsPerCore = std::min<std::size_t>(p.refsPerCore, 400);
    p.warmupRefs = std::min<std::size_t>(p.warmupRefs, 100);
    return p;
}

void
runBothAndCompare(MachineConfig cfg, const CoreTraces &traces,
                  const std::string &name)
{
    SCOPED_TRACE(name + " / " + std::string(toString(cfg.algorithm)));
    cfg.topology = TopologyConfig{}; // flat
    const RunResult flat = runSimulation(cfg, traces, name);
    cfg.topology.kind = TopologyKind::Hier;
    cfg.topology.localRings = 1; // degenerate: one local ring
    const RunResult degen = runSimulation(cfg, traces, name);
    EXPECT_TRUE(identicalRuns(flat, degen));
    // The degenerate hierarchy has no bridges or global links at all.
    EXPECT_EQ(degen.bridgeSkips, 0u);
    EXPECT_EQ(degen.bridgeDescends, 0u);
    EXPECT_EQ(degen.globalLinkMessages, 0u);
}

class HierEquivalence : public ::testing::TestWithParam<Algorithm>
{
};

TEST_P(HierEquivalence, AllBuiltinProfiles)
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

TEST_P(HierEquivalence, FaultedRunsStayIdentical)
{
    // Same fault seed, same (flat-inherited) per-level rates: the
    // degenerate machine must draw the identical fault stream.
    const WorkloadProfile profile = shrunk(miniProfile());
    MachineConfig cfg =
        MachineConfig::paperDefault(GetParam(), profile.coresPerCmp);
    cfg.setNumCmps(profile.numCmps());
    cfg.faults.dropRate = 5e-4;
    cfg.faults.dupRate = 5e-4;
    cfg.faults.seed = 11;
    cfg.coherence.watchdogCycles = 20000;
    SyntheticGenerator gen(profile);
    runBothAndCompare(cfg, gen.generate(), "mini_faulted");
}

TEST_P(HierEquivalence, TraceBytesIdentical)
{
    const WorkloadProfile profile = shrunk(miniProfile());
    MachineConfig cfg =
        MachineConfig::paperDefault(GetParam(), profile.coresPerCmp);
    cfg.setNumCmps(profile.numCmps());
    SyntheticGenerator gen(profile);
    const CoreTraces traces = gen.generate();

    const auto traceRun = [&](const std::string &path) {
        MachineConfig traced = cfg;
        traced.trace.path = path;
        runSimulation(traced, traces, profile.name);
        std::ifstream is(path, std::ios::binary);
        std::ostringstream bytes;
        bytes << is.rdbuf();
        std::remove(path.c_str());
        return bytes.str();
    };

    // One file per algorithm: ctest runs the instances in parallel.
    const std::string stem =
        "/tmp/flexsnoop_test_hier_" + std::string(toString(GetParam()));
    cfg.topology = TopologyConfig{};
    const std::string flat_bytes = traceRun(stem + "_flat.fstrace");
    cfg.topology.kind = TopologyKind::Hier;
    cfg.topology.localRings = 1;
    const std::string degen_bytes = traceRun(stem + "_degen.fstrace");

    ASSERT_FALSE(flat_bytes.empty());
    EXPECT_TRUE(flat_bytes == degen_bytes)
        << "degenerate hierarchy produced different trace bytes";
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, HierEquivalence,
    ::testing::ValuesIn(paperAlgorithms()),
    [](const ::testing::TestParamInfo<Algorithm> &info) {
        return std::string(toString(info.param));
    });

} // namespace
} // namespace flexsnoop
