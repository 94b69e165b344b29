/**
 * @file
 * Unit tests for the string-based configuration overrides.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "coherence/cmp_node.hh"
#include "core/config_parser.hh"

namespace flexsnoop
{
namespace
{

TEST(ConfigParser, NumericOverrides)
{
    MachineConfig cfg = MachineConfig::paperDefault(Algorithm::Lazy);
    applyOverride(cfg, "l2_entries=4096");
    applyOverride(cfg, "l2_ways=16");
    applyOverride(cfg, "num_rings=1");
    applyOverride(cfg, "ring_link_latency=50");
    applyOverride(cfg, "mem_remote_rt=900");
    applyOverride(cfg, "max_outstanding=8");
    EXPECT_EQ(cfg.l2Entries, 4096u);
    EXPECT_EQ(cfg.l2Ways, 16u);
    EXPECT_EQ(cfg.numRings, 1u);
    EXPECT_EQ(cfg.ring.linkLatency, 50u);
    EXPECT_EQ(cfg.memory.remoteRoundTrip, 900u);
    EXPECT_EQ(cfg.core.maxOutstanding, 8u);
}

TEST(ConfigParser, CoresPerCmpBoundedByCopyMask)
{
    // A CMP's line record keeps one copy bit per local L2.
    MachineConfig cfg = MachineConfig::paperDefault(Algorithm::Lazy);
    const std::string largest = std::to_string(CmpNode::kMaxCores);
    applyOverride(cfg, "cores_per_cmp=" + largest);
    EXPECT_EQ(cfg.coresPerCmp, CmpNode::kMaxCores);

    const std::string past = std::to_string(CmpNode::kMaxCores + 1);
    try {
        applyOverride(cfg, "cores_per_cmp=" + past);
        FAIL() << "cores_per_cmp=" << past << " was accepted";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cores_per_cmp must be at most " + largest),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(past), std::string::npos) << what;
    }
    EXPECT_EQ(cfg.coresPerCmp, CmpNode::kMaxCores); // left unchanged
    EXPECT_THROW(applyOverride(cfg, "cores_per_cmp=0"),
                 std::invalid_argument);
}

TEST(ConfigParser, NumCmpsAdjustsTorus)
{
    MachineConfig cfg = MachineConfig::paperDefault(Algorithm::Lazy);
    applyOverride(cfg, "num_cmps=16");
    EXPECT_EQ(cfg.numCmps, 16u);
    EXPECT_EQ(cfg.torus.rows * cfg.torus.columns, 16u);
    EXPECT_EQ(cfg.torus.rows, 4u); // most square factorization
    applyOverride(cfg, "num_cmps=6");
    EXPECT_EQ(cfg.torus.rows, 2u);
    EXPECT_EQ(cfg.torus.columns, 3u);
}

TEST(ConfigParser, BooleanOverrides)
{
    MachineConfig cfg = MachineConfig::paperDefault(Algorithm::Lazy);
    applyOverride(cfg, "prefetch_enabled=false");
    EXPECT_FALSE(cfg.memory.prefetchEnabled);
    applyOverride(cfg, "prefetch_enabled=on");
    EXPECT_TRUE(cfg.memory.prefetchEnabled);
    EXPECT_THROW(applyOverride(cfg, "prefetch_enabled=maybe"),
                 std::invalid_argument);
}

TEST(ConfigParser, AlgorithmSwitchesPredictorDefault)
{
    MachineConfig cfg = MachineConfig::paperDefault(Algorithm::Lazy);
    applyOverride(cfg, "algorithm=supersetagg");
    EXPECT_EQ(cfg.algorithm, Algorithm::SupersetAgg);
    EXPECT_EQ(cfg.predictor.id, "n2k");
    applyOverride(cfg, "predictor=n2k");
    EXPECT_EQ(cfg.predictor.id, "n2k");
}

TEST(ConfigParser, PredictorMismatchRejected)
{
    MachineConfig cfg =
        MachineConfig::paperDefault(Algorithm::SupersetCon);
    EXPECT_THROW(applyOverride(cfg, "predictor=sub2k"),
                 std::invalid_argument);
}

TEST(ConfigParser, MalformedInputsRejected)
{
    MachineConfig cfg = MachineConfig::paperDefault(Algorithm::Lazy);
    EXPECT_THROW(applyOverride(cfg, "l2_entries"), std::invalid_argument);
    EXPECT_THROW(applyOverride(cfg, "=5"), std::invalid_argument);
    EXPECT_THROW(applyOverride(cfg, "l2_entries=abc"),
                 std::invalid_argument);
    EXPECT_THROW(applyOverride(cfg, "l2_entries=12x"),
                 std::invalid_argument);
    EXPECT_THROW(applyOverride(cfg, "bogus_key=1"),
                 std::invalid_argument);
}

/** The message of the error thrown by @p assignment. */
std::string
errorFor(const std::string &assignment)
{
    MachineConfig cfg = MachineConfig::paperDefault(Algorithm::Lazy);
    try {
        applyOverride(cfg, assignment);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    ADD_FAILURE() << "'" << assignment << "' was accepted";
    return "";
}

TEST(ConfigParser, DiagnosticsNameKeyAndPosition)
{
    // One assertion per malformed-input class: each diagnostic must
    // carry enough context to fix the input without reading the code.
    std::string msg = errorFor("l2_entries=12x7");
    EXPECT_NE(msg.find("l2_entries"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'x'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("position 2"), std::string::npos) << msg;

    msg = errorFor("ring_link_latency=");
    EXPECT_NE(msg.find("empty value"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ring_link_latency"), std::string::npos) << msg;

    msg = errorFor("l2_ways=-3");
    EXPECT_NE(msg.find("'-'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("position 0"), std::string::npos) << msg;

    msg = errorFor("cmp_snoop_time=99999999999999999999999");
    EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;

    msg = errorFor("num_cmps=1"); // structurally invalid: ring needs 2+
    EXPECT_NE(msg.find("at least 2"), std::string::npos) << msg;

    msg = errorFor("max_outstanding=0");
    EXPECT_NE(msg.find("at least 1"), std::string::npos) << msg;

    msg = errorFor("prefetch_enabled=maybe");
    EXPECT_NE(msg.find("on/off"), std::string::npos) << msg;

    msg = errorFor("bogus_key=1");
    EXPECT_NE(msg.find("bogus_key"), std::string::npos) << msg;
    EXPECT_NE(msg.find("known keys"), std::string::npos) << msg;

    msg = errorFor("l2_entries");
    EXPECT_NE(msg.find("no '='"), std::string::npos) << msg;

    msg = errorFor("=5");
    EXPECT_NE(msg.find("empty key"), std::string::npos) << msg;
}

TEST(ConfigParser, ApplyOverridesNamesFailingEntry)
{
    MachineConfig cfg = MachineConfig::paperDefault(Algorithm::Lazy);
    try {
        applyOverrides(cfg, {"l2_ways=2", "num_rings=zero", "l2_ways=4"});
        FAIL() << "expected the second override to be rejected";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("override #2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("num_rings=zero"), std::string::npos) << msg;
    }
    // Overrides before the failing one were applied, later ones not.
    EXPECT_EQ(cfg.l2Ways, 2u);
}

TEST(ConfigParser, WatchdogAndRetryKeys)
{
    MachineConfig cfg = MachineConfig::paperDefault(Algorithm::Lazy);
    EXPECT_EQ(cfg.coherence.watchdogCycles, 0u);
    applyOverride(cfg, "watchdog_cycles=20000");
    applyOverride(cfg, "max_retries=32");
    EXPECT_EQ(cfg.coherence.watchdogCycles, 20000u);
    EXPECT_EQ(cfg.coherence.maxRetries, 32u);
    EXPECT_THROW(applyOverride(cfg, "max_retries=0"),
                 std::invalid_argument);
}

TEST(ConfigParser, ApplyOverridesInOrder)
{
    MachineConfig cfg = MachineConfig::paperDefault(Algorithm::Lazy);
    applyOverrides(cfg, {"l2_ways=2", "l2_ways=4"});
    EXPECT_EQ(cfg.l2Ways, 4u);
}

TEST(ConfigParser, DescribeRoundTripsThroughApply)
{
    MachineConfig cfg = MachineConfig::paperDefault(Algorithm::Exact);
    cfg.l2Entries = 1234 * 2; // arbitrary tweaks
    cfg.ring.linkLatency = 77;
    const std::string desc = describeConfig(cfg);

    // Re-apply every key=value from the description to a fresh config.
    MachineConfig rebuilt = MachineConfig::paperDefault(Algorithm::Lazy);
    std::istringstream iss(desc);
    std::string token;
    while (iss >> token)
        applyOverride(rebuilt, token);
    EXPECT_EQ(rebuilt.algorithm, cfg.algorithm);
    EXPECT_EQ(rebuilt.predictor.id, cfg.predictor.id);
    EXPECT_EQ(rebuilt.l2Entries, cfg.l2Entries);
    EXPECT_EQ(rebuilt.ring.linkLatency, cfg.ring.linkLatency);
}

TEST(ConfigParser, KeyListIsNonEmptyAndAccepted)
{
    const auto &keys = configKeys();
    EXPECT_GE(keys.size(), 10u);
}

} // namespace
} // namespace flexsnoop
