/**
 * @file
 * Unit tests for the string-based configuration overrides.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

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
    // One row per configuration key: a value away from the default and
    // the config field it lands in, spelled as describeConfig spells it.
    using Field = std::function<std::string(const MachineConfig &)>;
    const auto num = [](auto v) { return std::to_string(v); };
    const std::vector<std::tuple<std::string, std::string, Field>> rows = {
        {"algorithm", "SupersetCon",
         [](const MachineConfig &c) {
             return std::string(toString(c.algorithm));
         }},
        {"predictor", "y2k",
         [](const MachineConfig &c) { return c.predictor.id; }},
        {"num_cmps", "12",
         [&](const MachineConfig &c) { return num(c.numCmps); }},
        {"cores_per_cmp", "2",
         [&](const MachineConfig &c) { return num(c.coresPerCmp); }},
        {"l2_entries", "2468",
         [&](const MachineConfig &c) { return num(c.l2Entries); }},
        {"l2_ways", "4",
         [&](const MachineConfig &c) { return num(c.l2Ways); }},
        {"num_rings", "3",
         [&](const MachineConfig &c) { return num(c.numRings); }},
        {"ring_link_latency", "77",
         [&](const MachineConfig &c) { return num(c.ring.linkLatency); }},
        {"ring_serialization", "9",
         [&](const MachineConfig &c) { return num(c.ring.serialization); }},
        {"mem_local_rt", "351",
         [&](const MachineConfig &c) {
             return num(c.memory.localRoundTrip);
         }},
        {"mem_remote_rt", "711",
         [&](const MachineConfig &c) {
             return num(c.memory.remoteRoundTrip);
         }},
        {"mem_prefetch_rt", "313",
         [&](const MachineConfig &c) {
             return num(c.memory.remotePrefetchRoundTrip);
         }},
        {"prefetch_enabled", "0",
         [&](const MachineConfig &c) {
             return num(int{c.memory.prefetchEnabled});
         }},
        {"cmp_snoop_time", "56",
         [&](const MachineConfig &c) {
             return num(c.coherence.cmpSnoopTime);
         }},
        {"retry_backoff", "201",
         [&](const MachineConfig &c) {
             return num(c.coherence.retryBackoff);
         }},
        {"max_outstanding", "5",
         [&](const MachineConfig &c) { return num(c.core.maxOutstanding); }},
        {"write_filtering", "1",
         [&](const MachineConfig &c) { return num(int{c.writeFiltering}); }},
        {"watchdog_cycles", "20000",
         [&](const MachineConfig &c) {
             return num(c.coherence.watchdogCycles);
         }},
        {"max_retries", "999",
         [&](const MachineConfig &c) { return num(c.coherence.maxRetries); }},
        {"topology", "hier",
         [](const MachineConfig &c) {
             return std::string(toString(c.topology.kind));
         }},
        {"local_rings", "3",
         [&](const MachineConfig &c) { return num(c.topology.localRings); }},
        {"global_hop_cycles", "63",
         [&](const MachineConfig &c) {
             return num(c.topology.globalHopCycles);
         }},
        {"global_algorithm", "Oracle",
         [](const MachineConfig &c) { return c.topology.globalAlgorithm; }},
    };

    // The table covers every key the parser accepts, so a key added to
    // the parser but not to the description fails here.
    std::set<std::string> table_keys;
    for (const auto &[key, value, field] : rows)
        table_keys.insert(key);
    EXPECT_EQ(table_keys, std::set<std::string>(configKeys().begin(),
                                                configKeys().end()));

    const MachineConfig fresh = MachineConfig::paperDefault(Algorithm::Lazy);
    MachineConfig cfg = fresh;
    for (const auto &[key, value, field] : rows) {
        ASSERT_NE(field(fresh), value) << key << " is already the default";
        applyOverride(cfg, key + "=" + value);
    }
    ASSERT_TRUE(cfg.topology.hierarchical());

    // The description names every key once, and re-applying its
    // key=value tokens to a fresh config rebuilds every value.
    const std::string desc = describeConfig(cfg);
    std::map<std::string, std::string> described;
    MachineConfig rebuilt = fresh;
    std::istringstream iss(desc);
    std::string token;
    while (iss >> token) {
        const auto eq = token.find('=');
        ASSERT_NE(eq, std::string::npos) << token;
        EXPECT_TRUE(described.emplace(token.substr(0, eq),
                                      token.substr(eq + 1))
                        .second)
            << "named twice: " << token;
        applyOverride(rebuilt, token);
    }
    for (const auto &[key, value, field] : rows) {
        EXPECT_EQ(described.count(key), 1u) << key << " missing: " << desc;
        EXPECT_EQ(field(cfg), value) << key;
        EXPECT_EQ(field(rebuilt), value) << key;
    }
}

TEST(ConfigParser, KeyListIsNonEmptyAndAccepted)
{
    const auto &keys = configKeys();
    EXPECT_GE(keys.size(), 10u);
}

} // namespace
} // namespace flexsnoop
