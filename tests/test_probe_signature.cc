/**
 * @file
 * The probe-signature equivalence guarantee: carrying hash-once filter
 * indices, the L2 set and the home node inside every ring message
 * (FLEXSNOOP_NO_PROBE_SIG disables it) is a pure data-layout change —
 * every RunResult field and every .fstrace byte must be identical to
 * the recompute-at-every-hop fallback. Any divergence means a carried
 * index disagrees with what a hop would have derived from the address.
 *
 * Also covers the predictor-level contract directly: the signature
 * overloads of predict()/mayBePresent() answer exactly like the hashing
 * paths and train the same counters.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/simulation.hh"
#include "predictor/presence_predictor.hh"
#include "predictor/superset_predictor.hh"
#include "run_result_equality.hh"
#include "sim/random.hh"
#include "trace/trace_reader.hh"
#include "workload/core_model.hh"
#include "workload/synthetic_generator.hh"

namespace flexsnoop
{
namespace
{

/** Scoped FLEXSNOOP_NO_PROBE_SIG=1: controllers built inside issue
 *  ring messages without signatures, forcing every hop onto the
 *  recompute-from-address fallback. */
class NoSignatureEnv
{
  public:
    NoSignatureEnv() { ::setenv("FLEXSNOOP_NO_PROBE_SIG", "1", 1); }
    ~NoSignatureEnv() { ::unsetenv("FLEXSNOOP_NO_PROBE_SIG"); }
    NoSignatureEnv(const NoSignatureEnv &) = delete;
    NoSignatureEnv &operator=(const NoSignatureEnv &) = delete;
};

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

Addr
lineAt(std::uint64_t idx)
{
    return idx * kLineSizeBytes;
}

/** Build a message-style signature for @p line against the predictors
 *  under test (what CoherenceController::computeSignature produces). */
ProbeSignature
signatureFor(Addr line, const SupplierPredictor &pred,
             const PresencePredictor &presence)
{
    ProbeSignature sig;
    sig.home = 0; // any non-invalid node marks the signature valid
    sig.supplierFields =
        static_cast<std::uint8_t>(pred.fillSignature(line, sig.supplier));
    sig.presenceFields = static_cast<std::uint8_t>(
        presence.fillSignature(line, sig.presence));
    return sig;
}

TEST(ProbeSignature, SupersetPredictorSignatureAnswersMatchHashedAnswers)
{
    SupersetPredictor sig_pred("sig", {10, 4, 7}, 32, 4, 34, 2);
    SupersetPredictor hash_pred("hash", {10, 4, 7}, 32, 4, 34, 2);
    PresencePredictor presence("presence");
    Rng rng(7);
    for (int i = 0; i < 400; ++i) {
        const Addr line = lineAt(rng.nextBelow(5000));
        sig_pred.supplierGained(line);
        hash_pred.supplierGained(line);
    }
    for (int i = 0; i < 5000; ++i) {
        const Addr line = lineAt(rng.nextBelow(6000));
        const ProbeSignature sig =
            signatureFor(line, sig_pred, presence);
        ASSERT_EQ(sig.supplierFields, 3u);
        ASSERT_EQ(sig_pred.predict(line, sig), hash_pred.predict(line));
    }
    // Both took the counted-lookup path the same number of times...
    EXPECT_EQ(sig_pred.stats().counter("lookups").value(),
              hash_pred.stats().counter("lookups").value());
    // ...but through different probe mechanics.
    EXPECT_EQ(sig_pred.stats().counter("probe_signature").value(), 5000u);
    EXPECT_EQ(sig_pred.stats().counter("probe_hashed").value(), 0u);
    EXPECT_EQ(hash_pred.stats().counter("probe_hashed").value(), 5000u);
}

TEST(ProbeSignature, MismatchedGeometryFallsBackToHashing)
{
    // A signature built by a {10,4,7} node probing a predictor with a
    // different field count must be ignored, not misapplied.
    SupersetPredictor pred("p", {9, 9, 6}, 0, 1, 34, 2);
    pred.supplierGained(lineAt(3));
    ProbeSignature sig;
    sig.home = 0;
    sig.supplierFields = 2; // wrong arity on purpose
    EXPECT_TRUE(pred.predict(lineAt(3), sig));
    EXPECT_EQ(pred.stats().counter("probe_hashed").value(), 1u);
    EXPECT_EQ(pred.stats().counter("probe_signature").value(), 0u);
    // An invalid (default) signature — raw test-crafted messages — also
    // falls back.
    EXPECT_TRUE(pred.predict(lineAt(3), ProbeSignature{}));
    EXPECT_EQ(pred.stats().counter("probe_hashed").value(), 2u);
}

TEST(ProbeSignature, PresencePredictorSignatureAnswersMatchHashedAnswers)
{
    SupersetPredictor supplier("s", {10, 4, 7}, 0, 1, 34, 2);
    PresencePredictor sig_pres("sp");
    PresencePredictor hash_pres("hp");
    Rng rng(11);
    for (int i = 0; i < 600; ++i) {
        const Addr line = lineAt(rng.nextBelow(8000));
        sig_pres.linePresent(line);
        hash_pres.linePresent(line);
    }
    for (int i = 0; i < 5000; ++i) {
        const Addr line = lineAt(rng.nextBelow(10000));
        const ProbeSignature sig = signatureFor(line, supplier, sig_pres);
        ASSERT_EQ(sig_pres.mayBePresent(line, sig),
                  hash_pres.mayBePresent(line));
    }
    EXPECT_EQ(sig_pres.stats().counter("lookups").value(),
              hash_pres.stats().counter("lookups").value());
    EXPECT_EQ(sig_pres.stats().counter("filtered").value(),
              hash_pres.stats().counter("filtered").value());
    EXPECT_EQ(sig_pres.stats().counter("probe_signature").value(), 5000u);
    EXPECT_EQ(hash_pres.stats().counter("probe_hashed").value(), 5000u);
}

class SignatureEquivalence : public ::testing::TestWithParam<Algorithm>
{
};

TEST_P(SignatureEquivalence, AllBuiltinProfiles)
{
    std::vector<WorkloadProfile> profiles = splash2Profiles();
    profiles.push_back(specJbbProfile());
    profiles.push_back(specWebProfile());
    profiles.push_back(miniProfile());

    for (const WorkloadProfile &base : profiles) {
        const WorkloadProfile profile = shrunk(base);
        MachineConfig cfg =
            MachineConfig::paperDefault(GetParam(), profile.coresPerCmp);
        cfg.setNumCmps(profile.numCmps());
        SyntheticGenerator gen(profile);
        const CoreTraces traces = gen.generate();
        SCOPED_TRACE(profile.name + " / " +
                     std::string(toString(cfg.algorithm)));
        const RunResult with_sig =
            runSimulation(cfg, traces, profile.name);
        RunResult without_sig;
        {
            NoSignatureEnv env;
            without_sig = runSimulation(cfg, traces, profile.name);
        }
        EXPECT_TRUE(identicalRuns(with_sig, without_sig));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SignatureEquivalence,
    ::testing::ValuesIn(paperAlgorithms()),
    [](const ::testing::TestParamInfo<Algorithm> &info) {
        return std::string(toString(info.param));
    });

TEST(ProbeSignature, TraceBytesIdenticalWithAndWithoutSignatures)
{
    // Byte-identical .fstrace files mean every hop decision, gate
    // deferral and snoop fired at the same cycle with the same
    // operands — the signature is provably a pure layout change.
    WorkloadProfile profile = miniProfile();
    profile.refsPerCore = 400;
    profile.warmupRefs = 100;
    const CoreTraces traces = SyntheticGenerator(profile).generate();
    MachineConfig cfg = MachineConfig::paperDefault(
        Algorithm::SupersetAgg, profile.coresPerCmp);
    cfg.setNumCmps(profile.numCmps());

    const std::string sig_path = "/tmp/flexsnoop_test_ps.fstrace";
    const std::string hash_path = "/tmp/flexsnoop_test_ph.fstrace";
    cfg.trace.path = sig_path;
    runSimulation(cfg, traces, profile.name);
    {
        NoSignatureEnv env;
        cfg.trace.path = hash_path;
        runSimulation(cfg, traces, profile.name);
    }

    const std::string sig_bytes = readBytes(sig_path);
    const std::string hash_bytes = readBytes(hash_path);
    ASSERT_GT(sig_bytes.size(), sizeof(TraceFileHeader));
    EXPECT_TRUE(sig_bytes == hash_bytes)
        << "signature carrying changed the event stream";
    std::remove(sig_path.c_str());
    std::remove(hash_path.c_str());
}

} // namespace
} // namespace flexsnoop
