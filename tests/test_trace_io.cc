/**
 * @file
 * Unit tests for trace persistence (binary save/load round trips and
 * malformed-input rejection), plus the pinned on-disk event numbering
 * of `.fstrace` captures.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "trace/trace_format.hh"
#include "workload/synthetic_generator.hh"
#include "workload/trace_io.hh"

namespace flexsnoop
{
namespace
{

CoreTraces
sampleTraces()
{
    CoreTraces traces;
    traces.warmupRefs = 2;
    traces.traces.resize(3);
    for (CoreId c = 0; c < 3; ++c) {
        for (unsigned i = 0; i < 5 + c; ++i) {
            MemRef ref;
            ref.addr = (c * 1000 + i) * kLineSizeBytes + 7;
            ref.isWrite = (i % 2) == 0;
            ref.gap = 10 + i;
            traces.traces[c].push_back(ref);
        }
    }
    return traces;
}

void
expectEqual(const CoreTraces &a, const CoreTraces &b)
{
    ASSERT_EQ(a.traces.size(), b.traces.size());
    EXPECT_EQ(a.warmupRefs, b.warmupRefs);
    for (std::size_t c = 0; c < a.traces.size(); ++c) {
        ASSERT_EQ(a.traces[c].size(), b.traces[c].size()) << c;
        for (std::size_t i = 0; i < a.traces[c].size(); ++i) {
            EXPECT_EQ(a.traces[c][i].addr, b.traces[c][i].addr);
            EXPECT_EQ(a.traces[c][i].isWrite, b.traces[c][i].isWrite);
            EXPECT_EQ(a.traces[c][i].gap, b.traces[c][i].gap);
        }
    }
}

TEST(TraceIo, StreamRoundTrip)
{
    const CoreTraces original = sampleTraces();
    std::stringstream buffer;
    writeTraces(buffer, original);
    const CoreTraces loaded = readTraces(buffer);
    expectEqual(original, loaded);
}

TEST(TraceIo, GeneratedWorkloadRoundTrip)
{
    WorkloadProfile profile = miniProfile();
    profile.refsPerCore = 200;
    profile.warmupRefs = 50;
    const CoreTraces original = SyntheticGenerator(profile).generate();
    std::stringstream buffer;
    writeTraces(buffer, original);
    expectEqual(original, readTraces(buffer));
}

TEST(TraceIo, FileRoundTrip)
{
    const std::string path = "/tmp/flexsnoop_trace_io_test.fstr";
    const CoreTraces original = sampleTraces();
    saveTraces(path, original);
    expectEqual(original, loadTraces(path));
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsBadMagic)
{
    std::stringstream buffer;
    buffer << "NOPE garbage";
    EXPECT_THROW(readTraces(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsTruncatedStream)
{
    std::stringstream buffer;
    writeTraces(buffer, sampleTraces());
    const std::string data = buffer.str();
    std::stringstream truncated(data.substr(0, data.size() / 2));
    EXPECT_THROW(readTraces(truncated), std::runtime_error);
}

TEST(TraceIo, RejectsWrongVersion)
{
    std::stringstream buffer;
    writeTraces(buffer, sampleTraces());
    std::string data = buffer.str();
    data[4] = 99; // version byte
    std::stringstream patched(data);
    EXPECT_THROW(readTraces(patched), std::runtime_error);
}

TEST(TraceIo, RejectsWarmupBeyondTraceLength)
{
    CoreTraces bad = sampleTraces();
    bad.warmupRefs = 100; // longer than any core's trace
    std::stringstream buffer;
    writeTraces(buffer, bad);
    EXPECT_THROW(readTraces(buffer), std::runtime_error);
}

TEST(TraceIo, MissingFileThrows)
{
    EXPECT_THROW(loadTraces("/nonexistent/dir/trace.fstr"),
                 std::runtime_error);
}

/** Serialized sample stream (for damage-injection tests). */
std::string
sampleBytes()
{
    std::stringstream buffer;
    writeTraces(buffer, sampleTraces());
    return buffer.str();
}

/** The message readTraces() rejects @p data with. */
std::string
rejectionFor(const std::string &data)
{
    std::stringstream damaged(data);
    try {
        readTraces(damaged);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    ADD_FAILURE() << "damaged trace stream was accepted";
    return "";
}

TEST(TraceIo, TruncationNamesFieldAndByteOffset)
{
    const std::string data = sampleBytes();
    // Cut inside the very first per-ref record: magic(4) + version(4) +
    // core count(8) + warmup(8) + ref count(8) = 32, then the 8-byte
    // ref address starts at offset 32.
    const std::string msg = rejectionFor(data.substr(0, 36));
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    EXPECT_NE(msg.find("byte offset 32"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ref address"), std::string::npos) << msg;
}

TEST(TraceIo, TruncatedHeaderNamesHeaderField)
{
    const std::string data = sampleBytes();
    const std::string msg = rejectionFor(data.substr(0, 10));
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    EXPECT_NE(msg.find("core count"), std::string::npos) << msg;
}

TEST(TraceIo, EveryTruncationPointIsRejectedNotCrashed)
{
    // A trace cut at any byte must produce a clean exception -- never
    // garbage traces, hangs, or out-of-bounds reads.
    const std::string data = sampleBytes();
    for (std::size_t cut = 0; cut + 1 < data.size(); cut += 3) {
        std::stringstream damaged(data.substr(0, cut));
        EXPECT_THROW(readTraces(damaged), std::runtime_error)
            << "cut at " << cut;
    }
}

TEST(TraceIo, CorruptWriteFlagNamesOffsetAndValue)
{
    std::string data = sampleBytes();
    // First ref record: address at 32, write flag at 40.
    data[40] = 7;
    const std::string msg = rejectionFor(data);
    EXPECT_NE(msg.find("corrupt write flag 7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("byte offset 40"), std::string::npos) << msg;
}

TEST(TraceIo, ImplausibleCoreCountRejected)
{
    std::string data = sampleBytes();
    // Core count is the u64 at offset 8: overwrite with a huge value.
    for (int i = 0; i < 8; ++i)
        data[8 + i] = static_cast<char>(0xff);
    const std::string msg = rejectionFor(data);
    EXPECT_NE(msg.find("implausible core count"), std::string::npos)
        << msg;
}

TEST(TraceIo, ImplausibleRefCountRejected)
{
    std::string data = sampleBytes();
    // First per-core ref count is the u64 at offset 24.
    for (int i = 0; i < 8; ++i)
        data[24 + i] = static_cast<char>(0xff);
    const std::string msg = rejectionFor(data);
    EXPECT_NE(msg.find("implausible ref count"), std::string::npos)
        << msg;
}

TEST(TraceIo, FstraceEventNumbersArePinned)
{
    // A .fstrace record stores its TraceEvent as a number, and the
    // reader accepts any file with the same kTraceVersion. Renumbering
    // an enumerator would silently misdecode older captures, so a
    // retired event keeps its slot (as ExpressRun does) and new events
    // go just before NumEvents.
    const auto num = [](TraceEvent e) {
        return static_cast<unsigned>(e);
    };
    EXPECT_EQ(num(TraceEvent::Invalid), 0u);
    EXPECT_EQ(num(TraceEvent::TxnStart), 1u);
    EXPECT_EQ(num(TraceEvent::RingIssue), 2u);
    EXPECT_EQ(num(TraceEvent::RingDone), 3u);
    EXPECT_EQ(num(TraceEvent::MemFetch), 4u);
    EXPECT_EQ(num(TraceEvent::MemData), 5u);
    EXPECT_EQ(num(TraceEvent::DataDelivered), 6u);
    EXPECT_EQ(num(TraceEvent::WriteComplete), 7u);
    EXPECT_EQ(num(TraceEvent::TxnRetire), 8u);
    EXPECT_EQ(num(TraceEvent::RetryScheduled), 9u);
    EXPECT_EQ(num(TraceEvent::Hop), 10u);
    EXPECT_EQ(num(TraceEvent::HopDecision), 11u);
    EXPECT_EQ(num(TraceEvent::GateDefer), 12u);
    EXPECT_EQ(num(TraceEvent::GateResume), 13u);
    EXPECT_EQ(num(TraceEvent::SnoopDone), 14u);
    EXPECT_EQ(num(TraceEvent::SupplierHit), 15u);
    EXPECT_EQ(num(TraceEvent::Collision), 16u);
    EXPECT_EQ(num(TraceEvent::IncompleteRejected), 17u);
    EXPECT_EQ(num(TraceEvent::StaleAbsorbed), 18u);
    EXPECT_EQ(num(TraceEvent::WatchdogExpire), 19u);
    EXPECT_EQ(num(TraceEvent::FaultDrop), 20u);
    EXPECT_EQ(num(TraceEvent::FaultDup), 21u);
    EXPECT_EQ(num(TraceEvent::FaultDelay), 22u);
    EXPECT_EQ(num(TraceEvent::PredictorFlip), 23u);
    EXPECT_EQ(num(TraceEvent::ExpressRun), 24u);
    EXPECT_EQ(num(TraceEvent::CounterSnapshot), 25u);
    EXPECT_EQ(num(TraceEvent::MeasureStart), 26u);
    EXPECT_EQ(num(TraceEvent::NumEvents), 27u);
}

} // namespace
} // namespace flexsnoop
