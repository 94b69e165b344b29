/**
 * @file
 * Unit tests for the trace capture layer (src/trace/): spec parsing,
 * the sink's drop/spill overflow modes and accounting, the snapshot
 * piggyback hook, the file reader's validation, and the lifetimes of
 * the decoded views.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "trace/trace_analysis.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_sink.hh"

namespace flexsnoop
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return "/tmp/flexsnoop_test_" + name + ".fstrace";
}

TEST(TraceConfig, DisabledByDefault)
{
    TraceConfig cfg;
    EXPECT_FALSE(cfg.enabled());
}

TEST(TraceConfig, FromSpecPathOnly)
{
    const TraceConfig cfg = TraceConfig::fromSpec("out.fstrace");
    EXPECT_TRUE(cfg.enabled());
    EXPECT_EQ(cfg.path, "out.fstrace");
    EXPECT_EQ(cfg.ringKb, 256u);
    EXPECT_EQ(cfg.mode, TraceMode::Spill);
}

TEST(TraceConfig, FromSpecAllKeys)
{
    const TraceConfig cfg = TraceConfig::fromSpec(
        "t.fstrace,ring_kb=64,mode=drop,snapshot=500");
    EXPECT_EQ(cfg.path, "t.fstrace");
    EXPECT_EQ(cfg.ringKb, 64u);
    EXPECT_EQ(cfg.mode, TraceMode::Drop);
    EXPECT_EQ(cfg.snapshotCycles, Cycle{500});
}

TEST(TraceConfig, FromSpecRejectsBadInput)
{
    EXPECT_THROW(TraceConfig::fromSpec(""), std::invalid_argument);
    EXPECT_THROW(TraceConfig::fromSpec("f,ring_kb=abc"),
                 std::invalid_argument);
    EXPECT_THROW(TraceConfig::fromSpec("f,ring_kb=0"),
                 std::invalid_argument);
    EXPECT_THROW(TraceConfig::fromSpec("f,mode=banana"),
                 std::invalid_argument);
    EXPECT_THROW(TraceConfig::fromSpec("f,unknown=1"),
                 std::invalid_argument);
    EXPECT_THROW(TraceConfig::fromSpec("f,ring_kb"),
                 std::invalid_argument);
}

TEST(TraceSink, RoundTripThroughReader)
{
    const std::string path = tempPath("roundtrip");
    TraceConfig cfg;
    cfg.path = path;
    cfg.snapshotCycles = 0;
    {
        TraceSink sink(cfg, 8, 32);
        sink.record(TraceEvent::TxnStart, 100, 7, 0x1234, 3, 2, 1, 0);
        sink.record(TraceEvent::Hop, 110, 7, 0x1234, 119, 2, 0, 4);
        sink.record(TraceEvent::TxnRetire, 200, 7, 0x1234);
        sink.finish();
        EXPECT_EQ(sink.recorded(), 3u);
        EXPECT_EQ(sink.dropped(), 0u);
    }

    const TraceFile file = loadTrace(path);
    EXPECT_EQ(file.header.version, kTraceVersion);
    EXPECT_EQ(file.header.numNodes, 8u);
    EXPECT_EQ(file.header.numCores, 32u);
    EXPECT_EQ(file.header.recorded, 3u);
    ASSERT_EQ(file.records.size(), 3u);

    const TraceRecord &r = file.records[0];
    EXPECT_EQ(r.event(), TraceEvent::TxnStart);
    EXPECT_EQ(r.cycle, Cycle{100});
    EXPECT_EQ(r.txn, TransactionId{7});
    EXPECT_EQ(r.arg0, Addr{0x1234});
    EXPECT_EQ(r.arg1, 3u);
    EXPECT_EQ(r.node, 2);
    EXPECT_EQ(r.a, 1);
    EXPECT_EQ(file.records[1].arg1, 119u);
    EXPECT_EQ(file.records[2].event(), TraceEvent::TxnRetire);
    std::remove(path.c_str());
}

TEST(TraceSink, InvalidTransactionMapsToZero)
{
    const std::string path = tempPath("invalid_txn");
    TraceConfig cfg;
    cfg.path = path;
    {
        TraceSink sink(cfg, 2, 2);
        sink.record(TraceEvent::Hop, 1, kInvalidTransaction, 0);
    }
    const TraceFile file = loadTrace(path);
    ASSERT_EQ(file.records.size(), 1u);
    EXPECT_EQ(file.records[0].txn, 0u);
    std::remove(path.c_str());
}

TEST(TraceSink, DropModeCountsOverflow)
{
    const std::string path = tempPath("drop");
    TraceConfig cfg;
    cfg.path = path;
    cfg.ringKb = 1; // 1024 B / 40 B = 25 records
    cfg.mode = TraceMode::Drop;
    cfg.snapshotCycles = 0;
    const std::size_t capacity = 1024 / sizeof(TraceRecord);
    {
        TraceSink sink(cfg, 2, 2);
        for (std::uint64_t i = 0; i < capacity + 10; ++i)
            sink.record(TraceEvent::Hop, i, 1, 0);
        EXPECT_EQ(sink.recorded(), capacity);
        EXPECT_EQ(sink.dropped(), 10u);
        EXPECT_EQ(sink.spills(), 0u);
    }
    const TraceFile file = loadTrace(path);
    EXPECT_EQ(file.records.size(), capacity);
    EXPECT_EQ(file.header.recorded, capacity);
    EXPECT_EQ(file.header.dropped, 10u);
    std::remove(path.c_str());
}

TEST(TraceSink, SpillModeKeepsEverything)
{
    const std::string path = tempPath("spill");
    TraceConfig cfg;
    cfg.path = path;
    cfg.ringKb = 1;
    cfg.mode = TraceMode::Spill;
    cfg.snapshotCycles = 0;
    const std::size_t capacity = 1024 / sizeof(TraceRecord);
    const std::size_t total = 3 * capacity + 7;
    {
        TraceSink sink(cfg, 2, 2);
        for (std::uint64_t i = 0; i < total; ++i)
            sink.record(TraceEvent::Hop, i, 1, i);
        EXPECT_EQ(sink.recorded(), total);
        EXPECT_EQ(sink.dropped(), 0u);
        EXPECT_EQ(sink.spills(), 3u);
    }
    const TraceFile file = loadTrace(path);
    ASSERT_EQ(file.records.size(), total);
    EXPECT_EQ(file.header.spills, 3u);
    // Spills must preserve capture order.
    for (std::size_t i = 0; i < total; ++i)
        EXPECT_EQ(file.records[i].arg0, i) << i;
    std::remove(path.c_str());
}

TEST(TraceSink, SnapshotHookPiggybacksOnRecords)
{
    const std::string path = tempPath("snapshot");
    TraceConfig cfg;
    cfg.path = path;
    cfg.snapshotCycles = 100;
    {
        TraceSink sink(cfg, 2, 2);
        sink.setSnapshotFn([&sink](Cycle cycle) {
            // Re-entrant record: must not re-trigger the hook.
            sink.record(TraceEvent::CounterSnapshot, cycle, 0, 42, 0,
                        kTraceNoNode, 0);
        });
        sink.record(TraceEvent::Hop, 10, 1, 0);  // before first due
        sink.record(TraceEvent::Hop, 150, 1, 0); // due at 100 -> fires
        sink.record(TraceEvent::Hop, 180, 1, 0); // next due at 200
        sink.record(TraceEvent::Hop, 410, 1, 0); // due at 200 -> fires
    }
    const TraceFile file = loadTrace(path);
    std::vector<Cycle> snaps;
    for (const TraceRecord &r : file.records)
        if (r.event() == TraceEvent::CounterSnapshot)
            snaps.push_back(r.cycle);
    ASSERT_EQ(snaps.size(), 2u);
    EXPECT_EQ(snaps[0], Cycle{150});
    EXPECT_EQ(snaps[1], Cycle{410});
    std::remove(path.c_str());
}

TEST(TraceReader, RejectsMissingFile)
{
    EXPECT_THROW(loadTrace("/tmp/flexsnoop_does_not_exist.fstrace"),
                 std::runtime_error);
}

TEST(TraceReader, RejectsBadMagicAndTruncation)
{
    const std::string path = tempPath("bad");
    {
        std::ofstream os(path, std::ios::binary);
        os << "NOTATRACEFILE and then some padding to pass size checks "
              "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
    }
    EXPECT_THROW(loadTrace(path), std::runtime_error);

    // Valid header, then chop a record in half.
    TraceConfig cfg;
    cfg.path = path;
    {
        TraceSink sink(cfg, 2, 2);
        sink.record(TraceEvent::Hop, 1, 1, 0);
        sink.record(TraceEvent::Hop, 2, 1, 0);
    }
    std::string data;
    {
        std::ifstream is(path, std::ios::binary);
        data.assign(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>());
    }
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(data.data(),
                 static_cast<std::streamsize>(data.size() - 17));
    }
    EXPECT_THROW(loadTrace(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceReader, HeaderOnlyFileHasNoRecords)
{
    const std::string path = tempPath("header_only");
    TraceConfig cfg;
    cfg.path = path;
    {
        TraceSink sink(cfg, 4, 16);
        sink.finish();
    }
    const TraceFile file = loadTrace(path);
    EXPECT_EQ(file.header.numNodes, 4u);
    EXPECT_EQ(file.header.recorded, 0u);
    EXPECT_TRUE(file.records.empty());
    std::remove(path.c_str());
}

TEST(TraceReader, RejectsFilesShorterThanAHeader)
{
    const std::string path = tempPath("short");
    for (const std::size_t size : {std::size_t{0}, std::size_t{63}}) {
        SCOPED_TRACE(size);
        TraceFileHeader header;
        std::memcpy(header.magic, kTraceMagic, sizeof(kTraceMagic));
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            os.write(reinterpret_cast<const char *>(&header),
                     static_cast<std::streamsize>(size));
        }
        try {
            loadTrace(path);
            ADD_FAILURE() << "loaded a " << size << "-byte file";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("too short for a header"),
                      std::string::npos)
                << e.what();
        }
    }
    std::remove(path.c_str());
}

TEST(TraceReader, RecordsOutliveUnlinkAndMove)
{
    // flexbench deletes each capture right after loading it.
    const std::string path = tempPath("unlinked");
    TraceConfig cfg;
    cfg.path = path;
    cfg.snapshotCycles = 0;
    {
        TraceSink sink(cfg, 2, 2);
        for (std::uint64_t i = 0; i < 100; ++i)
            sink.record(TraceEvent::Hop, i, 1, i);
    }
    TraceFile loaded = loadTrace(path);
    std::remove(path.c_str());
    {
        // A new file under the same name does not show through.
        std::ofstream os(path, std::ios::binary);
        os << std::string(4096, 'x');
    }
    const TraceFile file(std::move(loaded));
    EXPECT_TRUE(loaded.records.empty());
    ASSERT_EQ(file.records.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(file.records[i].arg0, i) << i;
    std::remove(path.c_str());
}

static_assert(!std::is_copy_constructible_v<TraceFile> &&
                  !std::is_copy_assignable_v<TraceFile>,
              "records view storage only one TraceFile may own");
static_assert(!std::is_copy_constructible_v<TraceAnalysis> &&
                  !std::is_copy_assignable_v<TraceAnalysis>,
              "timelines view an index array only one analysis may own");

TEST(TraceAnalysisLifetime, MovedAnalysisResolvesTheSameRecords)
{
    std::vector<TraceRecord> records;
    for (std::uint64_t i = 0; i < 60; ++i) {
        TraceRecord r;
        r.txn = 1 + i % 7;
        r.cycle = 1000 - 3 * i + (i % 5); // mostly descending
        r.arg0 = i;
        r.type = static_cast<std::uint16_t>(TraceEvent::Hop);
        records.push_back(r);
    }
    const TraceFile file(std::move(records));
    TraceAnalysis first = analyzeTrace(file);
    ASSERT_EQ(first.txns.size(), 7u);

    std::vector<std::vector<const TraceRecord *>> want;
    for (const TxnTimeline &t : first.txns) {
        want.emplace_back();
        for (const std::size_t idx : t.events)
            want.back().push_back(&file.records[idx]);
    }
    const auto resolves = [&](const TraceAnalysis &a) {
        ASSERT_EQ(a.txns.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(a.txns[i].events.size(), want[i].size());
            for (std::size_t k = 0; k < want[i].size(); ++k)
                EXPECT_EQ(&file.records[a.txns[i].events[k]], want[i][k]);
        }
    };

    TraceAnalysis moved(std::move(first));
    resolves(moved);
    TraceAnalysis assigned;
    assigned = std::move(moved);
    resolves(assigned);
}

} // namespace
} // namespace flexsnoop
