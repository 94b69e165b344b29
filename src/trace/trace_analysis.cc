#include "trace/trace_analysis.hh"

#include <algorithm>
#include <array>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sim/flat_map.hh"

namespace flexsnoop
{

namespace
{

/** Primitive encoding of HopDecision `a` (snoop/primitives.hh order). */
constexpr std::string_view
primitiveName(std::uint16_t a)
{
    switch (a) {
      case 0: return "ForwardThenSnoop";
      case 1: return "SnoopThenForward";
      case 2: return "Forward";
    }
    return "?";
}

/** MsgType encoding of Hop `a` (net/message.hh order). */
constexpr std::string_view
msgTypeName(std::uint16_t a)
{
    switch (a) {
      case 0: return "SnoopRequest";
      case 1: return "SnoopReply";
      case 2: return "CombinedRR";
    }
    return "?";
}

std::string
hexAddr(Addr addr)
{
    std::ostringstream oss;
    oss << "0x" << std::hex << addr;
    return oss.str();
}

/** Phase the transaction enters after @p r (criticalPath state step). */
enum class Phase
{
    IssueLocal,
    RingTransit,
    SnoopWait,
    GatewayHold,
    DataNetwork,
    Memory,
    Other
};

Phase
phaseAfter(const TraceRecord &r, Phase current)
{
    switch (r.event()) {
      case TraceEvent::TxnStart: return Phase::IssueLocal;
      case TraceEvent::RingIssue: return Phase::RingTransit;
      case TraceEvent::Hop: return Phase::RingTransit;
      case TraceEvent::HopDecision:
        // SnoopThenForward serializes the snoop on the request path;
        // the other primitives keep the message moving.
        return r.a == 1 ? Phase::SnoopWait : Phase::RingTransit;
      case TraceEvent::GateDefer: return Phase::GatewayHold;
      case TraceEvent::GateResume: return Phase::RingTransit;
      case TraceEvent::SnoopDone: return Phase::RingTransit;
      case TraceEvent::SupplierHit: return Phase::DataNetwork;
      case TraceEvent::MemFetch: return Phase::Memory;
      case TraceEvent::MemData: return Phase::Other;
      case TraceEvent::RetryScheduled: return Phase::Other;
      case TraceEvent::WatchdogExpire: return Phase::Other;
      default:
        // Annotations (collisions, faults, ...) do not change what
        // the transaction is waiting on.
        return current;
    }
}

std::uint64_t &
bucket(CriticalPath &cp, Phase p)
{
    switch (p) {
      case Phase::IssueLocal: return cp.issueLocal;
      case Phase::RingTransit: return cp.ringTransit;
      case Phase::SnoopWait: return cp.snoopWait;
      case Phase::GatewayHold: return cp.gatewayHold;
      case Phase::DataNetwork: return cp.dataNetwork;
      case Phase::Memory: return cp.memory;
      case Phase::Other: break;
    }
    return cp.other;
}

/** One-line payload description for the top-N timelines. */
std::string
describe(const TraceRecord &r)
{
    std::ostringstream oss;
    switch (r.event()) {
      case TraceEvent::TxnStart:
        oss << (r.a ? "write " : "read ") << hexAddr(r.arg0) << " core "
            << r.arg1 << " attempt " << r.b;
        break;
      case TraceEvent::RingDone:
        oss << (r.a ? "found" : "negative");
        break;
      case TraceEvent::MemFetch:
        oss << "latency " << r.arg1;
        break;
      case TraceEvent::DataDelivered:
        oss << "latency " << r.arg1 << (r.a ? " (memory)" : " (cache)");
        break;
      case TraceEvent::WriteComplete:
        oss << "latency " << r.arg1;
        break;
      case TraceEvent::RetryScheduled:
        oss << "backoff " << r.arg1 << " attempt " << r.a;
        break;
      case TraceEvent::Hop:
        oss << msgTypeName(r.a) << " arrive " << r.arg1;
        if (r.b & 1)
            oss << " found";
        if (r.b & 2)
            oss << " squashed";
        if (r.b & 4)
            oss << " write";
        if (r.b & 8)
            oss << " global";
        break;
      case TraceEvent::HopDecision:
        oss << primitiveName(r.a)
            << (r.b == 2 ? "" : r.b == 1 ? " pred:yes" : " pred:no");
        break;
      case TraceEvent::SnoopDone:
        oss << (r.a ? "found" : "miss") << (r.b ? " abandoned" : "");
        break;
      case TraceEvent::SupplierHit:
        oss << "data-net latency " << r.arg1;
        break;
      case TraceEvent::Collision:
        oss << "with txn " << r.arg1;
        break;
      case TraceEvent::WatchdogExpire:
        oss << (r.a ? "finish" : "reissue");
        break;
      case TraceEvent::FaultDelay:
        oss << "extra " << r.arg1;
        break;
      case TraceEvent::ExpressRun:
        oss << r.arg0 << " links coalesced";
        break;
      case TraceEvent::CounterSnapshot:
        oss << toString(static_cast<TraceCounterId>(r.a)) << " = "
            << r.arg0;
        break;
      default:
        break;
    }
    return oss.str();
}

/** Minimal JSON string escaping (our strings are ASCII identifiers). */
std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/**
 * Stable-sort @p seg (ascending record indices) by cycle. Insertion
 * sort is linear in the number of out-of-order pairs, which is tiny in
 * a capture; a long segment (possible in a crafted file) sorts by
 * (cycle, index), the same order, in O(n log n) instead.
 */
void
sortByCycle(std::span<std::size_t> seg,
            std::span<const TraceRecord> records)
{
    constexpr std::size_t kInsertionSortMax = 64;
    if (seg.size() > kInsertionSortMax) {
        std::sort(seg.begin(), seg.end(),
                  [&](std::size_t a, std::size_t b) {
                      return std::pair(records[a].cycle, a) <
                             std::pair(records[b].cycle, b);
                  });
        return;
    }
    for (std::size_t k = 1; k < seg.size(); ++k) {
        const std::size_t idx = seg[k];
        std::size_t j = k;
        for (; j > 0 && records[seg[j - 1]].cycle > records[idx].cycle;
             --j)
            seg[j] = seg[j - 1];
        seg[j] = idx;
    }
}

} // namespace

std::size_t
TraceAnalysis::completed() const
{
    std::size_t n = 0;
    for (const TxnTimeline &t : txns)
        if (t.complete)
            ++n;
    return n;
}

TraceAnalysis
analyzeTrace(const TraceFile &file)
{
    const std::span<const TraceRecord> records = file.records;
    // 32-bit slots halve the per-record scratch array; overflowing them
    // takes 2^32 records (a 172 GB file).
    constexpr std::uint32_t kNoTxn = ~std::uint32_t{0};
    if (records.size() >= kNoTxn)
        throw std::length_error("trace has too many records to analyze");

    // Pass 1: give each transaction a slot in first-appearance order,
    // fold its records into the timeline fields, and count its records
    // and whether any arrives at an earlier cycle than its predecessor.
    struct Group
    {
        std::size_t count = 0;
        Cycle last = 0;
        bool inverted = false;
    };
    TraceAnalysis out;
    std::vector<Group> groups;
    std::vector<std::uint32_t> slot_of(records.size(), kNoTxn);
    FlatMap<std::uint32_t> slots; // txn -> slot + 1
    // Only a few dozen transactions are in flight at once, and their
    // ids are nearly consecutive, so a small direct-mapped cache in
    // front of the map answers almost every lookup.
    struct Recent
    {
        std::uint64_t txn = 0;
        std::uint32_t slot = 0;
    };
    std::array<Recent, 64> recent{};
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &r = records[i];
        if (r.txn == 0)
            continue; // machine-level record, not tied to a transaction
        Recent &hit = recent[r.txn % recent.size()];
        if (hit.txn != r.txn) {
            std::uint32_t &slot1 = slots.getOrCreate(r.txn);
            if (slot1 == 0) {
                out.txns.emplace_back().txn = r.txn;
                groups.emplace_back();
                slot1 = static_cast<std::uint32_t>(out.txns.size());
            }
            hit = {r.txn, slot1 - 1};
        }
        const std::uint32_t slot = hit.slot;
        slot_of[i] = slot;
        TxnTimeline &t = out.txns[slot];
        Group &g = groups[slot];
        g.inverted |= g.count > 0 && r.cycle < g.last;
        g.last = r.cycle;
        ++g.count;

        switch (r.event()) {
          case TraceEvent::TxnStart:
            if (g.count == 1 || r.cycle < t.start)
                t.start = r.cycle;
            t.addr = r.arg0;
            t.core = static_cast<std::uint32_t>(r.arg1);
            t.requester = r.node;
            t.isWrite = r.a != 0;
            break;
          case TraceEvent::Hop:
            ++t.hops;
            break;
          case TraceEvent::RetryScheduled:
            ++t.retries;
            break;
          case TraceEvent::DataDelivered:
            t.complete = true;
            t.deliver = r.cycle;
            t.latency = r.arg1;
            t.fromMemory = r.a != 0;
            break;
          case TraceEvent::WriteComplete:
            t.complete = true;
            t.deliver = r.cycle;
            t.latency = r.arg1;
            break;
          default:
            break;
        }
    }

    // Prefix sum: slot s owns [cursor[s], cursor[s] + count) of the
    // index array. Pass 2 scatters indices there in capture order, which
    // leaves cursor[s] at the segment's end.
    std::vector<std::size_t> cursor(groups.size());
    std::size_t total = 0;
    for (std::size_t s = 0; s < groups.size(); ++s) {
        cursor[s] = total;
        total += groups[s].count;
    }
    out._events.resize(total);
    for (std::size_t i = 0; i < records.size(); ++i)
        if (slot_of[i] != kNoTxn)
            out._events[cursor[slot_of[i]]++] = i;

    // Capture order is already cycle order except in the transactions
    // with an inversion (about 3.5% of them on specweb, each a record
    // or two out of place); only those are sorted.
    for (std::size_t s = 0; s < groups.size(); ++s) {
        const std::span<std::size_t> seg(
            out._events.data() + cursor[s] - groups[s].count,
            groups[s].count);
        if (groups[s].inverted)
            sortByCycle(seg, records);
        TxnTimeline &t = out.txns[s];
        t.events = seg;
        if (t.start == 0)
            t.start = records[seg.front()].cycle;
    }
    return out;
}

CriticalPath
criticalPath(const TraceFile &file, const TxnTimeline &t)
{
    CriticalPath cp;
    if (!t.complete)
        return cp;

    // Anchor on the completion record: partition exactly the window the
    // reported latency covers, so the components always sum to it.
    const Cycle win_end = t.deliver;
    const Cycle win_start =
        t.latency <= win_end ? win_end - t.latency : 0;

    Phase phase = Phase::IssueLocal;
    Cycle prev = win_start;
    for (std::size_t idx : t.events) {
        const TraceRecord &r = file.records[idx];
        if (r.cycle > win_end)
            break;
        const Cycle at = std::max(r.cycle, win_start);
        if (at > prev) {
            bucket(cp, phase) += at - prev;
            prev = at;
        }
        if ((r.event() == TraceEvent::DataDelivered ||
             r.event() == TraceEvent::WriteComplete) &&
            r.cycle == win_end)
            break;
        phase = phaseAfter(r, phase);
    }
    if (win_end > prev)
        bucket(cp, phase) += win_end - prev;
    return cp;
}

void
writeChromeTrace(std::ostream &os, const TraceFile &file,
                 const TraceAnalysis &analysis)
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&]() -> std::ostream & {
        if (!first)
            os << ",\n";
        first = false;
        return os;
    };

    sep() << "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
             "\"args\":{\"name\":\"flexsnoop\"}}";
    for (std::uint32_t n = 0; n < file.header.numNodes; ++n)
        sep() << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << n
              << ",\"name\":\"thread_name\",\"args\":{\"name\":\"node "
              << n << "\"}}";

    // Transaction spans: one async begin/end pair per completed
    // transaction, on the requester node's track.
    for (const TxnTimeline &t : analysis.txns) {
        if (!t.complete)
            continue;
        const std::uint32_t tid =
            t.requester == kTraceNoNode ? 0 : t.requester;
        const std::string name = jsonEscape(
            std::string(t.isWrite ? "wr " : "rd ") + hexAddr(t.addr));
        sep() << "{\"ph\":\"b\",\"cat\":\"txn\",\"id\":" << t.txn
              << ",\"pid\":0,\"tid\":" << tid << ",\"ts\":" << t.start
              << ",\"name\":\"" << name << "\",\"args\":{\"core\":"
              << t.core << ",\"hops\":" << t.hops
              << ",\"retries\":" << t.retries << "}}";
        sep() << "{\"ph\":\"e\",\"cat\":\"txn\",\"id\":" << t.txn
              << ",\"pid\":0,\"tid\":" << tid << ",\"ts\":" << t.deliver
              << ",\"name\":\"" << name << "\",\"args\":{\"latency\":"
              << t.latency << "}}";
    }

    for (const TraceRecord &r : file.records) {
        const std::uint32_t tid = r.node == kTraceNoNode ? 0 : r.node;
        switch (r.event()) {
          case TraceEvent::Hop: {
            const std::uint64_t dur =
                r.arg1 > r.cycle ? r.arg1 - r.cycle : 0;
            sep() << "{\"ph\":\"X\",\"cat\":\"hop\",\"pid\":0,\"tid\":"
                  << tid << ",\"ts\":" << r.cycle << ",\"dur\":" << dur
                  << ",\"name\":\"hop " << msgTypeName(r.a)
                  << "\",\"args\":{\"txn\":" << r.txn << ",\"line\":\""
                  << hexAddr(r.arg0) << "\",\"flags\":" << r.b << "}}";
            break;
          }
          case TraceEvent::HopDecision:
            sep() << "{\"ph\":\"X\",\"cat\":\"snoop\",\"pid\":0,"
                     "\"tid\":"
                  << tid << ",\"ts\":" << r.cycle
                  << ",\"dur\":" << r.arg1 << ",\"name\":\""
                  << primitiveName(r.a) << "\",\"args\":{\"txn\":"
                  << r.txn << ",\"predictor\":" << r.b << "}}";
            break;
          case TraceEvent::CounterSnapshot:
            sep() << "{\"ph\":\"C\",\"pid\":0,\"ts\":" << r.cycle
                  << ",\"name\":\""
                  << toString(static_cast<TraceCounterId>(r.a))
                  << "\",\"args\":{\"value\":" << r.arg0 << "}}";
            break;
          case TraceEvent::TxnStart:
          case TraceEvent::DataDelivered:
          case TraceEvent::WriteComplete:
          case TraceEvent::TxnRetire:
            break; // covered by the spans above
          default:
            sep() << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":"
                  << tid << ",\"ts\":" << r.cycle << ",\"name\":\""
                  << toString(r.event()) << "\",\"args\":{\"txn\":"
                  << r.txn << ",\"detail\":\""
                  << jsonEscape(describe(r)) << "\"}}";
            break;
        }
    }
    os << "\n]}\n";
}

void
writeSummary(std::ostream &os, const TraceFile &file,
             const TraceAnalysis &analysis)
{
    const TraceFileHeader &h = file.header;
    os << "trace: version " << h.version << ", " << h.numNodes
       << " nodes, " << h.numCores << " cores, mode "
       << (h.mode == static_cast<std::uint32_t>(TraceMode::Drop)
               ? "drop"
               : "spill")
       << ", buffer " << h.ringKb << " KiB\n";
    os << "records: " << file.records.size() << " (dropped "
       << h.dropped << ", spills " << h.spills << ")\n";
    os << "transactions: " << analysis.txns.size() << "\n";
    os << "spans: " << analysis.completed() << "\n";

    std::uint64_t counts[static_cast<std::size_t>(
        TraceEvent::NumEvents)] = {};
    for (const TraceRecord &r : file.records)
        if (r.type < static_cast<std::uint16_t>(TraceEvent::NumEvents))
            ++counts[r.type];
    os << "events by type:\n";
    for (std::size_t i = 1;
         i < static_cast<std::size_t>(TraceEvent::NumEvents); ++i)
        if (counts[i] > 0)
            os << "  " << std::left << std::setw(20)
               << toString(static_cast<TraceEvent>(i)) << " "
               << counts[i] << "\n";
}

void
writeCriticalPathTable(std::ostream &os, const TraceFile &file,
                       const TraceAnalysis &analysis)
{
    // Every column after the first opens with a space, so the total
    // row's sums (9+ digits on a full run) never run into a neighbour.
    const auto col = [&os](int width) -> std::ostream & {
        return os << ' ' << std::setw(width);
    };
    const auto components = [&col](const CriticalPath &cp) {
        col(7) << cp.issueLocal;
        col(7) << cp.ringTransit;
        col(7) << cp.snoopWait;
        col(7) << cp.gatewayHold;
        col(7) << cp.dataNetwork;
        col(7) << cp.memory;
        col(7) << cp.other;
        col(9) << cp.total() << "\n";
    };

    os << std::right << std::setw(8) << "txn";
    col(15) << "line";
    col(5) << "node";
    col(5) << "kind";
    col(9) << "latency";
    for (const char *name :
         {"issue", "ring", "snoop", "gate", "data", "mem", "other"})
        col(7) << name;
    col(9) << "sum" << "\n";

    CriticalPath agg;
    std::uint64_t agg_latency = 0;
    std::size_t rows = 0;
    for (const TxnTimeline &t : analysis.txns) {
        if (!t.complete)
            continue;
        const CriticalPath cp = criticalPath(file, t);
        os << std::setw(8) << t.txn;
        col(15) << hexAddr(t.addr);
        col(5) << t.requester;
        col(5) << (t.isWrite ? "wr" : "rd");
        col(9) << t.latency;
        components(cp);
        agg.issueLocal += cp.issueLocal;
        agg.ringTransit += cp.ringTransit;
        agg.snoopWait += cp.snoopWait;
        agg.gatewayHold += cp.gatewayHold;
        agg.dataNetwork += cp.dataNetwork;
        agg.memory += cp.memory;
        agg.other += cp.other;
        agg_latency += t.latency;
        ++rows;
    }
    os << std::setw(8) << "total";
    col(15) << "";
    col(5) << "";
    col(5) << "";
    col(9) << agg_latency;
    components(agg);
    os << rows << " transactions; components "
       << (agg.total() == agg_latency ? "sum to" : "DO NOT sum to")
       << " the reported latencies\n";
}

void
writeTopSlowest(std::ostream &os, const TraceFile &file,
                const TraceAnalysis &analysis, std::size_t n)
{
    std::vector<const TxnTimeline *> done;
    for (const TxnTimeline &t : analysis.txns)
        if (t.complete)
            done.push_back(&t);
    std::stable_sort(done.begin(), done.end(),
                     [](const TxnTimeline *a, const TxnTimeline *b) {
                         return a->latency > b->latency;
                     });
    if (done.size() > n)
        done.resize(n);

    os << "top " << done.size() << " slowest transactions\n";
    for (const TxnTimeline *t : done) {
        os << "\ntxn " << t->txn << " " << (t->isWrite ? "wr" : "rd")
           << " " << hexAddr(t->addr) << " node " << t->requester
           << " core " << t->core << ": latency " << t->latency
           << " cycles, " << t->hops << " hops, " << t->retries
           << " retries" << (t->fromMemory ? ", from memory" : "")
           << "\n";
        Cycle prev = t->start;
        for (std::size_t idx : t->events) {
            const TraceRecord &r = file.records[idx];
            os << "  " << std::right << std::setw(10) << r.cycle << " +"
               << std::left << std::setw(8)
               << (r.cycle >= prev ? r.cycle - prev : 0) << std::setw(20)
               << toString(r.event());
            if (r.node != kTraceNoNode)
                os << " node " << std::setw(3) << r.node;
            const std::string d = describe(r);
            if (!d.empty())
                os << "  " << d;
            os << "\n";
            prev = r.cycle;
        }
    }
}

} // namespace flexsnoop
