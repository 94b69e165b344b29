/**
 * @file
 * Offline analysis of decoded `.fstrace` traces: per-transaction
 * timelines, critical-path decomposition, and the flexsnoop_trace CLI
 * output formats (Chrome/Perfetto JSON, critical-path table, top-N
 * slowest transactions).
 */

#ifndef FLEXSNOOP_TRACE_TRACE_ANALYSIS_HH
#define FLEXSNOOP_TRACE_TRACE_ANALYSIS_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "trace/trace_format.hh"
#include "trace/trace_reader.hh"

namespace flexsnoop
{

/**
 * Where the cycles of one transaction went. The six named components
 * partition the transaction's reported latency window, so they sum
 * exactly to `latency` (the acceptance check of docs/TRACING.md).
 */
struct CriticalPath
{
    std::uint64_t issueLocal = 0;  ///< local issue / pre-ring work
    std::uint64_t ringTransit = 0; ///< request/reply on ring links
    std::uint64_t snoopWait = 0;   ///< serialized snoop lookups (STF)
    std::uint64_t gatewayHold = 0; ///< parked behind line gates
    std::uint64_t dataNetwork = 0; ///< supplier-to-requester data net
    std::uint64_t memory = 0;      ///< off-chip memory access
    std::uint64_t other = 0;       ///< backoff, squash windows, misc

    std::uint64_t
    total() const
    {
        return issueLocal + ringTransit + snoopWait + gatewayHold +
               dataNetwork + memory + other;
    }
};

/** One transaction reassembled from its trace records. */
struct TxnTimeline
{
    TransactionId txn = 0;
    Addr addr = 0;
    std::uint16_t requester = kTraceNoNode;
    std::uint32_t core = kInvalidCore;
    bool isWrite = false;
    bool complete = false;   ///< saw DataDelivered / WriteComplete
    bool fromMemory = false; ///< data came from off-chip memory
    Cycle start = 0;         ///< first TxnStart cycle
    Cycle deliver = 0;       ///< completion cycle (when complete)
    std::uint64_t latency = 0; ///< reported latency (when complete)
    std::uint32_t hops = 0;    ///< ring link traversals
    std::uint32_t retries = 0; ///< squash / watchdog reissues

    /**
     * Indices into TraceFile::records, stable-sorted by cycle (ties in
     * capture order). Views the owning TraceAnalysis's index array.
     */
    std::span<const std::size_t> events;
};

/**
 * Whole-trace view grouped by transaction. Every timeline's `events`
 * views one index array owned here, so a TxnTimeline is valid only
 * while its TraceAnalysis lives; the analysis is move-only, and a move
 * keeps every view intact.
 */
class TraceAnalysis
{
  public:
    TraceAnalysis() = default;
    TraceAnalysis(TraceAnalysis &&) noexcept = default;
    TraceAnalysis &operator=(TraceAnalysis &&) noexcept = default;
    TraceAnalysis(const TraceAnalysis &) = delete;
    TraceAnalysis &operator=(const TraceAnalysis &) = delete;

    std::vector<TxnTimeline> txns; ///< ordered by first appearance

    std::size_t completed() const;

  private:
    friend TraceAnalysis analyzeTrace(const TraceFile &file);

    /** Every transaction's record indices, one segment per txn. */
    std::vector<std::size_t> _events;
};

/**
 * Group a decoded trace into per-transaction timelines: a counting
 * sort of record indices by transaction (docs/TRACING.md, "Decoding").
 */
TraceAnalysis analyzeTrace(const TraceFile &file);

/**
 * Decompose one completed transaction. The decomposition anchors on
 * the completion record: it partitions the window
 * `[deliver - latency, deliver]` by walking the transaction's events
 * in cycle order and attributing each gap to the phase the
 * transaction was in, so `result.total() == timeline.latency` always
 * holds.
 */
CriticalPath criticalPath(const TraceFile &file, const TxnTimeline &t);

/**
 * Emit Chrome trace-event JSON loadable by Perfetto / chrome://tracing.
 * Transactions become async spans on the requester node's track; hops
 * and gateway decisions become duration slices on the node they ran
 * on; everything else becomes instants.
 */
void writeChromeTrace(std::ostream &os, const TraceFile &file,
                      const TraceAnalysis &analysis);

/** Human-readable header/counters overview. Includes a `spans:` line. */
void writeSummary(std::ostream &os, const TraceFile &file,
                  const TraceAnalysis &analysis);

/**
 * Per-transaction critical-path table (one row per completed
 * transaction, components in cycles) followed by an aggregate row.
 */
void writeCriticalPathTable(std::ostream &os, const TraceFile &file,
                            const TraceAnalysis &analysis);

/** Top-@p n slowest completed transactions with full hop timelines. */
void writeTopSlowest(std::ostream &os, const TraceFile &file,
                     const TraceAnalysis &analysis, std::size_t n);

} // namespace flexsnoop

#endif // FLEXSNOOP_TRACE_TRACE_ANALYSIS_HH
