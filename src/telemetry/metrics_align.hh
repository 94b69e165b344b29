/**
 * @file
 * Cross-check of the two observation channels of one run: the
 * `.fsmetrics` ctrl.* series and the `.fstrace` CounterSnapshot
 * records sample the same cumulative counters at different instants
 * (docs/TELEMETRY.md, "Analyzing"). flexsnoop_metrics
 * --align prints this report; the tests assert on it.
 */

#ifndef FLEXSNOOP_TELEMETRY_METRICS_ALIGN_HH
#define FLEXSNOOP_TELEMETRY_METRICS_ALIGN_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/metrics_reader.hh"
#include "trace/trace_reader.hh"

namespace flexsnoop
{

/** One (cycle, value) reading of a cumulative counter. */
struct CounterPoint
{
    std::uint64_t cycle = 0;
    std::uint64_t value = 0;
};

/** The merged readings of one counter both channels observe. */
struct CounterAlignment
{
    std::string series;           ///< .fsmetrics series name
    std::size_t tracePoints = 0;  ///< CounterSnapshots past the barrier
    std::size_t metricPoints = 0; ///< metric samples past the barrier
    bool consistent = true;
    /** When !consistent: the first point whose value is lower than its
     *  predecessor's in (cycle, value) order, and that predecessor. */
    CounterPoint drop, before;
};

struct AlignmentReport
{
    /** The later of the two files' warmup barriers; earlier points
     *  predate the statistics reset and are excluded. */
    std::uint64_t barrier = 0;
    /** Counters present in both files (empty: no overlap). */
    std::vector<CounterAlignment> counters;

    bool
    consistent() const
    {
        for (const CounterAlignment &c : counters) {
            if (!c.consistent)
                return false;
        }
        return true;
    }
};

/**
 * Merge each shared counter's readings from @p metrics and @p trace past
 * the barrier, sort them by (cycle, value), and require the values to be
 * non-decreasing: both channels read the same counters and reset at the
 * same barrier, so a drop means the files come from different runs, or
 * one of them stamped a reading with the wrong cycle.
 */
AlignmentReport alignMetricsWithTrace(const MetricsFile &metrics,
                                      const TraceFile &trace);

} // namespace flexsnoop

#endif // FLEXSNOOP_TELEMETRY_METRICS_ALIGN_HH
