#include "telemetry/metrics_align.hh"

#include <algorithm>
#include <utility>

namespace flexsnoop
{
namespace
{

/** ctrl.* series mirrored by .fstrace CounterSnapshot records. */
const char *
alignedSeries(TraceCounterId id)
{
    switch (id) {
    case TraceCounterId::ReadRingRequests:
        return "ctrl.read_ring_requests";
    case TraceCounterId::ReadSnoops:
        return "ctrl.read_snoops";
    case TraceCounterId::ReadLinkMessages:
        return "ctrl.read_link_messages";
    case TraceCounterId::WriteRingRequests:
        return "ctrl.write_ring_requests";
    case TraceCounterId::Collisions:
        return "ctrl.collisions";
    case TraceCounterId::Retries:
        return "ctrl.retries";
    case TraceCounterId::WatchdogTimeouts:
        return "ctrl.watchdog_timeouts";
    default:
        return nullptr;
    }
}

} // namespace

AlignmentReport
alignMetricsWithTrace(const MetricsFile &metrics, const TraceFile &trace)
{
    AlignmentReport report;
    // The barrier cycle as each file recorded it; points before either
    // are pre-reset and excluded.
    if (metrics.header.measureStartCycle != kMetricsNoMeasureStart)
        report.barrier = metrics.header.measureStartCycle;
    for (const TraceRecord &rec : trace.records) {
        if (rec.event() == TraceEvent::MeasureStart)
            report.barrier = std::max(report.barrier, rec.cycle);
    }

    for (std::uint16_t id = 0;
         id < static_cast<std::uint16_t>(TraceCounterId::NumCounters);
         ++id) {
        const char *series =
            alignedSeries(static_cast<TraceCounterId>(id));
        const std::vector<std::uint64_t> *column =
            series ? metrics.column(series) : nullptr;
        if (!column)
            continue;

        CounterAlignment counter;
        counter.series = series;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> points;
        for (const TraceRecord &rec : trace.records) {
            if (rec.event() == TraceEvent::CounterSnapshot &&
                rec.a == id && rec.cycle >= report.barrier)
                points.emplace_back(rec.cycle, rec.arg0);
        }
        counter.tracePoints = points.size();
        for (std::size_t i = 0; i < metrics.cycles.size(); ++i) {
            if (metrics.cycles[i] >= report.barrier)
                points.emplace_back(metrics.cycles[i], (*column)[i]);
        }
        counter.metricPoints = points.size() - counter.tracePoints;
        std::sort(points.begin(), points.end());

        for (std::size_t i = 1; i < points.size(); ++i) {
            if (points[i].second < points[i - 1].second) {
                counter.consistent = false;
                counter.drop = {points[i].first, points[i].second};
                counter.before = {points[i - 1].first,
                                  points[i - 1].second};
                break;
            }
        }
        report.counters.push_back(std::move(counter));
    }
    return report;
}

} // namespace flexsnoop
