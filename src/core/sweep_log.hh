/**
 * @file
 * Structured sweep progress log (docs/TELEMETRY.md): one JSON object
 * per line, so a long sweep can be watched with `tail -f`,
 * parsed by dashboards, and post-mortemed after a crash — the last
 * line always names the cell that was running. Events:
 *
 *   {"event":"sweep_start","ts":...,"total":N}
 *   {"event":"cell_start","ts":...,"cell":i,"workload":...,
 *    "algorithm":...,"predictor":...}
 *   {"event":"cell_finish","ts":...,"cell":i,...,"status":"ok",
 *    "wall_sec":...,"completed":k,"total":N,"eta_sec":...,
 *    "peak_rss_kb":...}
 *   {"event":"sweep_finish","ts":...,"completed":N,"failed":F,
 *    "wall_sec":...,"peak_rss_kb":...}
 *
 * cell_finish status is "ok", "resumed" (served from a checkpoint),
 * "failed", or "timeout". eta_sec extrapolates the remaining cells
 * from the mean wall time of the completed ones; peak_rss_kb is the
 * process high-water mark (getrusage). All writes are mutex-serialized
 * and flushed per line, matching the checkpoint CSV's guarantees.
 */

#ifndef FLEXSNOOP_CORE_SWEEP_LOG_HH
#define FLEXSNOOP_CORE_SWEEP_LOG_HH

#include <chrono>
#include <cstddef>
#include <fstream>
#include <mutex>
#include <string>

namespace flexsnoop
{

class SweepLog
{
  public:
    /** Cell outcome recorded by cellFinish(). */
    enum class Status
    {
        Ok,
        Resumed,
        Failed,
        Timeout,
    };

    /**
     * Open @p path (truncating) and emit sweep_start for @p total
     * cells. @throws std::runtime_error when the file cannot be
     * created, before any cell runs — like the trace and metrics
     * sinks, a mis-typed path must not cost a sweep.
     */
    SweepLog(const std::string &path, std::size_t total);
    ~SweepLog(); ///< emits sweep_finish if the owner did not

    SweepLog(const SweepLog &) = delete;
    SweepLog &operator=(const SweepLog &) = delete;

    void cellStart(std::size_t cell, const std::string &workload,
                   const std::string &algorithm,
                   const std::string &predictor);

    void cellFinish(std::size_t cell, const std::string &workload,
                    const std::string &algorithm,
                    const std::string &predictor, Status status,
                    double wall_sec);

    /** Emit the sweep_finish summary line. Idempotent. */
    void finish();

  private:
    double elapsedSec() const;

    std::ofstream _file;
    std::mutex _mutex;
    std::size_t _total;
    std::size_t _completed = 0; ///< cells finished, any status
    std::size_t _failed = 0;    ///< of which failed or timed out
    std::chrono::steady_clock::time_point _start;
    bool _finished = false;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_CORE_SWEEP_LOG_HH
