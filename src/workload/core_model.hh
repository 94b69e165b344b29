/**
 * @file
 * Trace-driven core model and the runner that drives a whole workload.
 *
 * Each core replays its reference trace with a bounded window of
 * outstanding L2 accesses (a simple memory-level-parallelism model
 * standing in for the paper's out-of-order cores): a new reference may
 * issue `gap` cycles after the previous one as long as fewer than
 * `maxOutstanding` are in flight; otherwise the core stalls until a
 * completion. A barrier separates warmup from the measured phase, at
 * which point the runner fires its reset hook (statistics, energy).
 */

#ifndef FLEXSNOOP_WORKLOAD_CORE_MODEL_HH
#define FLEXSNOOP_WORKLOAD_CORE_MODEL_HH

#include <functional>
#include <memory>
#include <vector>

#include "coherence/request_port.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/stats.hh"
#include "workload/trace.hh"

namespace flexsnoop
{

/** Per-core execution parameters. */
struct CoreParams
{
    std::size_t maxOutstanding = 4; ///< MLP window
};

class TraceCore
{
  public:
    TraceCore(CoreId id, Trace trace, std::size_t warmup_refs,
              const CoreParams &params, EventQueue &queue,
              RequestPort &port);

    CoreId id() const { return _id; }
    bool done() const { return _idx >= _trace.size() && _outstanding == 0; }
    bool atBarrier() const { return _atBarrier; }
    std::size_t refsIssued() const { return _idx; }
    std::size_t outstanding() const { return _outstanding; }

    /** Barrier-release / completion notification. */
    using BarrierFn = std::function<void(CoreId)>;
    void setBarrierFn(BarrierFn fn) { _onBarrier = std::move(fn); }
    using DoneFn = std::function<void(CoreId)>;
    void setDoneFn(DoneFn fn) { _onDone = std::move(fn); }

    /** Begin replaying the trace. */
    void start();

    /** Resume after the warmup barrier. */
    void releaseBarrier();

    /** One of this core's accesses completed. */
    void onCompletion(Addr line);

    StatGroup &stats() { return _stats; }
    const StatGroup &stats() const { return _stats; }

    /** Debug: lines with missing completions (line -> count). */
    const FlatMap<unsigned> &inFlight() const { return _inFlight; }

  private:
    void tryIssue();
    void issueRef(const MemRef &ref);

    CoreId _id;
    Trace _trace;
    std::size_t _warmupRefs;
    CoreParams _params;
    EventQueue &_queue;
    RequestPort &_port;

    std::size_t _idx = 0;
    std::size_t _outstanding = 0;
    /** Completions are matched per line (merged requests complete once
     *  per requesting core). A FlatMap: issuing a reference allocates
     *  nothing once the table reaches its high-water mark. */
    FlatMap<unsigned> _inFlight;
    Cycle _nextIssue = 0;
    bool _issueScheduled = false;
    bool _atBarrier = false;
    bool _barrierDone = false;
    bool _finished = false;

    BarrierFn _onBarrier;
    DoneFn _onDone;
    StatGroup _stats;
    // Cached handles for the per-reference issue/complete hot path.
    Counter &_readsIssued;
    Counter &_writesIssued;
    Counter &_completions;
    Counter &_windowStalls;
};

/**
 * Drives all cores of a workload to completion and implements the
 * warmup barrier.
 */
class WorkloadRunner
{
  public:
    /** Hook fired when all cores passed warmup (reset stats here). */
    using WarmupDoneFn = std::function<void()>;

    WorkloadRunner(EventQueue &queue, RequestPort &port,
                   const CoreTraces &traces, const CoreParams &params);

    void setWarmupDoneFn(WarmupDoneFn fn) { _onWarmupDone = std::move(fn); }

    /**
     * Run the whole workload; returns when every core finished.
     *
     * The queue runs in chunks of @p check_every cycles (by default one
     * unbounded drain), and @p check is called after every chunk that
     * leaves events pending; it may throw to abort the run. Checks
     * schedule no event, so they change no result.
     *
     * @return cycles spent in the measured (post-warmup) phase.
     */
    Cycle run(Cycle check_every = EventQueue::kNoEvent,
              const std::function<void()> &check = {});

    /** Cycle at which the measured phase started. */
    Cycle measureStart() const { return _measureStart; }

    /** True when every core drained its trace. */
    bool allDone() const;

    TraceCore &core(std::size_t i) { return *_cores[i]; }
    std::size_t numCores() const { return _cores.size(); }

  private:
    void onBarrier(CoreId core);

    EventQueue &_queue;
    std::vector<std::unique_ptr<TraceCore>> _cores;
    std::size_t _atBarrier = 0;
    bool _warmupComplete = false;
    Cycle _measureStart = 0;
    WarmupDoneFn _onWarmupDone;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_WORKLOAD_CORE_MODEL_HH
