/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives the whole machine. Events are arbitrary
 * callables scheduled at absolute cycles; ties are broken by insertion
 * order so simulation is fully deterministic.
 *
 * Two interchangeable scheduler implementations share this interface:
 *
 *  - the default hierarchical timing wheel (timing_wheel.hh), which
 *    makes schedule/pop O(1) for the short, clustered event horizons a
 *    fixed-latency embedded ring produces; and
 *  - the original explicit binary heap, kept as the bit-exact
 *    reference implementation and selected by setting the
 *    FLEXSNOOP_HEAP_QUEUE environment variable (or constructing with
 *    Impl::Heap).
 *
 * Both fire events in strict (cycle, seq) order, so every RunResult —
 * and every .fstrace byte — is identical under either implementation.
 *
 * The kernel is allocation-light: callables up to EventFn::kInlineSize
 * bytes (every lambda the simulator schedules today) are stored inline.
 * The wheel builds each callable once, in a pooled slot it links into
 * its buckets, and runs it there; slots are recycled after dispatch and
 * by clear(), and the heap's vector keeps its capacity, so steady-state
 * operation performs no heap allocation per event.
 */

#ifndef FLEXSNOOP_SIM_EVENT_QUEUE_HH
#define FLEXSNOOP_SIM_EVENT_QUEUE_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_fn.hh"
#include "sim/timing_wheel.hh"
#include "sim/types.hh"

namespace flexsnoop
{

/**
 * Deterministic priority queue of timed events.
 *
 * Events scheduled for the same cycle fire in the order they were
 * scheduled (FIFO), which keeps runs reproducible across platforms.
 */
class EventQueue
{
  public:
    /**
     * "No pending event" sentinel: returned by minPendingTime() on an
     * empty queue, and the "no bound" default of run(). Larger than
     * any schedulable cycle.
     */
    static constexpr Cycle kNoEvent = ~Cycle{0};

    /** Scheduler implementation selector. */
    enum class Impl
    {
        Wheel, ///< hierarchical timing wheel (default)
        Heap,  ///< reference binary heap (FLEXSNOOP_HEAP_QUEUE)
    };

    /** Implementation from the environment: Impl::Heap when
     *  FLEXSNOOP_HEAP_QUEUE is set, Impl::Wheel otherwise. */
    EventQueue();

    /** Force a specific implementation (tests and benches). */
    explicit EventQueue(Impl impl);

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    Impl impl() const { return _impl; }

    /** Current simulated time. */
    Cycle now() const { return _now; }

    /** Number of events not yet fired. */
    std::size_t
    pending() const
    {
        return _impl == Impl::Heap ? _heap.size() : _wheel.size();
    }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return _executed; }

    /**
     * How far past now the furthest-ever-scheduled event lies (zero
     * once time has caught up). Watchdog timeouts and retry backoffs
     * land far in the future, so a sustained blowout of this gauge is
     * the scheduler-side signature of a retry storm (the telemetry
     * subsystem's queue_horizon detector, docs/TELEMETRY.md).
     */
    Cycle
    horizonAhead() const
    {
        return _maxScheduledAt > _now ? _maxScheduledAt - _now : 0;
    }

    /**
     * Size the wheel's near level to cover @p near_buckets cycles of
     * horizon (rounded up to a power of two). Machines derive this
     * from their latency configuration so the common-case event lands
     * in the near wheel. Only legal while the queue is empty; a no-op
     * under the heap implementation.
     */
    void
    configureWheel(std::size_t near_buckets)
    {
        if (_impl == Impl::Wheel)
            _wheel.configure(near_buckets);
    }

    /** Near-wheel bucket count (meaningful under Impl::Wheel). */
    std::size_t nearBuckets() const { return _wheel.nearBuckets(); }

    /**
     * Schedule @p fn to run @p delay cycles from now.
     *
     * A delay of zero is legal: the event runs after all events already
     * scheduled for the current cycle.
     */
    template <typename F>
    void
    schedule(Cycle delay, F &&fn)
    {
        scheduleAt(_now + delay, std::forward<F>(fn));
    }

    /**
     * Schedule @p fn at the absolute cycle @p when (>= now). Under the
     * wheel the callable is constructed directly in the slot it will
     * run from.
     */
    template <typename F>
    void
    scheduleAt(Cycle when, F &&fn)
    {
        assert(when >= _now && "cannot schedule into the past");
        if (_impl == Impl::Heap) {
            _heap.push_back(
                Entry{when, _nextSeq, EventFn(std::forward<F>(fn))});
            siftUp(_heap.size() - 1);
        } else {
            WheelSlot *slot = _wheel.acquire();
            try {
                slot->fn.emplace(std::forward<F>(fn));
            } catch (...) {
                _wheel.recycle(slot);
                throw;
            }
            slot->when = when;
            slot->seq = _nextSeq;
            _wheel.link(_now, slot);
        }
        ++_nextSeq;
        if (when > _maxScheduledAt)
            _maxScheduledAt = when;
    }

    /**
     * Earliest cycle at which any pending event fires; kNoEvent when
     * the queue is empty. O(1): the heap root, or the wheel's cached
     * minimum (a short bitmap scan right after a bucket drains).
     */
    Cycle
    minPendingTime() const
    {
        if (_impl == Impl::Heap)
            return _heap.empty() ? kNoEvent : _heap.front().when;
        return _wheel.empty() ? kNoEvent : _wheel.minPending();
    }

    /**
     * Run until the queue drains or the next event lies past @p limit.
     * The clock stays at the last event executed, so running in
     * bounded chunks ends at the same cycle as one unbounded run.
     *
     * @param limit absolute cycle bound; events scheduled past it stay
     *              queued. Defaults to "no bound".
     * @return number of events executed by this call.
     */
    std::uint64_t run(Cycle limit = kNoEvent);

    /**
     * Hook invoked (with @p ctx) the first time simulated time reaches
     * each multiple of the sampling interval, after the clock advances
     * and before the crossing event fires. The hook observes — it must
     * not schedule events or touch machine state — so telemetry never
     * perturbs the schedule: no sampler events sit in the queue to
     * stretch the drain tail that run() measures. Disabled (the
     * default) it costs one never-taken compare per event.
     */
    using SampleHook = void (*)(void *ctx, Cycle now);
    void
    setSampleHook(Cycle interval, SampleHook hook, void *ctx)
    {
        assert(interval > 0);
        _sampleHook = hook;
        _sampleCtx = ctx;
        _sampleInterval = interval;
        _nextSampleAt = hook ? interval : kNoEvent;
    }

    /** Fire a single event; @return false if the queue is empty. */
    bool
    step()
    {
        if (_impl == Impl::Heap) {
            if (_heap.empty())
                return false;
            Entry entry = popTop();
            assert(entry.when >= _now);
            _now = entry.when;
            if (_now >= _nextSampleAt) [[unlikely]]
                fireSampleHook();
            ++_executed;
            entry.fn();
            return true;
        }
        if (_wheel.empty())
            return false;
        // The slot runs where it sits and is recycled however dispatch
        // ends, so an event that throws still destroys its callable
        // and returns its slot.
        const SlotRecycler recycler{_wheel, _wheel.unlinkFront()};
        WheelSlot &slot = *recycler.slot;
        assert(slot.when >= _now);
        _now = slot.when;
        if (_now >= _nextSampleAt) [[unlikely]]
            fireSampleHook();
        ++_executed;
        slot.fn();
        return true;
    }

    /**
     * Drop all pending events (used between experiment repetitions),
     * destroying their callables. The wheel's slots and the heap's
     * storage are retained for reuse.
     */
    void clear();

    /**
     * Reserve storage for @p events pending events. Meaningful for the
     * heap; the wheel's slot pool grows in chunks on first use and
     * keeps them, so it reaches the same steady state on its own.
     */
    void
    reserve(std::size_t events)
    {
        if (_impl == Impl::Heap)
            _heap.reserve(events);
    }

    /** Wheel self-measurement (docs/METRICS.md "queue.*"); zeros under
     *  the heap implementation. */
    const TimingWheel &wheel() const { return _wheel; }

  private:
    /** Scope guard that recycles a dispatched wheel slot. */
    struct SlotRecycler
    {
        SlotRecycler(TimingWheel &w, WheelSlot *s) : wheel(w), slot(s) {}
        SlotRecycler(const SlotRecycler &) = delete;
        SlotRecycler &operator=(const SlotRecycler &) = delete;
        ~SlotRecycler() { wheel.recycle(slot); }

        TimingWheel &wheel;
        WheelSlot *slot;
    };

    /** Heap entry (reference implementation). */
    struct Entry
    {
        Cycle when;
        std::uint64_t seq;
        EventFn fn;

        /** Strict priority: earlier cycle first, then insertion order. */
        bool
        before(const Entry &other) const
        {
            if (when != other.when)
                return when < other.when;
            return seq < other.seq;
        }
    };

    /** Out-of-line slow path of the sampling hook: fire it once for
     *  the crossed boundary, then advance past any skipped intervals
     *  (time jumps in idle stretches; one sample per crossing, not per
     *  skipped boundary, mirroring how a hardware sampling counter
     *  reads on the next cycle it is clocked). */
    void fireSampleHook();

    /** Move the last element up into its heap position. */
    void siftUp(std::size_t i);
    /** Re-establish the heap property downward from the root. */
    void siftDown(std::size_t i);
    /** Remove and return the minimum heap entry. */
    Entry popTop();

    Impl _impl;
    TimingWheel _wheel;
    std::vector<Entry> _heap; ///< binary min-heap by (when, seq)
    Cycle _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
    Cycle _maxScheduledAt = 0; ///< furthest cycle ever scheduled
    Cycle _nextSampleAt = kNoEvent; ///< kNoEvent = sampling disarmed
    Cycle _sampleInterval = 0;
    SampleHook _sampleHook = nullptr;
    void *_sampleCtx = nullptr;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_SIM_EVENT_QUEUE_HH
