/**
 * @file
 * Reference scheduler: an explicit binary min-heap over (cycle, seq).
 *
 * This is the simulator's original event queue, kept only as a test
 * oracle and as the baseline of bench_event_queue. It has EventQueue's
 * scheduling contract — schedule / scheduleAt / step / run / now /
 * pending / executed / minPendingTime — and fires events in strict
 * (cycle, seq) order by construction, so the timing wheel can be
 * compared against it event for event.
 */

#ifndef FLEXSNOOP_TESTS_REFERENCE_HEAP_QUEUE_HH
#define FLEXSNOOP_TESTS_REFERENCE_HEAP_QUEUE_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_fn.hh"
#include "sim/types.hh"

namespace flexsnoop
{

class ReferenceHeapQueue
{
  public:
    /** Returned by minPendingTime() on an empty queue; run()'s "no
     *  bound" default. */
    static constexpr Cycle kNoEvent = ~Cycle{0};

    ReferenceHeapQueue() = default;
    ReferenceHeapQueue(const ReferenceHeapQueue &) = delete;
    ReferenceHeapQueue &operator=(const ReferenceHeapQueue &) = delete;

    Cycle now() const { return _now; }
    std::size_t pending() const { return _heap.size(); }
    std::uint64_t executed() const { return _executed; }

    template <typename F>
    void
    schedule(Cycle delay, F &&fn)
    {
        scheduleAt(_now + delay, std::forward<F>(fn));
    }

    template <typename F>
    void
    scheduleAt(Cycle when, F &&fn)
    {
        assert(when >= _now && "cannot schedule into the past");
        _heap.push_back(
            Entry{when, _nextSeq++, EventFn(std::forward<F>(fn))});
        siftUp(_heap.size() - 1);
    }

    Cycle
    minPendingTime() const
    {
        return _heap.empty() ? kNoEvent : _heap.front().when;
    }

    /** Fire a single event; @return false if the queue is empty. */
    bool
    step()
    {
        if (_heap.empty())
            return false;
        Entry entry = popTop();
        assert(entry.when >= _now);
        _now = entry.when;
        ++_executed;
        entry.fn();
        return true;
    }

    /** Run until the queue drains or the next event lies past
     *  @p limit. @return number of events executed by this call. */
    std::uint64_t
    run(Cycle limit = kNoEvent)
    {
        std::uint64_t fired = 0;
        while (minPendingTime() <= limit && step())
            ++fired;
        return fired;
    }

  private:
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

    /** Move element @p i up into its heap position. */
    void
    siftUp(std::size_t i)
    {
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!_heap[i].before(_heap[parent]))
                break;
            std::swap(_heap[i], _heap[parent]);
            i = parent;
        }
    }

    /** Re-establish the heap property downward from @p i. */
    void
    siftDown(std::size_t i)
    {
        const std::size_t n = _heap.size();
        while (true) {
            const std::size_t left = 2 * i + 1;
            if (left >= n)
                break;
            std::size_t best = left;
            const std::size_t right = left + 1;
            if (right < n && _heap[right].before(_heap[left]))
                best = right;
            if (!_heap[best].before(_heap[i]))
                break;
            std::swap(_heap[i], _heap[best]);
            i = best;
        }
    }

    /** Remove and return the minimum entry. */
    Entry
    popTop()
    {
        assert(!_heap.empty());
        Entry top = std::move(_heap.front());
        if (_heap.size() > 1) {
            _heap.front() = std::move(_heap.back());
            _heap.pop_back();
            siftDown(0);
        } else {
            _heap.pop_back();
        }
        return top;
    }

    std::vector<Entry> _heap; ///< binary min-heap by (when, seq)
    Cycle _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_TESTS_REFERENCE_HEAP_QUEUE_HH
