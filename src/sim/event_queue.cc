#include "sim/event_queue.hh"

#include <cassert>
#include <cstdlib>
#include <utility>

namespace flexsnoop
{
namespace
{

EventQueue::Impl
implFromEnv()
{
    return std::getenv("FLEXSNOOP_HEAP_QUEUE") ? EventQueue::Impl::Heap
                                               : EventQueue::Impl::Wheel;
}

} // namespace

EventQueue::EventQueue() : EventQueue(implFromEnv()) {}

EventQueue::EventQueue(Impl impl) : _impl(impl) {}

// Heap (reference implementation) ------------------------------------

void
EventQueue::siftUp(std::size_t i)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!_heap[i].before(_heap[parent]))
            break;
        std::swap(_heap[i], _heap[parent]);
        i = parent;
    }
}

void
EventQueue::siftDown(std::size_t i)
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

EventQueue::Entry
EventQueue::popTop()
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

// Shared interface ---------------------------------------------------

void
EventQueue::fireSampleHook()
{
    // Advance first: if the hook ever threw, the boundary would still
    // be consumed rather than re-fired forever.
    do {
        _nextSampleAt += _sampleInterval;
    } while (_nextSampleAt <= _now);
    _sampleHook(_sampleCtx, _now);
}

std::uint64_t
EventQueue::run(Cycle limit)
{
    std::uint64_t fired = 0;
    if (limit == kNoEvent) {
        // Unbounded drain: skip the per-step minimum lookup.
        while (step())
            ++fired;
        return fired;
    }
    while (minPendingTime() <= limit) {
        step();
        ++fired;
    }
    return fired;
}

void
EventQueue::clear()
{
    // clear() keeps the wheel's slots and the heap's capacity: an
    // EventQueue reused between experiment repetitions schedules into
    // already-hot storage.
    if (_impl == Impl::Heap)
        _heap.clear();
    else
        _wheel.clear();
}

} // namespace flexsnoop
