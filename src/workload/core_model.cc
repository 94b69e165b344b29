#include "workload/core_model.hh"

#include <cassert>

#include "sim/log.hh"

namespace flexsnoop
{

TraceCore::TraceCore(CoreId id, Trace trace, std::size_t warmup_refs,
                     const CoreParams &params, EventQueue &queue,
                     RequestPort &port)
    : _id(id), _trace(std::move(trace)), _warmupRefs(warmup_refs),
      _params(params), _queue(queue), _port(port),
      _stats("core" + std::to_string(id)),
      _readsIssued(_stats.counter("reads_issued")),
      _writesIssued(_stats.counter("writes_issued")),
      _completions(_stats.counter("completions")),
      _windowStalls(_stats.counter("window_stalls"))
{
    assert(params.maxOutstanding >= 1);
}

void
TraceCore::start()
{
    _nextIssue = _queue.now();
    tryIssue();
}

void
TraceCore::releaseBarrier()
{
    assert(_atBarrier);
    _atBarrier = false;
    _barrierDone = true;
    _nextIssue = _queue.now();
    tryIssue();
}

void
TraceCore::tryIssue()
{
    // Barrier between warmup and measured phase: wait for everyone once
    // all warmup refs are complete (not merely issued).
    if (!_barrierDone && _warmupRefs > 0 && _idx >= _warmupRefs) {
        if (_outstanding > 0)
            return; // drain first; completions re-enter tryIssue
        if (!_atBarrier) {
            _atBarrier = true;
            if (_onBarrier)
                _onBarrier(_id);
        }
        return;
    }

    if (_idx >= _trace.size()) {
        if (_outstanding == 0 && !_finished) {
            _finished = true;
            if (_onDone)
                _onDone(_id);
        }
        return;
    }

    if (_outstanding >= _params.maxOutstanding) {
        _windowStalls.inc();
        return; // a completion will re-enter
    }

    const MemRef &ref = _trace[_idx];
    const Cycle when = std::max(_queue.now(), _nextIssue) + ref.gap;
    if (_issueScheduled)
        return;
    _issueScheduled = true;
    _queue.scheduleAt(when, [this]() {
        _issueScheduled = false;
        if (_atBarrier)
            return;
        if (_idx >= _trace.size())
            return;
        // Re-check the window: completions may not have caught up.
        if (_outstanding >= _params.maxOutstanding) {
            _windowStalls.inc();
            return;
        }
        const MemRef r = _trace[_idx];
        ++_idx;
        _nextIssue = _queue.now();
        issueRef(r);
        tryIssue();
    });
}

void
TraceCore::issueRef(const MemRef &ref)
{
    ++_outstanding;
    ++_inFlight.getOrCreate(lineAddr(ref.addr));
    (ref.isWrite ? _writesIssued : _readsIssued).inc();
    FS_LOG(Trace, _queue.now(), "core",
           "issue core " << _id << " line 0x" << std::hex
                         << lineAddr(ref.addr) << std::dec
                         << (ref.isWrite ? " W" : " R"));
    if (ref.isWrite)
        _port.coreWrite(_id, ref.addr);
    else
        _port.coreRead(_id, ref.addr);
}

void
TraceCore::onCompletion(Addr line)
{
    line = lineAddr(line);
    unsigned *count = _inFlight.find(line);
    if (!count) {
        FS_LOG(Error, _queue.now(), "core",
               "core " << _id << " completion for unknown line 0x"
                       << std::hex << line << std::dec << " idx " << _idx
                       << " outstanding " << _outstanding);
    }
    assert(count && "completion for unknown access");
    if (--*count == 0)
        _inFlight.erase(line);
    assert(_outstanding > 0);
    --_outstanding;
    _completions.inc();
    tryIssue();
}

WorkloadRunner::WorkloadRunner(EventQueue &queue, RequestPort &port,
                               const CoreTraces &traces,
                               const CoreParams &params)
    : _queue(queue)
{
    port.setCompletionHandler(
        [this](CoreId core, Addr line, bool) {
            _cores[core]->onCompletion(line);
        });

    _cores.reserve(traces.traces.size());
    for (CoreId c = 0; c < traces.traces.size(); ++c) {
        auto core = std::make_unique<TraceCore>(
            c, traces.traces[c], traces.warmupRefs, params, queue, port);
        core->setBarrierFn([this](CoreId id) { onBarrier(id); });
        _cores.push_back(std::move(core));
    }
}

void
WorkloadRunner::onBarrier(CoreId)
{
    ++_atBarrier;
    if (_atBarrier < _cores.size())
        return;
    // Everyone reached the barrier: end of warmup.
    _warmupComplete = true;
    _measureStart = _queue.now();
    if (_onWarmupDone)
        _onWarmupDone();
    for (auto &core : _cores)
        core->releaseBarrier();
}

bool
WorkloadRunner::allDone() const
{
    for (const auto &core : _cores) {
        if (!core->done())
            return false;
    }
    return true;
}

Cycle
WorkloadRunner::run(Cycle check_every, const std::function<void()> &check)
{
    for (auto &core : _cores)
        core->start();
    for (Cycle limit = check_every;; limit += check_every) {
        _queue.run(limit);
        if (_queue.pending() == 0)
            break;
        check();
    }
    if (!allDone()) {
        // Deliberately not fatal here: runSimulation turns this into a
        // SimulationStuckError with a full post-mortem dump, which the
        // sweep runner (runCells) isolates to the failing cell.
        for (const auto &core : _cores) {
            if (!core->done()) {
                FS_LOG(Error, _queue.now(), "runner",
                       "core " << core->id() << " stuck: issued "
                               << core->refsIssued() << " outstanding "
                               << core->outstanding() << " barrier "
                               << core->atBarrier());
            }
        }
    }
    return _queue.now() - _measureStart;
}

} // namespace flexsnoop
