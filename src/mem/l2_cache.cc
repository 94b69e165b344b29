#include "mem/l2_cache.hh"

#include <cassert>

namespace flexsnoop
{

L2Cache::L2Cache(const std::string &name, std::size_t entries,
                 std::size_t ways)
    : _array(entries, ways), _stats(name),
      _fills(_stats.counter("fills")),
      _refills(_stats.counter("refills")),
      _evictions(_stats.counter("evictions")),
      _invalidations(_stats.counter("invalidations"))
{
}

LineState
L2Cache::state(Addr line) const
{
    const LineState *st = _array.lookup(lineAddr(line));
    return st ? *st : LineState::Invalid;
}

L2Cache::Eviction
L2Cache::fill(Addr line, LineState st)
{
    assert(isValidState(st));
    line = lineAddr(line);
    Eviction ev;
    // A racing transaction may have installed the line already (e.g. a
    // retried write completing after a merged read): treat the fill as a
    // state change so observers see the true old state.
    if (LineState *cur = _array.lookup(line, true)) {
        const LineState from = *cur;
        *cur = st;
        _refills.inc();
        notify(line, from, st);
        return ev;
    }
    const auto result = _array.insert(line, st);
    if (result.evicted) {
        ev.valid = true;
        ev.addr = result.evictedAddr;
        ev.state = result.evictedPayload;
        _evictions.inc();
        notify(ev.addr, ev.state, LineState::Invalid);
    }
    _fills.inc();
    notify(line, LineState::Invalid, st);
    return ev;
}

void
L2Cache::changeState(Addr line, LineState to)
{
    line = lineAddr(line);
    LineState *cur = _array.lookup(line, false);
    assert(cur != nullptr && "changeState on a non-resident line");
    const LineState from = *cur;
    if (to == LineState::Invalid) {
        _array.erase(line);
        _invalidations.inc();
    } else {
        *cur = to;
    }
    notify(line, from, to);
}

LineState
L2Cache::invalidate(Addr line)
{
    return invalidate(line, _array.setIndex(lineAddr(line)));
}

LineState
L2Cache::invalidate(Addr line, std::size_t set)
{
    line = lineAddr(line);
    const LineState *cur = _array.lookupInSet(set, line);
    if (!cur)
        return LineState::Invalid;
    const LineState from = *cur;
    _array.eraseInSet(set, line);
    _invalidations.inc();
    notify(line, from, LineState::Invalid);
    return from;
}

void
L2Cache::touch(Addr line)
{
    _array.lookup(lineAddr(line), true);
}

} // namespace flexsnoop
