/**
 * @file
 * Per-core private L2 cache model.
 *
 * The paper snoops at L2 granularity (all L2s of a CMP are probed in
 * parallel by the gateway), so the L2 is the coherence point: it tracks
 * the 7-state protocol state per line. L1s are folded into the L2 model;
 * their hit traffic never reaches the coherence fabric and is irrelevant
 * to the studied effects.
 */

#ifndef FLEXSNOOP_MEM_L2_CACHE_HH
#define FLEXSNOOP_MEM_L2_CACHE_HH

#include <functional>
#include <string>

#include "mem/line_state.hh"
#include "mem/set_assoc_array.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace flexsnoop
{

/**
 * A private L2 with protocol state per line.
 *
 * All transitions go through fill / changeState / invalidate so that the
 * owning CMP node can observe supplier-set changes (to train the Supplier
 * Predictor) and dirty evictions (to issue writebacks).
 */
class L2Cache
{
  public:
    /** What fell out of the cache when a new line was filled. */
    struct Eviction
    {
        bool valid = false;
        Addr addr = kInvalidAddr;
        LineState state = LineState::Invalid;
    };

    /**
     * Called on any transition that changes a line's state, including
     * evictions (new state Invalid) and fills (old state Invalid).
     */
    using TransitionHook =
        std::function<void(Addr line, LineState from, LineState to)>;

    /**
     * @param name    stat-group name, e.g. "cmp0.l2.1"
     * @param entries total line capacity
     * @param ways    associativity
     */
    L2Cache(const std::string &name, std::size_t entries, std::size_t ways);

    /** Register the observer for all state transitions (at most one). */
    void setTransitionHook(TransitionHook hook) { _hook = std::move(hook); }

    /** Protocol state of @p line (Invalid when not cached). */
    LineState state(Addr line) const;

    /** Set index of @p line; uniform across all L2s of the machine. */
    std::size_t setIndex(Addr line) const
    {
        return _array.setIndex(lineAddr(line));
    }

    bool contains(Addr line) const { return isValidState(state(line)); }

    /**
     * Bring @p line into the cache in @p st, evicting an LRU victim if
     * needed. Touches LRU. @return the victim, if any.
     */
    Eviction fill(Addr line, LineState st);

    /**
     * Change the state of a resident line (must be present).
     * Transitioning to Invalid frees the entry.
     */
    void changeState(Addr line, LineState to);

    /** Invalidate @p line if present. @return its previous state. */
    LineState invalidate(Addr line);

    /** invalidate() with the set index already known. */
    LineState invalidate(Addr line, std::size_t set);

    /** Touch LRU for a hit on @p line. */
    void touch(Addr line);

    /** Visit every valid line. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        _array.forEachValid(
            [&](Addr a, const LineState &s) { fn(a, s); });
    }

    std::size_t capacity() const { return _array.numEntries(); }
    std::size_t occupancy() const { return _array.occupancy(); }

    StatGroup &stats() { return _stats; }
    const StatGroup &stats() const { return _stats; }

  private:
    void
    notify(Addr line, LineState from, LineState to)
    {
        if (_hook && from != to)
            _hook(line, from, to);
    }

    SetAssocArray<LineState> _array;
    TransitionHook _hook;
    StatGroup _stats;
    // Cached handles: fills/invalidations run once per miss/snoop hit.
    Counter &_fills;
    Counter &_refills;
    Counter &_evictions;
    Counter &_invalidations;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_MEM_L2_CACHE_HH
