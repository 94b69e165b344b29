/**
 * @file
 * One CMP of the machine: several cores with private L2s, the intra-CMP
 * shared bus, and the ring gateway's Supplier Predictor.
 *
 * The CmpNode owns all protocol state transitions of its L2s. From the
 * L2 transition hooks it keeps one record per line it holds (CmpLine:
 * which L2s have a copy, which one supplies, which one is the local
 * master) and keeps the Supplier Predictor, presence filter, bridge
 * aggregates and census coherent with it. The record is a host-side
 * snoop filter: every CMP probe asks it first and reads an L2 tag
 * array only for a core whose copy bit is set. The modeled snoop is
 * charged by the controller either way.
 */

#ifndef FLEXSNOOP_COHERENCE_CMP_NODE_HH
#define FLEXSNOOP_COHERENCE_CMP_NODE_HH

#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "mem/l2_cache.hh"
#include "mem/line_state.hh"
#include "predictor/presence_predictor.hh"
#include "predictor/supplier_predictor.hh"
#include "sim/flat_map.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace flexsnoop
{

/**
 * Machine-wide per-line facts that every CmpNode keeps current from its
 * L2 transition hooks, so a question about all CMPs costs one lookup
 * instead of one per CMP: how many CMPs hold a line in a supplier state
 * (a memory fill picks its state from it), and which lines the Exact
 * predictor force-downgraded (a later memory read of one is charged to
 * Exact, paper §6.1.4).
 */
class LineCensus
{
  public:
    /** Number of CMPs holding @p line in a supplier state. */
    unsigned
    supplierCmps(Addr line) const
    {
        const unsigned *count = _supplierCmps.find(line);
        return count ? *count : 0;
    }
    bool hasSupplier(Addr line) const
    {
        return _supplierCmps.contains(line);
    }
    /** Lines with at least one supplier CMP (checker support). */
    std::size_t supplierLines() const { return _supplierCmps.size(); }
    template <typename Fn>
    void
    forEachSupplierLine(Fn &&fn) const
    {
        _supplierCmps.forEach(fn);
    }

    void supplierGained(Addr line) { ++_supplierCmps.getOrCreate(line); }
    void
    supplierLost(Addr line)
    {
        unsigned *count = _supplierCmps.find(line);
        assert(count != nullptr && *count > 0);
        if (--*count == 0)
            _supplierCmps.erase(line);
    }

    void markDowngraded(Addr line) { _downgradeMarks.put(line, 1); }
    /** Clear @p line's downgrade mark; true if it had one. */
    bool consumeDowngradeMark(Addr line)
    {
        return _downgradeMarks.erase(line);
    }

  private:
    FlatMap<unsigned> _supplierCmps;
    /** Value is a presence byte (FlatMap<bool> would hit the
     *  vector<bool> proxy). */
    FlatMap<std::uint8_t> _downgradeMarks;
};

/**
 * What a CMP knows about one line it holds: a mask of the local L2s with
 * a valid copy, the L2 holding the supplier copy (SG/E/D/T) and the L2
 * holding the local-master copy (SL). A CMP keeps a record exactly while
 * one of its L2s holds the line, so a missing record answers every
 * question about the line.
 */
struct CmpLine
{
    static constexpr std::uint8_t kNoCore = 0xff;

    /** Bit c set: local L2 c holds a valid copy. */
    std::uint32_t copies = 0;
    std::uint8_t supplier = kNoCore;
    std::uint8_t localMaster = kNoCore;
};

class CmpNode
{
  public:
    /** Writeback sink: a dirty line leaves the CMP towards memory. */
    using WritebackFn = std::function<void(Addr line, bool from_downgrade)>;

    /** Most cores (= private L2s) a CMP may have: one copy bit each. */
    static constexpr std::size_t kMaxCores =
        std::numeric_limits<decltype(CmpLine::copies)>::digits;

    /**
     * @param id        ring position of this CMP
     * @param num_cores cores (= private L2s) in the CMP, at most kMaxCores
     * @param l2_entries / @p l2_ways geometry of each L2
     */
    CmpNode(NodeId id, std::size_t num_cores, std::size_t l2_entries,
            std::size_t l2_ways);

    NodeId id() const { return _id; }
    std::size_t numCores() const { return _l2s.size(); }

    /** Install the (optional) Supplier Predictor; may be nullptr. */
    void setPredictor(std::unique_ptr<SupplierPredictor> predictor);
    SupplierPredictor *predictor() { return _predictor.get(); }
    const SupplierPredictor *predictor() const { return _predictor.get(); }

    /**
     * Install the (optional) presence predictor for write-snoop
     * filtering; synchronizes with the lines already cached.
     */
    void setPresencePredictor(std::unique_ptr<PresencePredictor> pred);
    PresencePredictor *presencePredictor() { return _presence.get(); }
    const PresencePredictor *presencePredictor() const
    {
        return _presence.get();
    }

    /**
     * Install (or remove, with nullptrs) the bridge gateway's aggregate
     * predictors of this CMP's block (hier topology). They mirror this
     * node's supplier-set and presence transitions: @p supplier_agg is
     * trained on supplier gained/lost, @p presence_agg on first-copy-in
     * / last-copy-out. Both counting Blooms, so the per-member updates
     * of one block compose; not owned. Synchronizes with the lines
     * already cached on install.
     */
    void setAggregateMirrors(PresencePredictor *supplier_agg,
                             PresencePredictor *presence_agg);

    /**
     * Install (or remove, with nullptr) the machine-wide census this
     * node reports its supplier-set changes and Exact downgrades to;
     * not owned. Synchronizes with the suppliers already cached.
     */
    void setCensus(LineCensus *census);

    void setWritebackFn(WritebackFn fn) { _writeback = std::move(fn); }

    // --- State queries -------------------------------------------------

    /** State of @p line in local core @p local_core's L2. */
    LineState coreState(std::size_t local_core, Addr line) const;

    /** Does any local L2 hold @p line in a ring-supplier state? */
    bool hasSupplier(Addr line) const;

    /** Local L2 index holding the supplier copy, or SIZE_MAX. */
    std::size_t supplierCore(Addr line) const;

    /** Does any local L2 hold @p line in a *local*-supplier state? */
    bool hasLocalSupplier(Addr line) const;

    /** Local L2 index that can supply locally (SL or supplier). */
    std::size_t localSupplierCore(Addr line) const;

    /** Does any local L2 hold a valid copy of @p line? */
    bool hasAnyCopy(Addr line) const;

    /** Number of local L2s holding a valid copy of @p line. */
    unsigned copyCount(Addr line) const;

    /** The record of @p line; all-empty when no local L2 holds it
     *  (checker support: the coherence checker audits its scan
     *  against it). */
    CmpLine lineRecord(Addr line) const;

    /** Number of lines with a record (= held by some local L2). */
    std::size_t trackedLines() const { return _lines.size(); }

    /** Visit every (line, record) pair, in unspecified order. */
    template <typename Fn>
    void
    forEachRecord(Fn &&fn) const
    {
        _lines.forEach(fn);
    }

    /** Number of lines currently in the CMP's supplier set. */
    std::size_t supplierSetSize() const { return _supplierLines; }

    // --- Read-transaction transitions ----------------------------------

    /**
     * Local core @p reader reads a line another local L2 supplies.
     * Adjusts the supplier's state (E->SG, D->T) and fills the reader in
     * S. Requires hasLocalSupplier(line).
     */
    void localSupply(std::size_t reader, Addr line);

    /**
     * A ring read snoop hit: this CMP supplies @p line to another CMP.
     * Adjusts the supplier state (E->SG, D->T). Requires
     * hasSupplier(line).
     */
    void supplyRemote(Addr line);

    /** Fill @p line into @p reader's L2 after a remote cache supplied it
     *  (state SL, or S when a local master already exists). */
    void fillFromRemote(std::size_t reader, Addr line);

    /** Fill @p line into @p reader's L2 after memory supplied it (SG). */
    void fillFromMemory(std::size_t reader, Addr line);

    // --- Write-transaction transitions ---------------------------------

    /**
     * A write invalidation (local or from the ring) hits this CMP.
     * Invalidates every local copy of @p line: the line's record names
     * the L2s to invalidate, in ascending core order, and no tag array
     * is read when the CMP holds no copy.
     *
     * @param skip_core local L2 to preserve (the writer), SIZE_MAX = none
     * @return true if an invalidated copy was in a supplier state (its
     *         data travels to the writer, so no writeback is needed)
     */
    bool invalidateAll(Addr line, std::size_t skip_core = SIZE_MAX);

    /** Fill @p line as Dirty into @p writer's L2 (write completion). */
    void fillForWrite(std::size_t writer, Addr line);

    /** Upgrade @p writer's existing copy to Dirty (write completion). */
    void upgradeToDirty(std::size_t writer, Addr line);

    // --- Exact-predictor downgrade path ---------------------------------

    /**
     * Demote @p line from its supplier state (paper §4.3.3): SG/E become
     * SL silently; D/T are written back and kept in SL. Marks the line
     * in the census, whose next memory read of it is then attributable
     * to Exact.
     * @return true if a writeback was issued.
     */
    bool downgrade(Addr line);

    // --- Infrastructure -------------------------------------------------

    L2Cache &l2(std::size_t local_core) { return *_l2s[local_core]; }
    const L2Cache &l2(std::size_t local_core) const
    {
        return *_l2s[local_core];
    }

    StatGroup &stats() { return _stats; }
    const StatGroup &stats() const { return _stats; }

    /** Visit every valid line of every local L2 (checker support). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (std::size_t c = 0; c < _l2s.size(); ++c) {
            _l2s[c]->forEachLine([&](Addr a, LineState s) { fn(c, a, s); });
        }
    }

  private:
    void onTransition(std::size_t core, Addr line, LineState from,
                      LineState to);
    void handleEviction(const L2Cache::Eviction &ev);

    NodeId _id;
    std::vector<std::unique_ptr<L2Cache>> _l2s;
    std::unique_ptr<SupplierPredictor> _predictor;
    std::unique_ptr<PresencePredictor> _presence;
    // Bridge aggregates of this node's block (hier topology; not owned).
    PresencePredictor *_supplierAgg = nullptr;
    PresencePredictor *_presenceAgg = nullptr;
    LineCensus *_census = nullptr; ///< machine-wide (not owned)
    WritebackFn _writeback;

    /** line -> its record, for every line some local L2 holds. One
     *  open-addressing FlatMap (sim/flat_map.hh) on the per-hop snoop
     *  path: every query is one probe of one contiguous table. */
    FlatMap<CmpLine> _lines;
    /** Records with a supplier core (supplierSetSize()). */
    std::size_t _supplierLines = 0;

    StatGroup _stats;
    // Cached handles for per-transaction supply/eviction accounting.
    Counter &_dirtyEvictions;
    Counter &_localSupplies;
    Counter &_remoteSupplies;
    Counter &_downgradesStat;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_COHERENCE_CMP_NODE_HH
