#include "coherence/cmp_node.hh"

#include <bit>
#include <cassert>

#include "sim/log.hh"

namespace flexsnoop
{

CmpNode::CmpNode(NodeId id, std::size_t num_cores, std::size_t l2_entries,
                 std::size_t l2_ways)
    : _id(id), _stats("cmp" + std::to_string(id)),
      _dirtyEvictions(_stats.counter("dirty_evictions")),
      _localSupplies(_stats.counter("local_supplies")),
      _remoteSupplies(_stats.counter("remote_supplies")),
      _downgradesStat(_stats.counter("downgrades"))
{
    assert(num_cores >= 1 && num_cores <= kMaxCores &&
           "a CMP's cores must fit the copy mask of its line records");
    _l2s.reserve(num_cores);
    for (std::size_t c = 0; c < num_cores; ++c) {
        auto l2 = std::make_unique<L2Cache>(
            "cmp" + std::to_string(id) + ".l2." + std::to_string(c),
            l2_entries, l2_ways);
        l2->setTransitionHook(
            [this, c](Addr line, LineState from, LineState to) {
                onTransition(c, line, from, to);
            });
        _l2s.push_back(std::move(l2));
    }
}

void
CmpNode::setPredictor(std::unique_ptr<SupplierPredictor> predictor)
{
    _predictor = std::move(predictor);
    if (!_predictor)
        return;
    // Predictors may be installed after lines exist (tests); sync them.
    _lines.forEach([this](Addr line, const CmpLine &rec) {
        if (rec.supplier != CmpLine::kNoCore)
            _predictor->supplierGained(line);
    });
}

void
CmpNode::setPresencePredictor(std::unique_ptr<PresencePredictor> pred)
{
    _presence = std::move(pred);
    if (!_presence)
        return;
    _lines.forEach(
        [this](Addr line, const CmpLine &) { _presence->linePresent(line); });
}

void
CmpNode::setAggregateMirrors(PresencePredictor *supplier_agg,
                             PresencePredictor *presence_agg)
{
    _supplierAgg = supplier_agg;
    _presenceAgg = presence_agg;
    _lines.forEach([this](Addr line, const CmpLine &rec) {
        if (_supplierAgg && rec.supplier != CmpLine::kNoCore)
            _supplierAgg->linePresent(line);
        if (_presenceAgg)
            _presenceAgg->linePresent(line);
    });
}

void
CmpNode::setCensus(LineCensus *census)
{
    _census = census;
    if (!_census)
        return;
    _lines.forEach([this](Addr line, const CmpLine &rec) {
        if (rec.supplier != CmpLine::kNoCore)
            _census->supplierGained(line);
    });
}

void
CmpNode::onTransition(std::size_t core, Addr line, LineState from,
                      LineState to)
{
    const bool was_valid = isValidState(from);
    const bool is_valid = isValidState(to);
    const bool was_supplier = isSupplierState(from);
    const bool is_supplier = isSupplierState(to);
    // SG/E/D/T holders implicitly dominate SL for local-supply purposes,
    // so the local master is the SL holder only.
    const bool was_sl = from == LineState::SharedLocal;
    const bool is_sl = to == LineState::SharedLocal;
    if (was_valid == is_valid && was_supplier == is_supplier &&
        was_sl == is_sl)
        return; // e.g. E -> D: the record does not change

    // Update the record before any hook fires, and hold no pointer into
    // the map across one: Exact's downgrade callback re-enters this
    // function for another line, which may insert and rehash.
    const std::uint32_t bit = std::uint32_t{1} << core;
    const auto core_id = static_cast<std::uint8_t>(core);
    bool first_copy = false;
    bool last_copy = false;
    {
        CmpLine &rec = _lines.getOrCreate(line);
        if (!was_valid && is_valid) {
            assert(!(rec.copies & bit));
            first_copy = rec.copies == 0;
            rec.copies |= bit;
        } else if (was_valid && !is_valid) {
            assert(rec.copies & bit);
            rec.copies &= ~bit;
            last_copy = rec.copies == 0;
        }

        if (was_supplier && !is_supplier) {
            assert(rec.supplier == core_id);
            rec.supplier = CmpLine::kNoCore;
        } else if (!was_supplier && is_supplier) {
            if (rec.supplier != CmpLine::kNoCore) {
                FS_LOG(Error, 0, "cmp",
                       "cmp " << _id << " second supplier: line 0x"
                              << std::hex << line << std::dec << " core "
                              << core << " " << toString(from) << "->"
                              << toString(to) << " existing core "
                              << unsigned{rec.supplier} << " in "
                              << toString(_l2s[rec.supplier]->state(line)));
            }
            assert(rec.supplier == CmpLine::kNoCore &&
                   "second supplier copy within one CMP");
            rec.supplier = core_id;
        }

        if (was_sl && !is_sl) {
            assert(rec.localMaster == core_id);
            rec.localMaster = CmpLine::kNoCore;
        } else if (!was_sl && is_sl) {
            assert(rec.localMaster == CmpLine::kNoCore &&
                   "second local-master copy within one CMP");
            rec.localMaster = core_id;
        }

        if (last_copy) {
            assert(rec.supplier == CmpLine::kNoCore &&
                   rec.localMaster == CmpLine::kNoCore);
            _lines.erase(line);
        }
    }

    // Presence tracking: first copy in / last copy out of the CMP.
    if (first_copy) {
        if (_presence)
            _presence->linePresent(line);
        if (_presenceAgg)
            _presenceAgg->linePresent(line);
    } else if (last_copy) {
        if (_presence)
            _presence->lineAbsent(line);
        if (_presenceAgg)
            _presenceAgg->lineAbsent(line);
    }

    if (was_supplier && !is_supplier) {
        --_supplierLines;
        if (_predictor)
            _predictor->supplierLost(line);
        if (_supplierAgg)
            _supplierAgg->lineAbsent(line);
        if (_census)
            _census->supplierLost(line);
    } else if (!was_supplier && is_supplier) {
        ++_supplierLines;
        if (_predictor)
            _predictor->supplierGained(line);
        if (_supplierAgg)
            _supplierAgg->linePresent(line);
        if (_census)
            _census->supplierGained(line);
    }
}

LineState
CmpNode::coreState(std::size_t local_core, Addr line) const
{
    return _l2s[local_core]->state(lineAddr(line));
}

bool
CmpNode::hasSupplier(Addr line) const
{
    return supplierCore(line) != SIZE_MAX;
}

std::size_t
CmpNode::supplierCore(Addr line) const
{
    const CmpLine *rec = _lines.find(lineAddr(line));
    return rec && rec->supplier != CmpLine::kNoCore ? rec->supplier
                                                     : SIZE_MAX;
}

bool
CmpNode::hasLocalSupplier(Addr line) const
{
    return localSupplierCore(line) != SIZE_MAX;
}

std::size_t
CmpNode::localSupplierCore(Addr line) const
{
    const CmpLine *rec = _lines.find(lineAddr(line));
    if (!rec)
        return SIZE_MAX;
    if (rec->supplier != CmpLine::kNoCore)
        return rec->supplier;
    if (rec->localMaster != CmpLine::kNoCore)
        return rec->localMaster;
    return SIZE_MAX;
}

bool
CmpNode::hasAnyCopy(Addr line) const
{
    return _lines.contains(lineAddr(line));
}

unsigned
CmpNode::copyCount(Addr line) const
{
    return static_cast<unsigned>(std::popcount(lineRecord(line).copies));
}

CmpLine
CmpNode::lineRecord(Addr line) const
{
    const CmpLine *rec = _lines.find(lineAddr(line));
    return rec ? *rec : CmpLine{};
}

void
CmpNode::handleEviction(const L2Cache::Eviction &ev)
{
    if (!ev.valid)
        return;
    if (isDirtyState(ev.state)) {
        _dirtyEvictions.inc();
        if (_writeback)
            _writeback(ev.addr, false);
    }
}

void
CmpNode::localSupply(std::size_t reader, Addr line)
{
    line = lineAddr(line);
    const std::size_t src = localSupplierCore(line);
    assert(src != SIZE_MAX && src != reader);
    const LineState src_state = _l2s[src]->state(line);
    // Sharing adjusts the supplier's state: clean exclusive becomes the
    // global master, dirty exclusive becomes Tagged (dirty-shared).
    if (src_state == LineState::Exclusive)
        _l2s[src]->changeState(line, LineState::SharedGlobal);
    else if (src_state == LineState::Dirty)
        _l2s[src]->changeState(line, LineState::Tagged);
    _l2s[src]->touch(line);
    handleEviction(_l2s[reader]->fill(line, LineState::Shared));
    _localSupplies.inc();
}

void
CmpNode::supplyRemote(Addr line)
{
    line = lineAddr(line);
    const std::size_t src = supplierCore(line);
    assert(src != SIZE_MAX);
    const LineState src_state = _l2s[src]->state(line);
    if (src_state == LineState::Exclusive)
        _l2s[src]->changeState(line, LineState::SharedGlobal);
    else if (src_state == LineState::Dirty)
        _l2s[src]->changeState(line, LineState::Tagged);
    _l2s[src]->touch(line);
    _remoteSupplies.inc();
}

void
CmpNode::fillFromRemote(std::size_t reader, Addr line)
{
    line = lineAddr(line);
    // The reader brought the line into the CMP from outside: it becomes
    // the local master -- unless a concurrent transaction beat it to it.
    const LineState st = hasLocalSupplier(line) ? LineState::Shared
                                                : LineState::SharedLocal;
    handleEviction(_l2s[reader]->fill(line, st));
}

void
CmpNode::fillFromMemory(std::size_t reader, Addr line)
{
    line = lineAddr(line);
    // The reader brought the line from memory: global master. If a
    // concurrent transaction installed a supplier first, demote to S.
    const LineState st = hasLocalSupplier(line) ? LineState::Shared
                                                : LineState::SharedGlobal;
    handleEviction(_l2s[reader]->fill(line, st));
}

bool
CmpNode::invalidateAll(Addr line, std::size_t skip_core)
{
    line = lineAddr(line);
    // Snoop filter: the record names the L2s holding a copy, so a CMP
    // without one (nearly every ring write snoop) reads no tag array.
    const CmpLine *rec = _lines.find(line);
    if (!rec)
        return false;
    std::uint32_t victims = rec->copies; // rec dangles once hooks run
    if (skip_core != SIZE_MAX)
        victims &= ~(std::uint32_t{1} << skip_core);
    if (victims == 0)
        return false;
    // All local L2s share geometry: resolve the set once.
    const std::size_t set = _l2s[0]->setIndex(line);
    bool had_supplier = false;
    for (; victims != 0; victims &= victims - 1) {
        const LineState st =
            _l2s[std::countr_zero(victims)]->invalidate(line, set);
        assert(isValidState(st));
        had_supplier = had_supplier || isSupplierState(st);
    }
    return had_supplier;
}

void
CmpNode::fillForWrite(std::size_t writer, Addr line)
{
    line = lineAddr(line);
    handleEviction(_l2s[writer]->fill(line, LineState::Dirty));
}

void
CmpNode::upgradeToDirty(std::size_t writer, Addr line)
{
    line = lineAddr(line);
    assert(isValidState(_l2s[writer]->state(line)));
    _l2s[writer]->changeState(line, LineState::Dirty);
    _l2s[writer]->touch(line);
}

bool
CmpNode::downgrade(Addr line)
{
    line = lineAddr(line);
    const std::size_t src = supplierCore(line);
    if (src == SIZE_MAX)
        return false; // already lost supplier state (e.g. race)
    const LineState st = _l2s[src]->state(line);
    assert(isSupplierState(st));
    bool wrote_back = false;
    if (isDirtyState(st)) {
        if (_writeback)
            _writeback(line, true);
        wrote_back = true;
    }
    FS_LOG(Debug, 0, "cmp",
           "downgrade cmp " << _id << " core " << src << " line 0x"
                            << std::hex << line << std::dec << " from "
                            << toString(st));
    // SL is unique per CMP; a supplier holder excludes other SL copies
    // in the same CMP, so demoting to SL is always legal here.
    _l2s[src]->changeState(line, LineState::SharedLocal);
    if (_census)
        _census->markDowngraded(line);
    _downgradesStat.inc();
    return wrote_back;
}

} // namespace flexsnoop
