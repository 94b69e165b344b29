#include "coherence/controller.hh"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "sim/fault_injector.hh"
#include "sim/log.hh"
#include "topology/topology.hh"

namespace flexsnoop
{

CoherenceController::HotStats::HotStats(StatGroup &g)
    : reads(g.counter("reads")),
      readL2Hits(g.counter("read_l2_hits")),
      readLocalSupplies(g.counter("read_local_supplies")),
      readMerged(g.counter("read_merged")),
      readLocalConflictDelays(g.counter("read_local_conflict_delays")),
      writes(g.counter("writes")),
      writeL2Hits(g.counter("write_l2_hits")),
      writeLocalConflictDelays(g.counter("write_local_conflict_delays")),
      readRingRequests(g.counter("read_ring_requests")),
      writeRingRequests(g.counter("write_ring_requests")),
      readLinkMessages(g.counter("read_link_messages")),
      writeLinkMessages(g.counter("write_link_messages")),
      readFiltered(g.counter("read_filtered")),
      writeFiltered(g.counter("write_filtered")),
      readSnoops(g.counter("read_snoops")),
      writeSnoops(g.counter("write_snoops")),
      readCacheSupplies(g.counter("read_cache_supplies")),
      readMemorySupplies(g.counter("read_memory_supplies")),
      memoryFetches(g.counter("memory_fetches")),
      collisions(g.counter("collisions")),
      squashes(g.counter("squashes")),
      staleSquashes(g.counter("stale_squashes")),
      retries(g.counter("retries")),
      gateDeferrals(g.counter("gate_deferrals")),
      ringRoundsFound(g.counter("ring_rounds_found")),
      ringRoundsNegative(g.counter("ring_rounds_negative")),
      invalidateOnFill(g.counter("invalidate_on_fill")),
      readLatency(g.scalar("read_latency")),
      writeLatency(g.scalar("write_latency")),
      readLatencyHist(g.histogram("read_latency_hist", 50.0, 80)),
      watchdogTimeouts(g.counter("watchdog_timeouts")),
      staleAbsorbed(g.counter("stale_messages_absorbed")),
      flipDegrades(g.counter("predictor_flip_degrades")),
      incompleteRejected(g.counter("incomplete_conclusions_rejected")),
      retryStormAborts(g.counter("retry_storm_aborts")),
      bridgeSkips(g.counter("bridge_skips")),
      bridgeDescends(g.counter("bridge_descends"))
{
}

CoherenceController::CoherenceController(
    EventQueue &queue, RingNetwork &ring, DataNetwork &data,
    MemoryController &memory, EnergyModel &energy, SnoopPolicy &policy,
    std::vector<std::unique_ptr<CmpNode>> &nodes, LineCensus &census,
    const CoherenceParams &params)
    : _queue(queue), _ring(ring), _data(data), _memory(memory),
      _energy(energy), _policy(policy), _nodes(nodes), _census(census),
      _params(params),
      _coresPerCmp(nodes.empty() ? 1 : nodes.front()->numCores()),
      _stats("controller"), _c(_stats)
{
    assert(!_nodes.empty());
    for (NodeId n = 0; n < _nodes.size(); ++n) {
        _ring.setHandler(n, [this, n](const SnoopMessage &msg) {
            onRingMessage(n, msg);
        });
    }
}


void
CoherenceController::setTopology(
    const Topology *topo, SnoopPolicy *global_policy,
    std::vector<std::unique_ptr<PresencePredictor>> *bridge_supplier,
    std::vector<std::unique_ptr<PresencePredictor>> *bridge_presence)
{
    if (!topo || !topo->hierarchical()) {
        _topo = nullptr;
        _globalPolicy = nullptr;
        _bridgeSupplier = nullptr;
        _bridgePresence = nullptr;
        return;
    }
    assert(topo->numNodes() == _nodes.size());
    _topo = topo;
    _globalPolicy = global_policy;
    _bridgeSupplier = bridge_supplier;
    _bridgePresence = bridge_presence;
}

CoherenceController::PoolUsage
CoherenceController::txnPoolUsage() const
{
    return {_txnPool.acquires(), _txnPool.releases(), _txnPool.live(),
            _txnPool.slotsAllocated(), _txnPool.chunkAllocs()};
}

CoherenceController::PoolUsage
CoherenceController::linePoolUsage() const
{
    return {_linePool.acquires(), _linePool.releases(), _linePool.live(),
            _linePool.slotsAllocated(), _linePool.chunkAllocs()};
}

CoherenceController::PoolUsage
CoherenceController::lineRecordPoolUsage() const
{
    return {_lineRecordPool.acquires(), _lineRecordPool.releases(),
            _lineRecordPool.live(), _lineRecordPool.slotsAllocated(),
            _lineRecordPool.chunkAllocs()};
}

Transaction *
CoherenceController::findTransaction(TransactionId id)
{
    Transaction **slot = _transactions.find(id);
    return slot ? *slot : nullptr;
}

LineRecord *
CoherenceController::findLineRecord(Addr line, LineRecord *hint) const
{
    if (hint && hint->line == line)
        return hint;
    LineRecord *const *rec = _lineTable.find(line);
    return rec ? *rec : nullptr;
}

GatewayLine *
CoherenceController::findLine(NodeId node, Addr line) const
{
    const LineRecord *lr = findLineRecord(line, nullptr);
    return lr ? lr->nodes[node] : nullptr;
}

LineRecord &
CoherenceController::openLineRecord(Addr line)
{
    LineRecord *&slot = _lineTable.getOrCreate(line);
    if (!slot) {
        slot = _lineRecordPool.acquire();
        // Records return to the pool empty (recycleIfIdle); fresh slots
        // get their per-node index here, once.
        assert(slot->line == kInvalidAddr && slot->entries == 0 &&
               slot->liveRounds == 0);
        if (slot->nodes.empty())
            slot->nodes.assign(_nodes.size(), nullptr);
        slot->line = line;
    }
    return *slot;
}

GatewayLine &
CoherenceController::openLine(NodeId node, Addr line, LineRecord *&lr)
{
    if (!lr)
        lr = &openLineRecord(line);
    assert(lr->line == line);
    if (GatewayLine *rec = lr->nodes[node])
        return *rec;
    GatewayLine *rec = _linePool.acquire();
    // Records return to the pool idle (recycleIfIdle), fresh slots
    // default-construct idle; recycled vectors keep their capacity.
    assert(rec->idle() && rec->holder == kInvalidTransaction &&
           rec->deferred.empty());
    rec->line = line;
    rec->owner = lr;
    lr->nodes[node] = rec;
    ++lr->entries;
    return *rec;
}

void
CoherenceController::recycleIfIdle(NodeId node, GatewayLine *rec)
{
    if (!rec->idle())
        return;
    LineRecord *lr = rec->owner;
    assert(lr->nodes[node] == rec);
    lr->nodes[node] = nullptr;
    _linePool.release(rec);
    if (--lr->entries != 0)
        return;
    // No node tracks the line: nor can a live round (it holds its own
    // entry). Unnamed, the record turns every hint to it stale.
    assert(lr->liveRounds == 0);
    _lineTable.erase(lr->line);
    lr->line = kInvalidAddr;
    _lineRecordPool.release(lr);
}

NodePending &
CoherenceController::pending(GatewayLine &rec, TransactionId txn)
{
    if (NodePending *p = rec.findPending(txn))
        return *p;
    NodePending &p = rec.pending.emplace_back();
    p.txn = txn;
    return p;
}

void
CoherenceController::erasePending(GatewayLine &rec, TransactionId txn)
{
    NodePending *p = rec.findPending(txn);
    if (!p)
        return;
    if (p->bufferedReply)
        _msgPool.release(p->bufferedReply);
    *p = rec.pending.back();
    rec.pending.pop_back();
}

void
CoherenceController::dropPending(NodeId node, GatewayLine *rec,
                                 TransactionId txn)
{
    erasePending(*rec, txn);
    recycleIfIdle(node, rec);
}

void
CoherenceController::retire(NodeId node, GatewayLine *rec,
                            TransactionId txn)
{
    erasePending(*rec, txn);
    releaseGate(node, rec, txn);
}

bool
CoherenceController::deferIfGated(NodeId node, GatewayLine *rec,
                                  const SnoopMessage &msg)
{
    if (!rec)
        return false;
    // The holder's own traffic (notably the trailing reply an STF hold
    // is waiting for) must always flow, or the hold never ends.
    if (rec->holder == msg.txn)
        return false;
    // Idle (or closed) gate with nothing queued: pass through.
    if (rec->holder == kInvalidTransaction && rec->deferred.empty())
        return false;
    // Strict per-line FIFO: every other message (any type) queues, so a
    // trailing reply can never overtake its own parked request.
    rec->deferred.push_back(msg);
    _c.gateDeferrals.inc();
    if (_trace)
        _trace->record(TraceEvent::GateDefer, _queue.now(), msg.txn,
                       msg.line,
                       rec->holder == kInvalidTransaction ? 0
                                                          : rec->holder,
                       static_cast<std::uint16_t>(node));
    return true;
}

void
CoherenceController::acquireGate(GatewayLine &rec, TransactionId txn)
{
    if (!rec.gateOpen) {
        rec.gateOpen = true;
        ++_gatedLines;
    }
    assert(rec.holder == kInvalidTransaction || rec.holder == txn);
    rec.holder = txn;
}

void
CoherenceController::releaseGate(NodeId node, GatewayLine *rec,
                                 TransactionId txn)
{
    if (rec->holder != txn) {
        recycleIfIdle(node, rec);
        return;
    }
    rec->holder = kInvalidTransaction;
    drainGate(node, rec);
}

void
CoherenceController::drainGate(NodeId node, GatewayLine *rec)
{
    // Synchronous loop: popping and reprocessing must leave no window
    // in which a newly-arriving message could slip past the queue and
    // steal the gate from the rightful next holder.
    const Addr line = rec->line;
    LineRecord *lr = rec->owner;
    while (true) {
        if (rec->deferred.empty()) {
            if (rec->holder == kInvalidTransaction) {
                // The gate is idle and empty: close it, and recycle the
                // record if nothing else is tracked on the line.
                if (rec->gateOpen) {
                    rec->gateOpen = false;
                    --_gatedLines;
                }
                recycleIfIdle(node, rec);
            }
            return;
        }
        // While a holder is active, only its own queued traffic (e.g.
        // the trailing reply parked behind its request) may be
        // delivered -- jumping the queue if needed, as a real gateway
        // consumes a reply on arrival rather than forwarding it. Other
        // transactions stay queued until release.
        auto pick = rec->deferred.begin();
        if (rec->holder != kInvalidTransaction) {
            while (pick != rec->deferred.end() && pick->txn != rec->holder)
                ++pick;
            if (pick == rec->deferred.end())
                return;
        }
        const SnoopMessage next = *pick;
        rec->deferred.erase(pick);
        // The reprocessed message may take the gate (SnoopThenForward),
        // in which case the next loop iteration only delivers its own
        // traffic; otherwise keep draining. It may also retire the
        // line's last state and recycle the record: find it again.
        handleIntermediate(node, next, /*from_gate=*/true);
        lr = findLineRecord(line, lr);
        rec = lr ? lr->nodes[node] : nullptr;
        if (!rec)
            return;
    }
}

void
CoherenceController::complete(CoreId core, Addr line, bool is_write,
                              Cycle delay)
{
    if (!_onComplete)
        return;
    FS_LOG(Debug, _queue.now(), "ctrl",
           "complete core " << core << " line 0x" << std::hex << line
                            << std::dec << (is_write ? " W" : " R")
                            << " delay " << delay);
    _queue.schedule(delay, [this, core, line, is_write]() {
        _onComplete(core, line, is_write);
    });
}

// --------------------------------------------------------------------------
// Core-facing request entry points
// --------------------------------------------------------------------------

void
CoherenceController::coreRead(CoreId core, Addr addr,
                              unsigned retries)
{
    const Addr line = lineAddr(addr);
    const NodeId n = nodeOf(core);
    const std::size_t local = localOf(core);
    CmpNode &node = *_nodes[n];

    _c.reads.inc();

    // 1. Hit in the core's own L2.
    if (isValidState(node.coreState(local, line))) {
        node.l2(local).touch(line);
        _c.readL2Hits.inc();
        complete(core, line, false, _params.l2RoundTrip);
        return;
    }

    // 2. Another L2 in this CMP can supply (SL, SG, E, D, T).
    if (node.hasLocalSupplier(line)) {
        node.localSupply(local, line);
        _c.readLocalSupplies.inc();
        complete(core, line, false,
                 _params.l2RoundTrip + _params.localBusRoundTrip);
        return;
    }

    // 3. Merge with an outstanding same-line read of this CMP.
    if (const GatewayLine *rec = findLine(n, line);
        rec && rec->own != kInvalidTransaction) {
        Transaction *t = findTransaction(rec->own);
        if (t && t->kind == SnoopKind::Read && !t->squashed &&
            !t->dataArrived) {
            // Merging onto a transaction whose data already arrived
            // would miss the delivery; fall through to the delay path.
            t->waiters.push_back(core);
            _c.readMerged.inc();
            return;
        }
        // A conflicting local transaction is in flight; retry shortly.
        _c.readLocalConflictDelays.inc();
        _queue.schedule(_params.retryBackoff, [this, core, addr,
                                               retries]() {
            coreRead(core, addr, retries);
        });
        return;
    }

    // 4. Go to the ring.
    startRingTransaction(core, line, SnoopKind::Read,
                         _params.l2RoundTrip + _params.localBusRoundTrip,
                         retries);
}

void
CoherenceController::coreWrite(CoreId core, Addr addr,
                               unsigned retries)
{
    const Addr line = lineAddr(addr);
    const NodeId n = nodeOf(core);
    const std::size_t local = localOf(core);
    CmpNode &node = *_nodes[n];

    _c.writes.inc();

    const LineState st = node.coreState(local, line);

    // 1. Writable already: silent transition.
    if (isWritableState(st)) {
        if (st == LineState::Exclusive)
            node.l2(local).changeState(line, LineState::Dirty);
        node.l2(local).touch(line);
        _c.writeL2Hits.inc();
        complete(core, line, true, _params.l2RoundTrip);
        return;
    }

    // 2. A local transaction on this line is already in flight.
    if (const GatewayLine *rec = findLine(n, line);
        rec && rec->own != kInvalidTransaction) {
        _c.writeLocalConflictDelays.inc();
        _queue.schedule(_params.retryBackoff, [this, core, addr,
                                               retries]() {
            coreWrite(core, addr, retries);
        });
        return;
    }

    // 3. Invalidate the other local copies over the CMP bus, then launch
    //    the ring invalidation round.
    node.invalidateAll(line, local);
    startRingTransaction(core, line, SnoopKind::Write,
                         _params.l2RoundTrip + _params.localBusRoundTrip,
                         retries);
}

void
CoherenceController::startRingTransaction(CoreId core, Addr line,
                                          SnoopKind kind, Cycle extra_delay,
                                          unsigned retries)
{
    const NodeId n = nodeOf(core);
    const std::size_t local = localOf(core);

    Transaction *txn = _txnPool.acquire();
    txn->reset();
    txn->id = _nextTxnId++;
    txn->line = line;
    txn->kind = kind;
    txn->requester = n;
    txn->core = core;
    txn->issued = _queue.now();
    txn->retries = retries;
    if (_topo)
        txn->bridgeActions.resize(_topo->numBlocks());
    if (kind == SnoopKind::Write) {
        txn->writeNeedsData =
            !isValidState(_nodes[n]->coreState(local, line));
        txn->dataArrived = !txn->writeNeedsData;
    }

    const TransactionId id = txn->id;
    _transactions.put(id, txn);
    LineRecord *lr = &openLineRecord(line);
    openLine(n, line, lr).own = id;
    ++lr->liveRounds;
    txn->lineRecord = lr;

    if (_trace)
        _trace->record(TraceEvent::TxnStart, _queue.now(), id, line, core,
                       static_cast<std::uint16_t>(n),
                       kind == SnoopKind::Write ? 1 : 0,
                       static_cast<std::uint16_t>(retries));

    _queue.schedule(extra_delay, [this, id]() {
        if (Transaction *t = findTransaction(id))
            issueRingMessage(*t);
    });

    if (_params.watchdogCycles > 0)
        scheduleWatchdog(id);
}

void
CoherenceController::scheduleWatchdog(TransactionId id)
{
    _queue.schedule(_params.watchdogCycles,
                    [this, id]() { watchdogExpire(id); });
}

void
CoherenceController::watchdogExpire(TransactionId id)
{
    Transaction *txn = findTransaction(id);
    if (!txn)
        return; // completed (or reissued under a new id)
    if (txn->ringDone || txn->memoryPending) {
        // The ring round concluded; only the (never faulted) data
        // network or memory is outstanding. Keep watching.
        scheduleWatchdog(id);
        return;
    }

    // The ring traffic of this transaction was lost: reclaim its
    // gateway state everywhere, then recover.
    _c.watchdogTimeouts.inc();
    if (_trace)
        _trace->record(TraceEvent::WatchdogExpire, _queue.now(), id,
                       txn->line, 0,
                       static_cast<std::uint16_t>(txn->requester),
                       txn->kind == SnoopKind::Read && txn->dataArrived
                           ? 1
                           : 0);
    FS_LOG(Info, _queue.now(), "ctrl",
           "watchdog: txn " << id << " line 0x" << std::hex << txn->line
                            << std::dec << " ring traffic lost after "
                            << _params.watchdogCycles << " cycles; "
                            << (txn->kind == SnoopKind::Read &&
                                        txn->dataArrived
                                    ? "finishing"
                                    : "reissuing"));

    if (txn->kind == SnoopKind::Read && txn->dataArrived) {
        // The data already reached the core; only the conclusion
        // message was lost. Reissuing would double-complete the load,
        // so just close the record (finishAndErase sweeps the leftover
        // ring-side state). We cannot know whether a colliding write's
        // squash (which mandates invalidate-on-fill) was among the lost
        // traffic, so drop the cached copy as if it were -- the core
        // already consumed the data, only the L2 state goes.
        _nodes[txn->requester]->invalidateAll(txn->line);
        txn->ringDone = true;
        finishAndErase(id);
        return;
    }
    retryTransaction(*txn);
    finishAndErase(id);
}

void
CoherenceController::sweepTransactionState(TransactionId id, Addr line,
                                           LineRecord *hint)
{
    for (NodeId n = 0; n < _nodes.size(); ++n) {
        // A retire may drain a gate and recycle records, the line's
        // record included: check the hint again at every node.
        hint = findLineRecord(line, hint);
        if (!hint)
            return;
        if (GatewayLine *rec = hint->nodes[n])
            retire(n, rec, id);
    }
}

void
CoherenceController::issueRingMessage(Transaction &txn)
{
    if (txn.kind == SnoopKind::Read)
        _c.readRingRequests.inc();
    else
        _c.writeRingRequests.inc();

    SnoopMessage msg;
    msg.type = MsgType::CombinedRR;
    msg.kind = txn.kind;
    msg.txn = txn.id;
    msg.line = txn.line;
    msg.requester = txn.requester;
    msg.lineHint = txn.lineRecord;

    FS_LOG(Debug, _queue.now(), "ctrl",
           "issue " << (txn.kind == SnoopKind::Read ? "read" : "write")
                    << " txn " << txn.id << " line 0x" << std::hex
                    << txn.line << std::dec << " from node "
                    << txn.requester);

    if (_trace)
        _trace->record(TraceEvent::RingIssue, _queue.now(), txn.id,
                       txn.line, 0,
                       static_cast<std::uint16_t>(txn.requester));

    forwardMessage(txn.requester, msg);
}

// --------------------------------------------------------------------------
// Ring message handling
// --------------------------------------------------------------------------

void
CoherenceController::forwardMessage(NodeId node, const SnoopMessage &msg)
{
    _energy.record(EnergyEvent::RingLinkMessage);
    // A descending hop out of a block's last member physically wraps to
    // its head and then crosses one global-ring link (hier topology).
    if (_topo && _topo->linkCrossesBlock(node))
        _energy.record(EnergyEvent::GlobalRingLinkMessage);
    if (msg.kind == SnoopKind::Read)
        _c.readLinkMessages.inc();
    else
        _c.writeLinkMessages.inc();
    _ring.send(node, msg);
}

void
CoherenceController::onRingMessage(NodeId node, const SnoopMessage &msg)
{
    if (msg.requester == node) {
        if (Transaction *txn = findTransaction(msg.txn))
            handleAtRequester(*txn, msg);
        // else: late traffic of a finished/retried transaction; absorb.
        return;
    }
    handleIntermediate(node, msg);
}

void
CoherenceController::handleIntermediate(NodeId node, SnoopMessage msg,
                                        bool from_gate)
{
    if (_trace && from_gate)
        _trace->record(TraceEvent::GateResume, _queue.now(), msg.txn,
                       msg.line, 0, static_cast<std::uint16_t>(node));

    // Fault recovery: traffic of a transaction that no longer exists
    // (closed by its watchdog, or a duplicate of an already-concluded
    // round) must die here, or it would plant zombie pending/gate
    // state that wedges the line forever.
    if (hardened() && !findTransaction(msg.txn)) {
        _c.staleAbsorbed.inc();
        if (_trace)
            _trace->record(TraceEvent::StaleAbsorbed, _queue.now(),
                           msg.txn, msg.line, 0,
                           static_cast<std::uint16_t>(node));
        return;
    }

    // Home-node prefetch heuristic: a still-unanswered read passing its
    // home node may trigger a DRAM prefetch (paper §2.2).
    if (msg.kind == SnoopKind::Read && !msg.found && !msg.squashed &&
        msg.type != MsgType::SnoopReply &&
        _memory.homeNode(msg.line) == node)
        _memory.notifySnoopAtHome(msg.line, _queue.now());

    // The line's record serves every gateway decision below: the gate,
    // the collision check against this node's own transaction and the
    // pending snoop of msg's transaction all live in this node's entry.
    // The message's hint finds it without a lookup; refresh the hint
    // so the events this hop schedules carry the current record.
    LineRecord *lr = findLineRecord(msg.line, msg.lineHint);
    msg.lineHint = lr;
    GatewayLine *rec = lr ? lr->nodes[node] : nullptr;

    // Strict per-line FIFO at the gateway (any message type): nothing
    // may overtake a parked same-line message of another transaction.
    if (!from_gate && deferIfGated(node, rec, msg))
        return;

    // Bridge gateway (hier topology): a foreign block's head may skip
    // the message over the whole block via the global ring. The
    // requester's own block always runs the flat path, so the round
    // still terminates at the requester.
    if (_topo && _topo->isHead(node) &&
        !_topo->sameBlock(node, msg.requester) &&
        bridgeHandle(node, msg, lr))
        return;

    // Found or squashed messages travel the rest of the ring inert. A
    // passing found reply is also the "snoop reply" a ForwardThenSnoop
    // node downstream of the supplier was waiting for (Table 2): it
    // closes that node's pending state.
    if (msg.found || msg.squashed) {
        if (NodePending *p = rec ? rec->findPending(msg.txn) : nullptr) {
            if (p->snoopPending)
                p->abandoned = true;
            else
                retire(node, rec, msg.txn);
        }
        forwardMessage(node, msg);
        return;
    }

    // Trailing (negative) replies follow their own merge rules.
    if (msg.type == MsgType::SnoopReply) {
        handleTrailingReply(node, rec, msg);
        return;
    }

    // Active request or combined R/R.
    if (detectCollision(node, rec, msg)) {
        forwardMessage(node, msg); // now squashed; circulates back inert
        return;
    }

    // Choose the primitive.
    Primitive prim;
    Cycle decision_latency = 0;
    std::uint16_t pred_trace = 2; // 0/1 = predictor answer, 2 = none
    if (msg.kind == SnoopKind::Write) {
        // Write snoops cannot use supplier predictors (paper §5.3):
        // every node invalidates, eagerly or lazily per algorithm class
        // -- unless the optional presence predictor (the extension the
        // paper sketches) proves this CMP caches no copy at all.
        prim = _policy.decouplesWrites() ? Primitive::ForwardThenSnoop
                                         : Primitive::SnoopThenForward;
        if (PresencePredictor *presence =
                _nodes[node]->presencePredictor()) {
            decision_latency = presence->accessLatency();
            bool absent = !presence->mayBePresent(msg.line);
            if (_faults && _faults->flipPrediction()) {
                absent = !absent;
                if (_trace)
                    _trace->record(TraceEvent::PredictorFlip,
                                   _queue.now(), msg.txn, msg.line, 0,
                                   static_cast<std::uint16_t>(node), 1);
            }
            pred_trace = absent ? 0 : 1;
            if (absent) {
                if (_nodes[node]->hasAnyCopy(msg.line)) {
                    // The filter has no false negatives by
                    // construction; only an injected soft error gets
                    // here. Degrade to the safe (snooping) primitive
                    // instead of skipping live copies.
                    assert(_faults &&
                           "presence predictor false negative");
                    _c.flipDegrades.inc();
                } else {
                    prim = Primitive::Forward;
                }
            }
        }
    } else if (!_policy.usesPredictor()) {
        prim = _policy.onPrediction(false);
    } else {
        SupplierPredictor *pred = _nodes[node]->predictor();
        assert(pred && "policy requires a predictor");
        bool predicted = pred->predict(msg.line);
        if (_faults && _faults->flipPrediction()) {
            predicted = !predicted;
            if (_trace)
                _trace->record(TraceEvent::PredictorFlip, _queue.now(),
                               msg.txn, msg.line, 0,
                               static_cast<std::uint16_t>(node), 0);
        }
        pred_trace = predicted ? 1 : 0;
        const bool actual = _nodes[node]->hasSupplier(msg.line);
        pred->recordOutcome(predicted, actual);
        prim = _policy.onPrediction(predicted);
        decision_latency = pred->accessLatency();
        if (prim == Primitive::Forward && actual) {
            // A predictor with no false negatives must never filter
            // the supplier node (the correctness property of §4.3.4);
            // only an injected soft error can produce this. Model the
            // hardware's parity fallback: treat the answer as
            // untrusted and snoop before forwarding.
            assert(_faults &&
                   "false negative filtered the supplier: protocol "
                   "violation");
            prim = Primitive::SnoopThenForward;
            _c.flipDegrades.inc();
        }
    }

    if (_trace)
        _trace->record(TraceEvent::HopDecision, _queue.now(), msg.txn,
                       msg.line, decision_latency,
                       static_cast<std::uint16_t>(node),
                       static_cast<std::uint16_t>(prim), pred_trace);

    if (prim == Primitive::Forward) {
        (msg.kind == SnoopKind::Read ? _c.readFiltered
                                     : _c.writeFiltered)
            .inc();
        SnoopMessage out = msg;
        out.visits = msg.visits + 1;
        if (_faults && msg.type == MsgType::SnoopRequest) {
            // A trailing reply is following this request. Its visit
            // count only reflects nodes it merged at, so leave a marker
            // recording that the request did pass here; the reply picks
            // the count up in handleTrailingReply. Without the marker a
            // reply that outlived a dropped request is indistinguishable
            // from a complete round.
            NodePending &p = pending(openLine(node, msg.line, lr), msg.txn);
            p.prim = Primitive::Forward;
            p.snoopDone = true;
            p.waitingForReply = true;
            p.requestVisits = out.visits;
        }
        scheduleForward(decision_latency, node, out);
        return;
    }

    GatewayLine &held = openLine(node, msg.line, lr);
    NodePending &p = pending(held, msg.txn);
    p.prim = prim;
    p.receivedCombined = msg.type == MsgType::CombinedRR;
    p.snoopPending = true;

    if (prim == Primitive::SnoopThenForward) {
        // The message is held here until the snoop (and possibly the
        // trailing-reply fusion) completes: gate the line.
        acquireGate(held, msg.txn);
    }

    if (prim == Primitive::ForwardThenSnoop) {
        SnoopMessage req = msg;
        req.type = MsgType::SnoopRequest; // split: the request races ahead
        req.visits = msg.visits + 1; // our reply will carry the same count
        scheduleForward(decision_latency, node, req);
    }
    auto snooped = [this, node, msg]() { snoopComplete(node, msg); };
    static_assert(EventFn::fitsInline<decltype(snooped)>());
    _queue.schedule(decision_latency + _params.cmpSnoopTime,
                    std::move(snooped));
}

void
CoherenceController::scheduleForward(Cycle delay, NodeId node,
                                     const SnoopMessage &msg)
{
    auto forward = [this, node, msg]() { forwardMessage(node, msg); };
    static_assert(EventFn::fitsInline<decltype(forward)>());
    _queue.schedule(delay, std::move(forward));
}

// --------------------------------------------------------------------------
// Bridge gateways (hier topology, docs/TOPOLOGY.md)
// --------------------------------------------------------------------------

bool
CoherenceController::bridgeHandle(NodeId node, const SnoopMessage &msg,
                                  LineRecord *&lr)
{
    // Late traffic of a finished transaction (a trailing reply behind
    // the round's conclusion) finds no record and reads as "no
    // decision".
    Transaction *txn = findTransaction(msg.txn);
    std::uint8_t *decision =
        txn ? &txn->bridgeActions[_topo->blockOf(node)] : nullptr;

    // Every message after the first follows the recorded decision, so
    // one transaction sees a consistent ring geometry: a request that
    // descended must have its trailing reply (and the round's
    // conclusion) descend too, and vice versa.
    if (decision && *decision) {
        if (static_cast<BridgeAction>(*decision) == BridgeAction::Descend)
            return false;
        bridgeSkipForward(node, msg, lr, 0);
        return true;
    }

    // A negative trailing reply with no recorded decision: its request
    // never reached this bridge (dropped in fault mode). Descend
    // conservatively; the flat path forwards it member by member.
    if (msg.type == MsgType::SnoopReply && !msg.found && !msg.squashed)
        return false;

    if (msg.found || msg.squashed) {
        // Inert conclusion sweeping the remainder of the ring: flat
        // members neither snoop it nor count it, so nothing in this
        // block can change it -- skip without consulting the policy.
        if (decision)
            *decision = static_cast<std::uint8_t>(BridgeAction::Skip);
        _c.bridgeSkips.inc();
        bridgeSkipForward(node, msg, lr, 0);
        return true;
    }

    Cycle decision_latency = 0;
    std::uint16_t pred_trace = 2;
    const BridgeAction action =
        decideBridge(node, msg, lr, decision_latency, pred_trace);
    if (decision)
        *decision = static_cast<std::uint8_t>(action);
    if (_trace)
        _trace->record(TraceEvent::HopDecision, _queue.now(), msg.txn,
                       msg.line, decision_latency,
                       static_cast<std::uint16_t>(node),
                       static_cast<std::uint16_t>(
                           action == BridgeAction::Skip
                               ? Primitive::Forward
                               : Primitive::SnoopThenForward),
                       pred_trace);
    if (action == BridgeAction::Descend) {
        _c.bridgeDescends.inc();
        return false;
    }
    _c.bridgeSkips.inc();
    bridgeSkipForward(node, msg, lr, decision_latency);
    return true;
}

CoherenceController::BridgeAction
CoherenceController::decideBridge(NodeId node, const SnoopMessage &msg,
                                  const LineRecord *lr,
                                  Cycle &decision_latency,
                                  std::uint16_t &pred_trace)
{
    const std::size_t block = _topo->blockOf(node);

    // A member with a conflicting outstanding transaction must see this
    // message: the flat collision rules (who squashes whom) only run
    // when the message reaches that member.
    if (blockConflicts(block, msg, lr))
        return BridgeAction::Descend;

    // A skip must not let this round overtake another live round on the
    // same line: the flat ring's per-line message order is what makes a
    // write sweep every copy that existed when its request passed, and
    // what routes later same-line rounds into a collision at the
    // earlier requester's node. While any other round on the line is
    // in flight anywhere, descend and run the flat path -- a skip here
    // could hop past that round's request on the global ring and, e.g.,
    // reach a supplier the write has not invalidated yet.
    if (lr && lr->liveRounds > 1)
        return BridgeAction::Descend;

    if (msg.kind == SnoopKind::Write) {
        // Writes skip only when the block-level presence aggregate
        // proves no member caches a copy (mirrors the flat presence
        // filter, which applies under every algorithm).
        PresencePredictor *agg =
            _bridgePresence ? (*_bridgePresence)[block].get() : nullptr;
        if (!agg)
            return BridgeAction::Descend;
        decision_latency = agg->accessLatency();
        bool absent = !agg->mayBePresent(msg.line);
        if (_faults && _faults->flipPrediction()) {
            absent = !absent;
            if (_trace)
                _trace->record(TraceEvent::PredictorFlip, _queue.now(),
                               msg.txn, msg.line, 0,
                               static_cast<std::uint16_t>(node), 1);
        }
        pred_trace = absent ? 0 : 1;
        if (!absent)
            return BridgeAction::Descend;
        if (blockHasAnyCopy(block, msg.line)) {
            // The counting Bloom has no false negatives; only an
            // injected soft error gets here. Degrade to the safe
            // action instead of skipping live copies.
            assert(_faults && "bridge presence aggregate false negative");
            _c.flipDegrades.inc();
            return BridgeAction::Descend;
        }
        return BridgeAction::Skip;
    }

    // Reads skip only when the per-level action table maps a negative
    // aggregate answer to Forward (Oracle, the Supersets, Exact,
    // Adaptive). Lazy, Eager and Subset re-snoop negatives, so their
    // bridges always descend.
    if (!_globalPolicy ||
        _globalPolicy->onPrediction(false) != Primitive::Forward ||
        !_globalPolicy->usesPredictor())
        return BridgeAction::Descend;

    bool positive;
    // True while `positive` is the members' actual supplier state, so a
    // negative answer needs no second scan to confirm it.
    bool authoritative = false;
    const PredictorKind kind = _globalPolicy->predictorKind();
    if (kind == PredictorKind::Perfect || kind == PredictorKind::Exact) {
        // Oracle knows, and Exact maintains exact per-node supplier
        // sets -- the block aggregate is authoritative either way.
        positive = blockHasSupplier(block, msg.line);
        authoritative = true;
    } else {
        PresencePredictor *agg =
            _bridgeSupplier ? (*_bridgeSupplier)[block].get() : nullptr;
        if (!agg)
            return BridgeAction::Descend;
        decision_latency = agg->accessLatency();
        positive = agg->mayBePresent(msg.line);
    }
    if (_faults && _faults->flipPrediction()) {
        positive = !positive;
        authoritative = false;
        if (_trace)
            _trace->record(TraceEvent::PredictorFlip, _queue.now(),
                           msg.txn, msg.line, 0,
                           static_cast<std::uint16_t>(node), 0);
    }
    pred_trace = positive ? 1 : 0;
    if (positive)
        return BridgeAction::Descend;
    if (!authoritative && blockHasSupplier(block, msg.line)) {
        // FP-only aggregates cannot miss a supplier; injected soft
        // errors degrade to the safe action (paper §4.3.4 at the
        // block level).
        assert(_faults && "bridge supplier aggregate false negative");
        _c.flipDegrades.inc();
        return BridgeAction::Descend;
    }
    return BridgeAction::Skip;
}

void
CoherenceController::bridgeSkipForward(NodeId node, const SnoopMessage &msg,
                                       LineRecord *&lr,
                                       Cycle decision_latency)
{
    SnoopMessage out = msg;
    GatewayLine *rec = lr ? lr->nodes[node] : nullptr;
    NodePending *p = rec ? rec->findPending(msg.txn) : nullptr;
    if (msg.found || msg.squashed) {
        // Inert skip: flat members leave visit counts untouched for
        // inert traffic; close any marker this bridge still holds.
        if (p)
            retire(node, rec, msg.txn);
    } else if (msg.type == MsgType::SnoopReply) {
        // Negative trailing reply: pick up the visit count the skipped
        // request recorded here (fault mode), like at a flat Forward
        // marker node.
        if (p) {
            if (p->waitingForReply)
                out.visits = p->requestVisits;
            dropPending(node, rec, msg.txn);
        }
    } else {
        // Active request: the skip covers this head and its members.
        out.visits = msg.visits + _topo->blockSize();
        (msg.kind == SnoopKind::Read ? _c.readFiltered : _c.writeFiltered)
            .inc(_topo->blockSize());
        if (_faults && msg.type == MsgType::SnoopRequest) {
            // Same marker a flat Forward node leaves: the trailing
            // reply picks the authoritative visit count up here.
            NodePending &marker =
                pending(openLine(node, msg.line, lr), msg.txn);
            marker.prim = Primitive::Forward;
            marker.snoopDone = true;
            marker.waitingForReply = true;
            marker.requestVisits = out.visits;
        }
    }
    sendSkipAccounted(node, out, decision_latency);
}

void
CoherenceController::sendSkipAccounted(NodeId node, const SnoopMessage &msg,
                                       Cycle decision_latency)
{
    // One message on one (global) link -- the whole point: a flat round
    // would have paid blockSize() link messages and snoop decisions.
    _energy.record(EnergyEvent::GlobalRingLinkMessage);
    if (msg.kind == SnoopKind::Read)
        _c.readLinkMessages.inc();
    else
        _c.writeLinkMessages.inc();
    if (decision_latency == 0) {
        _ring.sendSkip(node, msg);
        return;
    }
    auto skip = [this, node, msg]() { _ring.sendSkip(node, msg); };
    static_assert(EventFn::fitsInline<decltype(skip)>());
    _queue.schedule(decision_latency, std::move(skip));
}

bool
CoherenceController::blockConflicts(std::size_t block,
                                    const SnoopMessage &msg,
                                    const LineRecord *lr)
{
    if (!lr)
        return false;
    const NodeId begin = _topo->headOf(block);
    const NodeId end = begin + static_cast<NodeId>(_topo->blockSize());
    for (NodeId n = begin; n < end; ++n) {
        const GatewayLine *rec = lr->nodes[n];
        if (!rec || rec->own == kInvalidTransaction)
            continue;
        Transaction *t = findTransaction(rec->own);
        if (!t || t->squashed)
            continue;
        if (msg.kind == SnoopKind::Read && t->kind == SnoopKind::Read)
            continue; // concurrent reads never conflict
        return true;
    }
    return false;
}

bool
CoherenceController::blockHasSupplier(std::size_t block, Addr line) const
{
    const NodeId begin = _topo->headOf(block);
    const NodeId end = begin + static_cast<NodeId>(_topo->blockSize());
    for (NodeId n = begin; n < end; ++n) {
        if (_nodes[n]->hasSupplier(line))
            return true;
    }
    return false;
}

bool
CoherenceController::blockHasAnyCopy(std::size_t block, Addr line) const
{
    const NodeId begin = _topo->headOf(block);
    const NodeId end = begin + static_cast<NodeId>(_topo->blockSize());
    for (NodeId n = begin; n < end; ++n) {
        if (_nodes[n]->hasAnyCopy(line))
            return true;
    }
    return false;
}

bool
CoherenceController::detectCollision(NodeId node, const GatewayLine *rec,
                                     SnoopMessage &msg)
{
    if (!rec || rec->own == kInvalidTransaction)
        return false;
    Transaction *t = findTransaction(rec->own);
    if (!t || t->squashed)
        return false;
    if (msg.kind == SnoopKind::Read && t->kind == SnoopKind::Read)
        return false; // concurrent reads never conflict

    _c.collisions.inc();
    const auto traceCollision = [&](CollisionOutcome outcome) {
        if (_trace)
            _trace->record(TraceEvent::Collision, _queue.now(), msg.txn,
                           msg.line, t->id,
                           static_cast<std::uint16_t>(node),
                           static_cast<std::uint16_t>(outcome));
    };

    if (msg.kind == SnoopKind::Read) {
        // Passing read vs. our write: the read retries after the write.
        msg.squashed = true;
        _c.squashes.inc();
        traceCollision(CollisionOutcome::PassingSquashed);
        return true;
    }

    // Passing write vs. our read: if our read's data is already on its
    // way (supplied or memory-bound), it serializes before the write and
    // the filled copy is invalidated right after delivery; otherwise the
    // read is squashed and retried after the write.
    if (t->kind == SnoopKind::Read) {
        if (t->dataArrived || t->ringDone || t->memoryPending ||
            t->invalidateOnFill) {
            t->invalidateOnFill = true;
            traceCollision(CollisionOutcome::InvalidateOnFill);
        } else {
            t->squashed = true;
            _c.squashes.inc();
            traceCollision(CollisionOutcome::LocalSquashed);
        }
        return false;
    }

    // Write vs. write: the older transaction wins.
    if (t->id < msg.txn) {
        msg.squashed = true;
        _c.squashes.inc();
        traceCollision(CollisionOutcome::PassingSquashed);
        return true;
    }
    t->squashed = true;
    _c.squashes.inc();
    traceCollision(CollisionOutcome::LocalSquashed);
    return false;
}

bool
CoherenceController::ringSnoopRead(NodeId node, Addr line)
{
    _c.readSnoops.inc();
    _energy.record(EnergyEvent::CmpSnoop);
    return _nodes[node]->hasSupplier(line);
}

bool
CoherenceController::ringSnoopWrite(NodeId node, const SnoopMessage &msg)
{
    _c.writeSnoops.inc();
    _energy.record(EnergyEvent::CmpSnoop);
    FS_LOG(Debug, _queue.now(), "ctrl",
           "write snoop txn " << msg.txn << " line 0x" << std::hex
                              << msg.line << std::dec << " at node "
                              << node);
    return _nodes[node]->invalidateAll(msg.line);
}

void
CoherenceController::snoopComplete(NodeId node, SnoopMessage msg)
{
    LineRecord *lr = findLineRecord(msg.line, msg.lineHint);
    GatewayLine *rec = lr ? lr->nodes[node] : nullptr;
    NodePending *pp = rec ? rec->findPending(msg.txn) : nullptr;
    if (!pp) {
        // Only reachable when a watchdog closed this transaction and
        // swept its pending state while the CMP snoop was in flight.
        assert(hardened() && "snoop completed with no pending state");
        _c.staleAbsorbed.inc();
        if (_trace)
            _trace->record(TraceEvent::StaleAbsorbed, _queue.now(),
                           msg.txn, msg.line, 0,
                           static_cast<std::uint16_t>(node));
        return;
    }
    NodePending &p = *pp;
    p.snoopPending = false;
    p.snoopDone = true;

    if (p.abandoned) {
        // The requester was already served (a found or squashed message
        // passed us mid-snoop). The snoop itself still happened: count
        // it, then retire quietly.
        bool found;
        if (msg.kind == SnoopKind::Read)
            found = ringSnoopRead(node, msg.line);
        else
            found = ringSnoopWrite(node, msg);
        if (_trace)
            _trace->record(TraceEvent::SnoopDone, _queue.now(), msg.txn,
                           msg.line, 0, static_cast<std::uint16_t>(node),
                           found ? 1 : 0, 1);
        retire(node, rec, msg.txn);
        return;
    }

    if (msg.kind == SnoopKind::Read) {
        const bool found = ringSnoopRead(node, msg.line);
        if (_trace)
            _trace->record(TraceEvent::SnoopDone, _queue.now(), msg.txn,
                           msg.line, 0, static_cast<std::uint16_t>(node),
                           found ? 1 : 0);
        if (found) {
            _nodes[node]->supplyRemote(msg.line);
            supplierHit(node, msg, rec, p);
            return;
        }
        if (_policy.usesPredictor()) {
            // The snoop ran after a positive prediction for the
            // positive-snooping policies; train the Exclude cache on the
            // contradiction. (Subset's negative-prediction snoops pass a
            // line that falsePositive() ignores for non-Superset types.)
            if (_policy.onPrediction(true) == p.prim)
                _nodes[node]->predictor()->falsePositive(msg.line);
        }
    } else {
        const bool supplied = ringSnoopWrite(node, msg);
        if (_trace)
            _trace->record(TraceEvent::SnoopDone, _queue.now(), msg.txn,
                           msg.line, 0, static_cast<std::uint16_t>(node),
                           supplied ? 1 : 0);
        if (supplied) {
            // A supplier copy was invalidated: its data travels to the
            // writer over the data network.
            Transaction *t = findTransaction(msg.txn);
            if (t && !t->writeDataSupplied) {
                t->writeDataSupplied = true;
                const Cycle lat = _data.transfer(node, msg.requester);
                const TransactionId id = msg.txn;
                const Addr line = msg.line;
                _queue.schedule(lat, [this, id, line]() {
                    Transaction *txn = findTransaction(id);
                    if (!txn || txn->squashed) {
                        // The only dirty copy is in flight and its
                        // transaction died: preserve it in memory.
                        _memory.writeback(line);
                        return;
                    }
                    txn->dataArrived = true;
                    if (txn->ringDone)
                        completeWrite(*txn);
                });
            }
        }
    }

    // Negative outcome (or a write, which always continues): merge and
    // forward per Table 2.
    if (p.receivedCombined) {
        // All upstream outcomes were already merged into the message we
        // received; emit our own message directly.
        SnoopMessage out = msg;
        out.acksCollected = msg.acksCollected + 1;
        out.visits = msg.visits + 1;
        out.type = p.prim == Primitive::ForwardThenSnoop
                       ? MsgType::SnoopReply // the request went ahead
                       : MsgType::CombinedRR;
        forwardMessage(node, out);
        retire(node, rec, msg.txn);
        return;
    }

    // We received a plain request: a trailing reply exists upstream.
    if (p.bufferedReply) {
        SnoopMessage out = *p.bufferedReply;
        out.acksCollected += 1;
        // msg is the held *request*: its count is the authoritative ring
        // coverage (the buffered reply's stopped at its last merge).
        out.visits = msg.visits + 1;
        out.type = p.prim == Primitive::SnoopThenForward
                       ? MsgType::CombinedRR
                       : MsgType::SnoopReply;
        forwardMessage(node, out);
        retire(node, rec, msg.txn);
        return;
    }
    p.requestVisits = msg.visits + 1;
    p.waitingForReply = true;
}

void
CoherenceController::supplierHit(NodeId node, SnoopMessage msg,
                                 GatewayLine *rec, NodePending &p)
{
    p.snoopFound = true;
    p.sentOwn = true;

    _c.readCacheSupplies.inc();
    FS_LOG(Debug, _queue.now(), "ctrl",
           "supplier hit txn " << msg.txn << " line 0x" << std::hex
                               << msg.line << std::dec << " at node "
                               << node);

    // Send the found notification around the remainder of the ring. A
    // node that already forwarded the request (ForwardThenSnoop) owes a
    // trailing reply; a SnoopThenForward node emits a combined R/R.
    SnoopMessage out = msg;
    out.found = true;
    out.supplier = node;
    out.acksCollected = msg.acksCollected + 1;
    out.visits = msg.visits + 1;
    out.type = p.prim == Primitive::ForwardThenSnoop ? MsgType::SnoopReply
                                                     : MsgType::CombinedRR;
    forwardMessage(node, out);

    // Ship the line to the requester over the data network.
    const Cycle lat = _data.transfer(node, msg.requester);
    if (_trace)
        _trace->record(TraceEvent::SupplierHit, _queue.now(), msg.txn,
                       msg.line, lat, static_cast<std::uint16_t>(node));
    const TransactionId id = msg.txn;
    _queue.schedule(lat, [this, id]() {
        if (Transaction *txn = findTransaction(id)) {
            if (txn->squashed)
                return; // the supplier kept its copy; retry refetches
            if (txn->dataArrived)
                return; // duplicated request hit a second supplier
            txn->dataArrived = true;
            deliverReadData(*txn, false);
        }
    });

    // If a trailing reply can still arrive (we received a plain request
    // and have not buffered it yet), keep the pending entry to discard
    // it; otherwise we are done here.
    if (p.receivedCombined || p.bufferedReply)
        retire(node, rec, msg.txn);
    else
        releaseGate(node, rec, msg.txn);
}

void
CoherenceController::handleTrailingReply(NodeId node, GatewayLine *rec,
                                         const SnoopMessage &msg)
{
    NodePending *p = rec ? rec->findPending(msg.txn) : nullptr;
    if (!p) {
        // Forward node, or a node that already finished its part.
        forwardMessage(node, msg);
        return;
    }
    if (p->sentOwn) {
        // We found the line and already replied; the trailing reply
        // carries no new information (paper Table 2): discard it.
        dropPending(node, rec, msg.txn);
        return;
    }
    if (p->snoopPending) {
        if (!p->bufferedReply)
            p->bufferedReply = _msgPool.acquire();
        *p->bufferedReply = msg;
        return;
    }
    if (p->waitingForReply) {
        SnoopMessage out = msg;
        // A Forward marker (fault mode) passed the request on without
        // snooping: it contributes coverage, not an ack.
        if (p->prim != Primitive::Forward)
            out.acksCollected += 1;
        out.visits = p->requestVisits;
        out.type = p->prim == Primitive::SnoopThenForward
                       ? MsgType::CombinedRR
                       : MsgType::SnoopReply;
        forwardMessage(node, out);
        retire(node, rec, msg.txn);
        return;
    }
    // Unreachable in a correct protocol; keep traffic flowing.
    forwardMessage(node, msg);
    retire(node, rec, msg.txn);
}

// --------------------------------------------------------------------------
// Requester side: returns, memory fallback, completion
// --------------------------------------------------------------------------

void
CoherenceController::handleAtRequester(Transaction &txn,
                                       const SnoopMessage &msg)
{
    if (msg.squashed || txn.squashed) {
        if (txn.kind == SnoopKind::Read && txn.dataArrived) {
            // The request kept moving past the supplier and was
            // squashed by a colliding write after the data was already
            // delivered to the core. The load cannot be undone, but the
            // copy must not outlive the write's invalidation round
            // (which may already have passed this node): drop it, as in
            // the invalidate-on-fill case. The found reply still
            // circulating closes the transaction.
            _c.staleSquashes.inc();
            _nodes[txn.requester]->invalidateAll(txn.line);
            return;
        }
        txn.squashed = true;
        retryTransaction(txn);
        finishAndErase(txn.id);
        return;
    }

    // Fault recovery: a duplicated conclusion for a round that already
    // ended -- every effect below was applied when the first copy
    // arrived. (Squashes are handled above even when duplicated: a
    // squash racing a found reply must still invalidate/retry.)
    if (hardened() && txn.ringDone) {
        _c.staleAbsorbed.inc();
        if (_trace)
            _trace->record(TraceEvent::StaleAbsorbed, _queue.now(),
                           txn.id, txn.line, 0,
                           static_cast<std::uint16_t>(txn.requester));
        return;
    }

    if (msg.found) {
        txn.ringDone = true;
        _c.ringRoundsFound.inc();
        if (_trace)
            _trace->record(TraceEvent::RingDone, _queue.now(), txn.id,
                           txn.line, msg.supplier,
                           static_cast<std::uint16_t>(txn.requester), 1);
        if (txn.kind == SnoopKind::Write) {
            if (txn.dataArrived)
                completeWrite(txn);
        } else if (txn.dataArrived) {
            finishAndErase(txn.id); // data was delivered before the ring
        }
        return;
    }

    if (msg.type == MsgType::SnoopRequest) {
        // Our own request came back negative; the trailing reply (or a
        // found reply racing behind it) concludes the round.
        return;
    }

    if (_faults && msg.visits != numNodes() - 1) {
        // Part of the ring never processed the request (it was dropped,
        // or a delayed copy was overtaken by its own trailing reply).
        // Acting on this conclusion would skip live copies -- for a
        // read, fetch a second supplier from memory; for a write, leave
        // stale copies uninvalidated. Absorb it; the watchdog reissues.
        _c.incompleteRejected.inc();
        if (_trace)
            _trace->record(TraceEvent::IncompleteRejected, _queue.now(),
                           txn.id, txn.line, 0,
                           static_cast<std::uint16_t>(txn.requester),
                           static_cast<std::uint16_t>(msg.visits),
                           static_cast<std::uint16_t>(numNodes() - 1));
        FS_LOG(Debug, _queue.now(), "ctrl",
               "reject incomplete conclusion txn "
                   << txn.id << " line 0x" << std::hex << txn.line
                   << std::dec << " (visits " << msg.visits << "/"
                   << numNodes() - 1 << ")");
        return;
    }

    // Negative conclusion: no supplier anywhere on the ring.
    txn.ringDone = true;
    _c.ringRoundsNegative.inc();
    if (_trace)
        _trace->record(TraceEvent::RingDone, _queue.now(), txn.id,
                       txn.line, 0,
                       static_cast<std::uint16_t>(txn.requester), 0);
    if (txn.kind == SnoopKind::Read) {
        // Fault recovery: a supplier's data already completed this load,
        // so this conclusion is stale -- e.g. a trailing reply that
        // overtook its delayed request and passed the supplier before
        // the request did. Fetching from memory would complete the load
        // a second time; close the round instead.
        if (txn.dataArrived)
            finishAndErase(txn.id);
        else
            goToMemory(txn);
    } else {
        if (txn.writeNeedsData && !txn.writeDataSupplied)
            goToMemory(txn);
        else if (txn.dataArrived)
            completeWrite(txn);
        // else: supplied data still in flight; its arrival completes.
    }
}

void
CoherenceController::goToMemory(Transaction &txn)
{
    txn.memoryPending = true;
    _c.memoryFetches.inc();
    FS_LOG(Debug, _queue.now(), "ctrl",
           "memory fetch txn " << txn.id << " line 0x" << std::hex
                               << txn.line << std::dec);
    const Cycle lat =
        _memory.readLatency(txn.line, txn.requester, _queue.now());
    if (_trace)
        _trace->record(TraceEvent::MemFetch, _queue.now(), txn.id,
                       txn.line, lat,
                       static_cast<std::uint16_t>(txn.requester));
    // Exact-algorithm energy attribution: a memory read that only exists
    // because the predictor downgraded the supplier copy (paper §6.1.4).
    if (_census.consumeDowngradeMark(txn.line))
        _energy.record(EnergyEvent::DowngradeReRead);
    const TransactionId id = txn.id;
    _queue.schedule(lat, [this, id]() {
        if (Transaction *t = findTransaction(id)) {
            if (t->squashed) {
                // Squashed while waiting on memory (an older write won a
                // collision after our ring round ended): the fetched
                // data is dropped and the whole transaction reissues,
                // serializing after the winner.
                retryTransaction(*t);
                finishAndErase(id);
                return;
            }
            t->dataArrived = true;
            t->memoryPending = false;
            if (_trace)
                _trace->record(TraceEvent::MemData, _queue.now(), id,
                               t->line, 0,
                               static_cast<std::uint16_t>(t->requester));
            if (t->kind == SnoopKind::Read)
                deliverReadData(*t, true);
            else
                completeWrite(*t);
        }
    });
}

void
CoherenceController::deliverReadData(Transaction &txn, bool from_memory)
{
    assert(txn.kind == SnoopKind::Read);
    const NodeId n = txn.requester;
    const std::size_t local = localOf(txn.core);
    CmpNode &node = *_nodes[n];
    const Addr line = txn.line;

    if (from_memory) {
        // Two CMPs may race to memory for the same line (read-read does
        // not collide). Only one of them may assume the Global Master
        // role; the home memory controller serializes, so the fill that
        // settles second takes a non-supplier state.
        if (_census.hasSupplier(line))
            node.fillFromRemote(local, line);
        else
            node.fillFromMemory(local, line);
        _c.readMemorySupplies.inc();
    } else {
        node.fillFromRemote(local, line);
    }

    const Cycle lat_cycles = _queue.now() - txn.issued;
    const auto latency = static_cast<double>(lat_cycles);
    _c.readLatency.sample(latency);
    _c.readLatencyHist.sample(latency);
    if (_trace)
        _trace->record(TraceEvent::DataDelivered, _queue.now(), txn.id,
                       line, lat_cycles, static_cast<std::uint16_t>(n),
                       from_memory ? 1 : 0);
    complete(txn.core, line, false, 0);
    for (CoreId w : txn.waiters) {
        const std::size_t wl = localOf(w);
        if (!isValidState(node.coreState(wl, line)) &&
            node.hasLocalSupplier(line))
            node.localSupply(wl, line);
        complete(w, line, false, _params.waiterBusDelay);
    }
    txn.waiters.clear();

    if (txn.invalidateOnFill) {
        // A write serialized right behind this read: the data reaches
        // the core(s) but the copies do not persist.
        node.invalidateAll(line);
        _c.invalidateOnFill.inc();
    }

    if (txn.ringDone)
        finishAndErase(txn.id);
    // else: the found message is still circulating; its absorption at
    // the requester finishes the record.
}

void
CoherenceController::completeWrite(Transaction &txn)
{
    assert(txn.kind == SnoopKind::Write);
    const NodeId n = txn.requester;
    const std::size_t local = localOf(txn.core);
    CmpNode &node = *_nodes[n];
    const Addr line = txn.line;

    // Copies that snuck into other local L2s while the (possibly
    // retried) invalidation round was in flight must go before ownership
    // is installed.
    node.invalidateAll(line, local);
    if (isValidState(node.coreState(local, line)))
        node.upgradeToDirty(local, line);
    else
        node.fillForWrite(local, line);

    _c.writeLatency.sample(
        static_cast<double>(_queue.now() - txn.issued));
    if (_trace)
        _trace->record(TraceEvent::WriteComplete, _queue.now(), txn.id,
                       line, _queue.now() - txn.issued,
                       static_cast<std::uint16_t>(n));
    complete(txn.core, line, true, 0);
    finishAndErase(txn.id);
}

void
CoherenceController::finishAndErase(TransactionId id)
{
    Transaction **slot = _transactions.find(id);
    if (!slot)
        return;
    Transaction *txn = *slot;
    const Addr line = txn->line;
    if (_trace)
        _trace->record(TraceEvent::TxnRetire, _queue.now(), id, line, 0,
                       static_cast<std::uint16_t>(txn->requester));
    // The own entry keeps the line's record in use until here.
    LineRecord *lr = txn->lineRecord;
    GatewayLine *own = lr->nodes[txn->requester];
    assert(lr->line == line && lr->liveRounds > 0 && own &&
           own->own == id);
    --lr->liveRounds;
    own->own = kInvalidTransaction;
    recycleIfIdle(txn->requester, own);
    _transactions.erase(id);
    _txnPool.release(txn);
    // Fault recovery: traffic of this transaction may still be stuck in
    // pending entries or line gates (its messages were dropped, or the
    // watchdog closed it early). Reclaim them so the line cannot wedge;
    // drained stale messages are absorbed on re-entry.
    if (hardened())
        sweepTransactionState(id, line, lr);
}

void
CoherenceController::retryTransaction(const Transaction &txn)
{
    if (txn.retries >= _params.maxRetries) {
        _c.retryStormAborts.inc();
        std::ostringstream os;
        os << "retry storm: core " << txn.core << " exceeded "
           << _params.maxRetries << " reissues of "
           << (txn.kind == SnoopKind::Read ? "read" : "write")
           << " to contended line 0x" << std::hex << txn.line << std::dec
           << " at cycle " << _queue.now() << "\n";
        dumpOutstanding(os);
        throw RetryStormError(txn.line, txn.retries, os.str());
    }
    _c.retries.inc();
    if (_trace)
        _trace->record(TraceEvent::RetryScheduled, _queue.now(), txn.id,
                       txn.line,
                       retryBackoffCycles(_params, txn.retries + 1),
                       static_cast<std::uint16_t>(txn.requester),
                       static_cast<std::uint16_t>(txn.retries + 1));
    const CoreId core = txn.core;
    const Addr line = txn.line;
    const SnoopKind kind = txn.kind;
    const unsigned retries = txn.retries + 1;
    const auto waiters = txn.waiters;
    scheduleRetry(core, line, kind, retries, waiters);
}

void
CoherenceController::scheduleRetry(CoreId core, Addr line, SnoopKind kind,
                                   unsigned retries,
                                   std::vector<CoreId> waiters)
{
    // Exponential backoff keeps retry storms on heavily-contended lines
    // from compounding.
    const Cycle backoff = retryBackoffCycles(_params, retries);
    _queue.schedule(backoff, [this, core, line, kind, retries,
                              waiters]() {
        // Re-enter through the full request path: the world may have
        // changed during the backoff -- the line can now be a local L2
        // hit or locally suppliable (the ring never snoops the
        // requester's own CMP, so going straight back to the ring would
        // fetch stale data from memory), or another local transaction
        // may be mergeable. Former waiters re-issue individually and
        // merge/hit as appropriate.
        if (kind == SnoopKind::Read) {
            coreRead(core, line, retries);
            for (CoreId w : waiters)
                coreRead(w, line);
        } else {
            coreWrite(core, line, retries);
        }
    });
}

void
CoherenceController::dumpOutstanding(std::ostream &os) const
{
    _transactions.forEach([&os](TransactionId id, Transaction *txn) {
        os << "txn " << id << " line 0x" << std::hex << txn->line
           << std::dec << " kind "
           << (txn->kind == SnoopKind::Read ? "R" : "W") << " node "
           << txn->requester << " core " << txn->core << " dataArrived "
           << txn->dataArrived << " ringDone " << txn->ringDone
           << " squashed " << txn->squashed << " memPending "
           << txn->memoryPending << " needsData " << txn->writeNeedsData
           << " supplied " << txn->writeDataSupplied << " waiters "
           << txn->waiters.size() << '\n';
    });
    // Gateway records in (node, line) order, so two dumps of the same
    // stuck state diff cleanly whatever the line table's slot order.
    struct NodeLine
    {
        NodeId node;
        Addr line;
        const GatewayLine *rec;
    };
    std::vector<NodeLine> recs;
    _lineTable.forEach([&recs](Addr line, const LineRecord *lr) {
        for (NodeId n = 0; n < lr->nodes.size(); ++n) {
            if (lr->nodes[n])
                recs.push_back({n, line, lr->nodes[n]});
        }
    });
    std::sort(recs.begin(), recs.end(),
              [](const NodeLine &a, const NodeLine &b) {
                  return a.node != b.node ? a.node < b.node
                                          : a.line < b.line;
              });
    for (const NodeLine &r : recs) {
        for (const NodePending &p : r.rec->pending) {
            os << "pending node " << r.node << " txn " << p.txn << " prim "
               << toString(p.prim) << " combined " << p.receivedCombined
               << " snoopPending " << p.snoopPending << " done "
               << p.snoopDone << " found " << p.snoopFound << " sentOwn "
               << p.sentOwn << " buffered " << (p.bufferedReply != nullptr)
               << " waiting " << p.waitingForReply << '\n';
        }
    }
    for (const NodeLine &r : recs) {
        if (!r.rec->gateOpen)
            continue;
        os << "gate node " << r.node << " line 0x" << std::hex << r.line
           << std::dec << " active " << r.rec->holder << " deferred "
           << r.rec->deferred.size() << '\n';
    }
    // Bridge decisions in (block, txn) order, for the same reason.
    struct BlockDecision
    {
        std::size_t block;
        TransactionId txn;
        BridgeAction action;
    };
    std::vector<BlockDecision> decisions;
    _transactions.forEach([&decisions](TransactionId id, Transaction *txn) {
        for (std::size_t b = 0; b < txn->bridgeActions.size(); ++b) {
            if (const std::uint8_t a = txn->bridgeActions[b])
                decisions.push_back({b, id, static_cast<BridgeAction>(a)});
        }
    });
    std::sort(decisions.begin(), decisions.end(),
              [](const BlockDecision &a, const BlockDecision &b) {
                  return a.block != b.block ? a.block < b.block
                                            : a.txn < b.txn;
              });
    for (const BlockDecision &d : decisions) {
        os << "bridge block " << d.block << " txn " << d.txn << " action "
           << (d.action == BridgeAction::Skip ? "skip" : "descend") << '\n';
    }
}

} // namespace flexsnoop
