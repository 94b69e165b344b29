/**
 * @file
 * Bookkeeping for in-flight coherence transactions.
 */

#ifndef FLEXSNOOP_COHERENCE_TRANSACTION_HH
#define FLEXSNOOP_COHERENCE_TRANSACTION_HH

#include <cstdint>
#include <vector>

#include "net/message.hh"
#include "sim/types.hh"
#include "snoop/primitives.hh"

namespace flexsnoop
{

/**
 * Requester-side record of one outstanding transaction.
 */
struct Transaction
{
    TransactionId id = kInvalidTransaction;
    Addr line = kInvalidAddr;
    SnoopKind kind = SnoopKind::Read;
    NodeId requester = kInvalidNode;
    CoreId core = kInvalidCore; ///< machine-wide id of the issuing core
    Cycle issued = 0;

    /** The line's gateway record. Valid while the transaction is
     *  live: the requester's `own` entry keeps the record in use. */
    LineRecord *lineRecord = nullptr;

    /** Same-CMP cores whose identical read merged onto this txn. */
    std::vector<CoreId> waiters;

    bool dataArrived = false; ///< line (or ownership) available
    bool ringDone = false;    ///< final ring message returned
    bool memoryPending = false;

    /** This txn lost a collision; retry when its ring traffic returns. */
    bool squashed = false;
    unsigned retries = 0;

    /** Write only: the writer had no valid copy and needs the data. */
    bool writeNeedsData = false;
    /** Write only: a remote supplier is sending the data. */
    bool writeDataSupplied = false;

    /**
     * Read only: a write serialized immediately behind this read; the
     * filled copy must be invalidated right after delivery.
     */
    bool invalidateOnFill = false;

    /**
     * Hier topology: per block, the BridgeAction its bridge recorded
     * for this transaction (0 = none yet). Every later message of the
     * transaction follows the first decision, so a round's request,
     * trailing reply and conclusion see one ring geometry. Sized to
     * the block count at issue; empty on a flat ring.
     */
    std::vector<std::uint8_t> bridgeActions;

    bool
    complete() const
    {
        return dataArrived && ringDone;
    }

    /**
     * Re-initialize a recycled pool slot. Field assignments instead of
     * `*this = Transaction{}` so `waiters` and `bridgeActions` keep
     * their grown capacity — the reason pooled transactions stop
     * allocating in steady state.
     */
    void
    reset()
    {
        id = kInvalidTransaction;
        line = kInvalidAddr;
        kind = SnoopKind::Read;
        requester = kInvalidNode;
        core = kInvalidCore;
        issued = 0;
        lineRecord = nullptr;
        waiters.clear();
        dataArrived = false;
        ringDone = false;
        memoryPending = false;
        squashed = false;
        retries = 0;
        writeNeedsData = false;
        writeDataSupplied = false;
        invalidateOnFill = false;
        bridgeActions.clear();
    }
};

/**
 * Intermediate-node state for one transaction passing through a gateway
 * (the "pending snoop" of paper Table 2).
 */
struct NodePending
{
    TransactionId txn = kInvalidTransaction;
    /** Primitive this node chose for the transaction. */
    Primitive prim = Primitive::Forward;
    bool receivedCombined = false; ///< first message arrived as R/R
    bool snoopPending = false;
    bool snoopDone = false;
    bool snoopFound = false;
    bool sentOwn = false;         ///< node emitted its reply / combined R/R
    bool waitingForReply = false; ///< negative outcome, reply not here yet
    /**
     * A found reply already passed this node while its snoop was still
     * running: the outcome is moot, finish the snoop silently.
     */
    bool abandoned = false;
    /**
     * SnoopMessage::visits of the request as of this node (this node
     * included). Stamped onto the trailing reply when it merges here,
     * so the conclusion carries the request's true ring coverage.
     */
    std::uint32_t requestVisits = 0;
    /** Trailing reply waiting for our snoop, or null. Kept out of line
     *  (a pooled slot) so creating an entry stays a few-word write. */
    SnoopMessage *bufferedReply = nullptr;
};

static_assert(sizeof(NodePending) == 32,
              "a pending entry stays half a cache line");

/**
 * Everything one CMP gateway tracks about one line: the node's own
 * outstanding transaction on it, the ring-order gate (docs/PROTOCOL.md
 * §5), and the pending snoops of the transactions passing the node on
 * it. A transaction has exactly one line, so the line's LineRecord
 * indexes all of a message's gateway state by node.
 */
struct GatewayLine
{
    Addr line = kInvalidAddr;
    /** The line's machine-wide record, which indexes this one. */
    LineRecord *owner = nullptr;
    /** This node's own in-flight transaction on the line (request
     *  merging and collision detection), or kInvalidTransaction. */
    TransactionId own = kInvalidTransaction;
    /**
     * The gate is open from its first acquire until a drain finds it
     * idle with nothing queued. While a SnoopThenForward message of
     * `holder` is held here, other transactions' messages for the line
     * queue in `deferred` so they cannot overtake it.
     */
    bool gateOpen = false;
    TransactionId holder = kInvalidTransaction;
    /** A vector, not a deque: it allocates nothing until a message
     *  defers, and the queue rarely holds more than a few. */
    std::vector<SnoopMessage> deferred;
    /** Pending snoops on this line; rarely more than one. */
    std::vector<NodePending> pending;

    NodePending *
    findPending(TransactionId txn)
    {
        for (NodePending &p : pending) {
            if (p.txn == txn)
                return &p;
        }
        return nullptr;
    }

    /** Nothing left to track: the record can be recycled. */
    bool
    idle() const
    {
        return own == kInvalidTransaction && !gateOpen && pending.empty();
    }
};

/**
 * The machine-wide gateway state of one line: its live ring rounds and
 * an index of its GatewayLine records by node. The controller keeps
 * one per line in its line table while any node holds a GatewayLine
 * for the line. Every live transaction holds one at its requester (its
 * `own` entry), so a line with live rounds always has a record.
 */
struct LineRecord
{
    /** The line, or kInvalidAddr while the record sits in its pool: a
     *  stale hint to a released record then names no line. */
    Addr line = kInvalidAddr;
    /** Live transactions on the line, machine-wide. A bridge skips a
     *  request only while its round is the line's sole live round
     *  (DESIGN.md §11). */
    std::uint32_t liveRounds = 0;
    /** Non-null entries of `nodes`. */
    std::uint32_t entries = 0;
    /** Node -> that node's record of the line, or null. Sized to the
     *  ring once; a recycled record keeps it, all null. */
    std::vector<GatewayLine *> nodes;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_COHERENCE_TRANSACTION_HH
