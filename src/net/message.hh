/**
 * @file
 * Snoop message types carried on the embedded ring (paper §3.2).
 *
 * A coherence transaction's ring traffic is made of up to two concurrent
 * messages:
 *  - SnoopRequest: travels ahead, triggering snoops.
 *  - SnoopReply:   trails behind, accumulating snoop outcomes.
 *  - CombinedRR:   request and reply fused into one message (the only
 *                  message Lazy-class algorithms ever use; flexible
 *                  algorithms split and re-fuse it on the fly).
 */

#ifndef FLEXSNOOP_NET_MESSAGE_HH
#define FLEXSNOOP_NET_MESSAGE_HH

#include <cstdint>
#include <string_view>

#include "sim/types.hh"

namespace flexsnoop
{

/** The coherence controller's machine-wide gateway record of a line
 *  (src/coherence/transaction.hh); messages carry it only as a hint. */
struct LineRecord;

enum class MsgType : std::uint8_t
{
    SnoopRequest, ///< forward-moving probe trigger
    SnoopReply,   ///< trailing reply accumulating outcomes
    CombinedRR,   ///< fused request + reply
};

/** Coherence operation the message performs. */
enum class SnoopKind : std::uint8_t
{
    Read,  ///< read miss looking for a supplier
    Write, ///< write/upgrade invalidating all copies
};

constexpr std::string_view
toString(MsgType t)
{
    switch (t) {
      case MsgType::SnoopRequest: return "Req";
      case MsgType::SnoopReply: return "Rep";
      case MsgType::CombinedRR: return "R/R";
    }
    return "?";
}

/**
 * One message on a snoop ring.
 *
 * Value type, 48 bytes: ring arrivals and gateway events capture it by
 * value in their event slot, and gateways copy it when they defer,
 * buffer or re-emit it. Fields are ordered widest first so the struct
 * carries no interior padding; keep it that way.
 */
struct SnoopMessage
{
    TransactionId txn = kInvalidTransaction;
    Addr line = kInvalidAddr;

    /**
     * Host-side hint: the line's gateway record as of ring issue, so a
     * gateway reaches its per-node state without hashing the line. It
     * models nothing. Consumers trust it only while it still names this
     * line (a released record names none) and otherwise look the line
     * up; null on crafted messages.
     */
    LineRecord *lineHint = nullptr;

    NodeId requester = kInvalidNode;
    /** Node that supplied (valid when found). */
    NodeId supplier = kInvalidNode;
    /**
     * For replies: number of ring nodes whose snoop outcome has been
     * accumulated so far (used to know when a reply is complete).
     */
    std::uint32_t acksCollected = 0;
    /**
     * Number of ring nodes whose processing of the *request* is folded
     * into this message — snooped, filtered, or consciously forwarded.
     * A full round ends with visits == numNodes - 1; anything less
     * means part of the ring never saw the request (a lost message).
     * Only consulted in unreliable-ring mode (docs/FAULTS.md): on a
     * loss-free ring every conclusion is trivially complete.
     */
    std::uint32_t visits = 0;

    MsgType type = MsgType::CombinedRR;
    SnoopKind kind = SnoopKind::Read;
    /** Read: a supplier was found upstream; the data is on its way. */
    bool found = false;
    /** Transaction lost a collision; requester must retry. */
    bool squashed = false;
};

static_assert(sizeof(SnoopMessage) == 48,
              "a ring arrival captures [this, node, msg] in EventFn's "
              "64-byte inline buffer");

} // namespace flexsnoop

#endif // FLEXSNOOP_NET_MESSAGE_HH
