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

#include "net/probe_signature.hh"
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
 * Value type: each hop copies it into a pooled slot that the hop's
 * event points at, and gateways copy it when they defer, buffer or
 * re-emit it.
 */
struct SnoopMessage
{
    MsgType type = MsgType::CombinedRR;
    SnoopKind kind = SnoopKind::Read;
    TransactionId txn = kInvalidTransaction;
    Addr line = kInvalidAddr;
    NodeId requester = kInvalidNode;

    /** Read: a supplier was found upstream; the data is on its way. */
    bool found = false;
    /** Node that supplied (valid when found). */
    NodeId supplier = kInvalidNode;
    /** Transaction lost a collision; requester must retry. */
    bool squashed = false;
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

    /**
     * Hash-once probe signature: the line's predictor filter indices,
     * L2 set and home node, computed at ring-issue time so every hop
     * probes with pure indexed loads. Invalid (default) on messages
     * crafted outside issueRingMessage; consumers then fall back to
     * deriving the values from the address.
     */
    ProbeSignature sig;

    /**
     * Host-side hint, like the signature: the line's gateway record as
     * of ring issue, so a gateway reaches its per-node state without
     * hashing the line. It models nothing. Consumers trust it only
     * while it still names this line (a released record names none)
     * and otherwise look the line up; null on crafted messages.
     */
    LineRecord *lineHint = nullptr;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_NET_MESSAGE_HH
