/**
 * @file
 * Timing parameters of the coherence fabric (paper Table 4).
 */

#ifndef FLEXSNOOP_COHERENCE_COHERENCE_PARAMS_HH
#define FLEXSNOOP_COHERENCE_COHERENCE_PARAMS_HH

#include "sim/types.hh"

namespace flexsnoop
{

struct CoherenceParams
{
    /** Round trip to the core's own L2. */
    Cycle l2RoundTrip = 11;

    /** Round trip to another L2 in the same CMP over the shared bus. */
    Cycle localBusRoundTrip = 55;

    /**
     * Time for a ring message to access the CMP bus and snoop all local
     * L2s in parallel (38 transmission + 10 arbitration + 7 snoop).
     */
    Cycle cmpSnoopTime = 55;

    /** Backoff before re-issuing a squashed transaction. */
    Cycle retryBackoff = 200;

    /** Extra bus hop for same-CMP waiters merged onto one transaction. */
    Cycle waiterBusDelay = 55;

    /**
     * Per-transaction watchdog (docs/FAULTS.md): a transaction whose
     * ring round has not concluded after this many cycles is reissued
     * (bounded by maxRetries). 0 disables the watchdog — the default,
     * because pending watchdog events extend the drain tail of the
     * event queue. Armed automatically by the CLI when fault injection
     * is on.
     */
    Cycle watchdogCycles = 0;

    /**
     * Cap on squash/watchdog reissues of one logical request. A
     * transaction exceeding it throws RetryStormError with a dump
     * naming the contended line, instead of retrying forever on a
     * pathological workload.
     */
    unsigned maxRetries = 1000;
};

/**
 * Backoff before reissue attempt number @p retries: exponential in the
 * attempt count and capped at 16x the base, so it is monotonically
 * non-decreasing and bounded (the paper's squash-retry scheme leaves
 * the backoff policy open).
 */
inline Cycle
retryBackoffCycles(const CoherenceParams &params, unsigned retries)
{
    return params.retryBackoff *
           (Cycle{1} << (retries < 4u ? retries : 4u));
}

} // namespace flexsnoop

#endif // FLEXSNOOP_COHERENCE_COHERENCE_PARAMS_HH
