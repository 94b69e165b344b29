/**
 * @file
 * Coherence invariant checker.
 *
 * Validates the global cache state against the protocol's rules (paper
 * Figure 2-(b) and §2.2):
 *  1. every pair of copies of a line satisfies the compatibility matrix;
 *  2. at most one cache in the machine holds a line in a supplier state
 *     (SG, E, D, T);
 *  3. at most one cache per CMP holds a line in SL;
 *  4. E and D copies are globally unique (no other valid copy).
 *
 * It also audits the state the hot path reads instead of the caches:
 * each CmpNode's line records (copy mask, supplier core, SL holder, and
 * no record for a line the CMP does not hold) and the machine-wide
 * census of supplier CMPs.
 *
 * Used by the tests (after randomized traffic) and optionally sampled
 * during long simulations.
 */

#ifndef FLEXSNOOP_COHERENCE_CHECKER_HH
#define FLEXSNOOP_COHERENCE_CHECKER_HH

#include <memory>
#include <string>
#include <vector>

#include "coherence/cmp_node.hh"

namespace flexsnoop
{

class CoherenceChecker
{
  public:
    /** One detected violation, human-readable. */
    struct Violation
    {
        Addr line;
        std::string description;
    };

    /** @param census the machine-wide census the nodes report to; its
     *  supplier counts are audited against the scan. */
    CoherenceChecker(const std::vector<std::unique_ptr<CmpNode>> &nodes,
                     const LineCensus &census)
        : _nodes(nodes), _census(census)
    {
    }

    /**
     * Scan all caches; @return every violated invariant (empty = OK).
     */
    std::vector<Violation> check() const;

    /** Convenience: true when no invariant is violated. */
    bool consistent() const { return check().empty(); }

  private:
    const std::vector<std::unique_ptr<CmpNode>> &_nodes;
    const LineCensus &_census;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_COHERENCE_CHECKER_HH
