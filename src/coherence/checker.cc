#include "coherence/checker.hh"

#include <algorithm>
#include <sstream>

#include "mem/line_state.hh"

namespace flexsnoop
{

std::vector<CoherenceChecker::Violation>
CoherenceChecker::check() const
{
    struct Copy
    {
        Addr line;
        NodeId node;
        std::size_t core;
        LineState state;
    };

    // One flat scan sorted by (line, node, core) instead of a std::map
    // of vectors rebuilt per check: a single allocation, and grouped
    // iteration over contiguous ranges. The sort reproduces the old
    // map's deterministic report order (lines ascending; within a line,
    // forEachLine's node-then-core order).
    std::vector<Copy> copies;
    for (NodeId n = 0; n < _nodes.size(); ++n) {
        _nodes[n]->forEachLine(
            [&](std::size_t core, Addr line, LineState st) {
                copies.push_back(Copy{line, n, core, st});
            });
    }
    std::sort(copies.begin(), copies.end(),
              [](const Copy &a, const Copy &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.node != b.node)
                      return a.node < b.node;
                  return a.core < b.core;
              });

    std::vector<Violation> violations;
    auto report = [&](Addr line, const std::string &what) {
        violations.push_back(Violation{line, what});
    };
    std::size_t supplier_lines = 0; ///< lines some CMP supplies

    for (std::size_t begin = 0; begin < copies.size();) {
        std::size_t end = begin + 1;
        while (end < copies.size() && copies[end].line == copies[begin].line)
            ++end;
        const Addr line = copies[begin].line;

        unsigned suppliers = 0;
        for (std::size_t i = begin; i < end; ++i)
            suppliers += isSupplierState(copies[i].state);
        if (suppliers > 1) {
            std::ostringstream oss;
            oss << suppliers << " supplier copies:";
            for (std::size_t i = begin; i < end; ++i) {
                const Copy &c = copies[i];
                if (isSupplierState(c.state))
                    oss << " cmp" << c.node << ".l2." << c.core << "="
                        << toString(c.state);
            }
            report(line, oss.str());
        }

        // One SL per CMP: copies of a line within one CMP are adjacent
        // after the sort, so a linear run count replaces the old
        // per-line std::map<NodeId, unsigned>.
        for (std::size_t i = begin; i < end;) {
            std::size_t cmp_end = i + 1;
            while (cmp_end < end && copies[cmp_end].node == copies[i].node)
                ++cmp_end;
            unsigned sl = 0;
            for (std::size_t j = i; j < cmp_end; ++j)
                sl += copies[j].state == LineState::SharedLocal;
            if (sl > 1) {
                std::ostringstream oss;
                oss << sl << " SL copies within cmp" << copies[i].node;
                report(line, oss.str());
            }
            i = cmp_end;
        }

        // Pairwise compatibility matrix.
        for (std::size_t i = begin; i < end; ++i) {
            for (std::size_t j = i + 1; j < end; ++j) {
                const Copy &a = copies[i];
                const Copy &b = copies[j];
                const bool same_cmp = a.node == b.node;
                if (!statesCompatible(a.state, b.state, same_cmp)) {
                    std::ostringstream oss;
                    oss << "incompatible states: cmp" << a.node << ".l2."
                        << a.core << "=" << toString(a.state) << " vs cmp"
                        << b.node << ".l2." << b.core << "="
                        << toString(b.state)
                        << (same_cmp ? " (same CMP)" : "");
                    report(line, oss.str());
                }
            }
        }

        // Audit the CmpNodes' incrementally tracked per-line state (the
        // copy counts and supplier sets the controller's hot path reads,
        // and the machine-wide census of supplier CMPs memory fills
        // read) against this ground-truth scan: a desync would silently
        // skew every predictor decision or fill state downstream.
        unsigned supplier_cmps = 0;
        for (std::size_t i = begin; i < end;) {
            std::size_t cmp_end = i + 1;
            while (cmp_end < end && copies[cmp_end].node == copies[i].node)
                ++cmp_end;
            const CmpNode &cmp = *_nodes[copies[i].node];
            const unsigned scanned =
                static_cast<unsigned>(cmp_end - i);
            if (cmp.copyCount(line) != scanned) {
                std::ostringstream oss;
                oss << "cmp" << copies[i].node << " tracks "
                    << cmp.copyCount(line) << " copies, scan found "
                    << scanned;
                report(line, oss.str());
            }
            std::size_t supplier_core = SIZE_MAX;
            for (std::size_t j = i; j < cmp_end; ++j) {
                if (isSupplierState(copies[j].state))
                    supplier_core = copies[j].core;
            }
            supplier_cmps += supplier_core != SIZE_MAX;
            if (cmp.supplierCore(line) != supplier_core) {
                std::ostringstream oss;
                oss << "cmp" << copies[i].node
                    << " supplier tracking desync: tracked core "
                    << static_cast<long long>(cmp.supplierCore(line))
                    << ", scan found "
                    << static_cast<long long>(supplier_core);
                report(line, oss.str());
            }
            i = cmp_end;
        }
        if (_census.supplierCmps(line) != supplier_cmps) {
            std::ostringstream oss;
            oss << "census counts " << _census.supplierCmps(line)
                << " supplier CMPs, scan found " << supplier_cmps;
            report(line, oss.str());
        }
        supplier_lines += supplier_cmps > 0;

        begin = end;
    }

    // A census entry for a line no cache supplies never met the loop
    // above; find such entries when the line totals disagree.
    if (_census.supplierLines() != supplier_lines) {
        _census.forEachSupplierLine([&](Addr line, unsigned count) {
            auto it = std::lower_bound(
                copies.begin(), copies.end(), line,
                [](const Copy &c, Addr l) { return c.line < l; });
            bool supplied = false;
            for (; it != copies.end() && it->line == line; ++it)
                supplied = supplied || isSupplierState(it->state);
            if (!supplied) {
                std::ostringstream oss;
                oss << "census counts " << count
                    << " supplier CMPs, scan found none";
                report(line, oss.str());
            }
        });
    }
    return violations;
}

} // namespace flexsnoop
