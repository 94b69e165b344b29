#include "coherence/checker.hh"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

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
    auto core_name = [](std::uint8_t core) {
        return core == CmpLine::kNoCore ? std::string("none")
                                        : std::to_string(core);
    };
    std::size_t supplier_lines = 0; ///< lines some CMP supplies
    /** Per node: lines with at least one scanned copy. */
    std::vector<std::size_t> scanned_lines(_nodes.size(), 0);

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

        // Audit each CmpNode's line record (the copy mask, supplier and
        // local master the controller's hot path reads instead of the
        // L2s) and the machine-wide census of supplier CMPs memory fills
        // read against this ground-truth scan: a desync would silently
        // skew every predictor decision, filtered snoop or fill state
        // downstream.
        unsigned supplier_cmps = 0;
        for (std::size_t i = begin; i < end;) {
            std::size_t cmp_end = i + 1;
            while (cmp_end < end && copies[cmp_end].node == copies[i].node)
                ++cmp_end;
            const NodeId node = copies[i].node;
            ++scanned_lines[node];
            CmpLine scanned;
            for (std::size_t j = i; j < cmp_end; ++j) {
                const auto core = static_cast<std::uint8_t>(copies[j].core);
                scanned.copies |= std::uint32_t{1} << core;
                if (isSupplierState(copies[j].state))
                    scanned.supplier = core;
                if (copies[j].state == LineState::SharedLocal)
                    scanned.localMaster = core;
            }
            supplier_cmps += scanned.supplier != CmpLine::kNoCore;
            const CmpLine tracked = _nodes[node]->lineRecord(line);
            if (tracked.copies != scanned.copies) {
                std::ostringstream oss;
                oss << "cmp" << node << " copy mask desync: tracked 0x"
                    << std::hex << tracked.copies << ", scan found 0x"
                    << scanned.copies;
                report(line, oss.str());
            }
            if (tracked.supplier != scanned.supplier) {
                std::ostringstream oss;
                oss << "cmp" << node
                    << " supplier tracking desync: tracked core "
                    << core_name(tracked.supplier) << ", scan found "
                    << core_name(scanned.supplier);
                report(line, oss.str());
            }
            if (tracked.localMaster != scanned.localMaster) {
                std::ostringstream oss;
                oss << "cmp" << node
                    << " local-master tracking desync: tracked core "
                    << core_name(tracked.localMaster) << ", scan found "
                    << core_name(scanned.localMaster);
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
    // Likewise a record for a line no local L2 holds: it would make
    // the node answer (and snoop) as if it held the line.
    for (NodeId n = 0; n < _nodes.size(); ++n) {
        const CmpNode &cmp = *_nodes[n];
        if (cmp.trackedLines() == scanned_lines[n])
            continue;
        cmp.forEachRecord([&](Addr line, const CmpLine &rec) {
            auto it = std::lower_bound(
                copies.begin(), copies.end(), line,
                [](const Copy &c, Addr l) { return c.line < l; });
            bool held = false;
            for (; it != copies.end() && it->line == line; ++it)
                held = held || it->node == n;
            if (!held) {
                std::ostringstream oss;
                oss << "cmp" << n << " tracks copy mask 0x" << std::hex
                    << rec.copies << ", scan found none";
                report(line, oss.str());
            }
        });
    }
    return violations;
}

} // namespace flexsnoop
