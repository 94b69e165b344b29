#include "core/report.hh"

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace flexsnoop
{

namespace
{

struct Field
{
    const char *name;
    std::function<void(std::ostream &, const RunResult &)> emit;
    std::function<void(RunResult &, const std::string &)> absorb;
    bool isString = false;
};

void
parseInto(std::string &out, const std::string &cell)
{
    out = cell;
}

void
parseInto(std::uint64_t &out, const std::string &cell)
{
    std::size_t used = 0;
    out = std::stoull(cell, &used);
    if (used != cell.size())
        throw std::invalid_argument("trailing characters");
}

void
parseInto(double &out, const std::string &cell)
{
    std::size_t used = 0;
    out = std::stod(cell, &used);
    if (used != cell.size())
        throw std::invalid_argument("trailing characters");
}

void
parseInto(bool &out, const std::string &cell)
{
    if (cell != "0" && cell != "1")
        throw std::invalid_argument("boolean cell must be 0 or 1");
    out = cell == "1";
}

template <typename T>
Field
field(const char *name, T RunResult::*member)
{
    Field f;
    f.name = name;
    f.emit = [member](std::ostream &os, const RunResult &r) {
        if constexpr (std::is_same_v<T, bool>)
            os << (r.*member ? 1 : 0);
        else
            os << r.*member;
    };
    f.absorb = [member](RunResult &r, const std::string &cell) {
        parseInto(r.*member, cell);
    };
    f.isString = std::is_same_v<T, std::string>;
    return f;
}

/** One-line free text: commas/newlines collapse to ';' so a row stays
 *  one parseable line whatever the exception message contained. */
std::string
sanitizeCell(const std::string &text)
{
    std::string out = text;
    for (char &c : out) {
        if (c == ',' || c == '\n' || c == '\r')
            c = ';';
    }
    return out;
}

Field
errorField()
{
    Field f;
    f.name = "error";
    f.emit = [](std::ostream &os, const RunResult &r) {
        os << sanitizeCell(r.error);
    };
    f.absorb = [](RunResult &r, const std::string &cell) {
        r.error = cell;
    };
    f.isString = true;
    return f;
}

const std::vector<Field> &
fields()
{
    static const std::vector<Field> kFields = {
        field("workload", &RunResult::workload),
        field("algorithm", &RunResult::algorithm),
        field("predictor", &RunResult::predictor),
        field("exec_cycles", &RunResult::execCycles),
        field("read_ring_requests", &RunResult::readRingRequests),
        field("read_snoops", &RunResult::readSnoops),
        field("snoops_per_request", &RunResult::snoopsPerReadRequest),
        field("read_link_messages", &RunResult::readLinkMessages),
        field("link_msgs_per_request",
              &RunResult::readLinkMessagesPerRequest),
        field("energy_nj", &RunResult::energyNj),
        field("ring_energy_nj", &RunResult::ringEnergyNj),
        field("snoop_energy_nj", &RunResult::snoopEnergyNj),
        field("predictor_energy_nj", &RunResult::predictorEnergyNj),
        field("downgrade_energy_nj", &RunResult::downgradeEnergyNj),
        field("true_positives", &RunResult::truePositives),
        field("true_negatives", &RunResult::trueNegatives),
        field("false_positives", &RunResult::falsePositives),
        field("false_negatives", &RunResult::falseNegatives),
        field("write_ring_requests", &RunResult::writeRingRequests),
        field("write_snoops", &RunResult::writeSnoops),
        field("write_filtered", &RunResult::writeFiltered),
        field("bridge_skips", &RunResult::bridgeSkips),
        field("bridge_descends", &RunResult::bridgeDescends),
        field("global_link_messages", &RunResult::globalLinkMessages),
        field("cache_supplies", &RunResult::cacheSupplies),
        field("memory_fetches", &RunResult::memoryFetches),
        field("downgrades", &RunResult::downgrades),
        field("collisions", &RunResult::collisions),
        field("retries", &RunResult::retries),
        field("writebacks", &RunResult::writebacks),
        field("avg_read_latency", &RunResult::avgReadLatency),
        field("p50_read_latency", &RunResult::p50ReadLatency),
        field("p95_read_latency", &RunResult::p95ReadLatency),
        field("fault_link_decisions", &RunResult::faultLinkDecisions),
        field("fault_drops", &RunResult::faultDrops),
        field("fault_dups", &RunResult::faultDups),
        field("fault_delays", &RunResult::faultDelays),
        field("fault_predictor_flips", &RunResult::faultPredictorFlips),
        field("watchdog_timeouts", &RunResult::watchdogTimeouts),
        field("stale_messages_absorbed",
              &RunResult::staleMessagesAbsorbed),
        field("predictor_flip_degrades",
              &RunResult::predictorFlipDegrades),
        field("incomplete_conclusions_rejected",
              &RunResult::incompleteConclusionsRejected),
        field("retry_storm_aborts", &RunResult::retryStormAborts),
        field("failed", &RunResult::failed),
        errorField(),
    };
    return kFields;
}

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream is(line);
    while (std::getline(is, cell, ','))
        cells.push_back(cell);
    if (!line.empty() && line.back() == ',')
        cells.emplace_back();
    return cells;
}

} // namespace

void
writeCsvHeader(std::ostream &os)
{
    const auto &cols = fields();
    for (std::size_t i = 0; i < cols.size(); ++i)
        os << cols[i].name << (i + 1 < cols.size() ? "," : "\n");
    if (!os)
        throw std::runtime_error("failed writing CSV stream");
}

void
writeCsvRow(std::ostream &os, const RunResult &r)
{
    const auto &cols = fields();
    os << std::setprecision(10);
    for (std::size_t i = 0; i < cols.size(); ++i) {
        cols[i].emit(os, r);
        os << (i + 1 < cols.size() ? "," : "\n");
    }
    if (!os)
        throw std::runtime_error("failed writing CSV stream");
}

void
writeCsv(std::ostream &os, const std::vector<RunResult> &results)
{
    writeCsvHeader(os);
    for (const RunResult &r : results)
        writeCsvRow(os, r);
}

std::vector<RunResult>
loadCsv(std::istream &is)
{
    std::string line;
    if (!std::getline(is, line))
        return {}; // empty stream: no header, no rows

    // Map header names to fields so column order (and missing trailing
    // columns from an older writer) do not matter.
    const auto &cols = fields();
    std::vector<const Field *> layout;
    for (const std::string &name : splitCsvLine(line)) {
        const Field *match = nullptr;
        for (const Field &f : cols) {
            if (name == f.name) {
                match = &f;
                break;
            }
        }
        if (!match) {
            throw std::runtime_error("CSV header has unknown column '" +
                                     name + "'");
        }
        layout.push_back(match);
    }

    std::vector<RunResult> results;
    std::size_t line_no = 1;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty())
            continue;
        const auto cells = splitCsvLine(line);
        if (cells.size() != layout.size()) {
            std::ostringstream oss;
            oss << "CSV line " << line_no << " has " << cells.size()
                << " cells, header has " << layout.size();
            throw std::runtime_error(oss.str());
        }
        RunResult r;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            try {
                layout[i]->absorb(r, cells[i]);
            } catch (const std::exception &e) {
                std::ostringstream oss;
                oss << "CSV line " << line_no << ", column '"
                    << layout[i]->name << "': cannot parse '" << cells[i]
                    << "' (" << e.what() << ")";
                throw std::runtime_error(oss.str());
            }
        }
        results.push_back(std::move(r));
    }
    return results;
}

std::vector<RunResult>
loadCsvFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return {};
    return loadCsv(is);
}

void
writeJson(std::ostream &os, const std::vector<RunResult> &results)
{
    const auto &cols = fields();
    os << std::setprecision(10) << "[\n";
    for (std::size_t r = 0; r < results.size(); ++r) {
        os << "  {";
        for (std::size_t i = 0; i < cols.size(); ++i) {
            os << '"' << cols[i].name << "\": ";
            if (cols[i].isString) {
                os << '"';
                cols[i].emit(os, results[r]);
                os << '"';
            } else {
                cols[i].emit(os, results[r]);
            }
            if (i + 1 < cols.size())
                os << ", ";
        }
        os << '}' << (r + 1 < results.size() ? "," : "") << '\n';
    }
    os << "]\n";
    if (!os)
        throw std::runtime_error("failed writing JSON stream");
}

void
saveCsv(const std::string &path, const std::vector<RunResult> &results)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot open for writing: " + path);
    writeCsv(os, results);
}

void
saveJson(const std::string &path, const std::vector<RunResult> &results)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot open for writing: " + path);
    writeJson(os, results);
}

} // namespace flexsnoop
