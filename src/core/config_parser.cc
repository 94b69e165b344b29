#include "core/config_parser.hh"

#include <sstream>
#include <stdexcept>

#include "coherence/cmp_node.hh"

namespace flexsnoop
{

namespace
{

/**
 * Strict unsigned parser with positional diagnostics. std::stoull alone
 * is too permissive for config input: it accepts leading whitespace and
 * a minus sign (wrapping the value), and silently stops at the first
 * non-digit. Every rejection names the key, the offending value, and
 * where in it the problem sits.
 */
std::uint64_t
parseUnsigned(const std::string &key, const std::string &value)
{
    if (value.empty()) {
        throw std::invalid_argument("empty value for " + key +
                                    " (expected an unsigned integer)");
    }
    for (std::size_t i = 0; i < value.size(); ++i) {
        if (value[i] < '0' || value[i] > '9') {
            std::ostringstream oss;
            oss << "bad unsigned value for " << key << ": '" << value
                << "' (unexpected character '" << value[i]
                << "' at position " << i << ")";
            throw std::invalid_argument(oss.str());
        }
    }
    try {
        return std::stoull(value);
    } catch (const std::out_of_range &) {
        throw std::invalid_argument("value for " + key +
                                    " is out of range: '" + value + "'");
    }
}

std::uint64_t
parseUnsignedAtLeast(const std::string &key, const std::string &value,
                     std::uint64_t minimum)
{
    const std::uint64_t parsed = parseUnsigned(key, value);
    if (parsed < minimum) {
        std::ostringstream oss;
        oss << key << " must be at least " << minimum << ", got "
            << parsed;
        throw std::invalid_argument(oss.str());
    }
    return parsed;
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true" || value == "on")
        return true;
    if (value == "0" || value == "false" || value == "off")
        return false;
    throw std::invalid_argument("bad boolean value for " + key + ": '" +
                                value +
                                "' (expected 0/1, true/false, on/off)");
}

std::string
knownKeysMessage()
{
    std::string msg = "known keys:";
    for (const auto &k : configKeys())
        msg += " " + k;
    return msg;
}

} // namespace

const std::vector<std::string> &
configKeys()
{
    static const std::vector<std::string> kKeys = {
        "num_cmps",         "cores_per_cmp",   "l2_entries",
        "l2_ways",          "num_rings",       "ring_link_latency",
        "ring_serialization", "mem_local_rt",  "mem_remote_rt",
        "mem_prefetch_rt",  "prefetch_enabled", "cmp_snoop_time",
        "retry_backoff",    "max_outstanding", "algorithm",
        "predictor",        "write_filtering", "watchdog_cycles",
        "max_retries",      "topology",        "local_rings",
        "global_hop_cycles", "global_algorithm",
    };
    return kKeys;
}

void
applyOverride(MachineConfig &config, const std::string &assignment)
{
    const auto eq = assignment.find('=');
    if (eq == std::string::npos) {
        throw std::invalid_argument("expected key=value, got '" +
                                    assignment + "' (no '=' found)");
    }
    if (eq == 0) {
        throw std::invalid_argument("expected key=value, got '" +
                                    assignment + "' (empty key)");
    }
    const std::string key = assignment.substr(0, eq);
    const std::string value = assignment.substr(eq + 1);

    if (key == "num_cmps") {
        config.setNumCmps(static_cast<std::size_t>(
            parseUnsignedAtLeast(key, value, 2)));
    } else if (key == "cores_per_cmp") {
        const std::uint64_t cores = parseUnsignedAtLeast(key, value, 1);
        if (cores > CmpNode::kMaxCores) {
            std::ostringstream oss;
            oss << key << " must be at most " << CmpNode::kMaxCores
                << " (one bit per L2 in a CMP's copy mask), got " << cores;
            throw std::invalid_argument(oss.str());
        }
        config.coresPerCmp = static_cast<std::size_t>(cores);
    } else if (key == "l2_entries") {
        config.l2Entries = static_cast<std::size_t>(
            parseUnsignedAtLeast(key, value, 1));
    } else if (key == "l2_ways") {
        config.l2Ways = static_cast<std::size_t>(
            parseUnsignedAtLeast(key, value, 1));
    } else if (key == "num_rings") {
        config.numRings = static_cast<std::size_t>(
            parseUnsignedAtLeast(key, value, 1));
    } else if (key == "ring_link_latency") {
        config.ring.linkLatency = parseUnsigned(key, value);
    } else if (key == "ring_serialization") {
        config.ring.serialization = parseUnsigned(key, value);
    } else if (key == "mem_local_rt") {
        config.memory.localRoundTrip = parseUnsigned(key, value);
    } else if (key == "mem_remote_rt") {
        config.memory.remoteRoundTrip = parseUnsigned(key, value);
    } else if (key == "mem_prefetch_rt") {
        config.memory.remotePrefetchRoundTrip = parseUnsigned(key, value);
    } else if (key == "prefetch_enabled") {
        config.memory.prefetchEnabled = parseBool(key, value);
    } else if (key == "cmp_snoop_time") {
        config.coherence.cmpSnoopTime = parseUnsigned(key, value);
    } else if (key == "retry_backoff") {
        config.coherence.retryBackoff = parseUnsigned(key, value);
    } else if (key == "watchdog_cycles") {
        config.coherence.watchdogCycles = parseUnsigned(key, value);
    } else if (key == "max_retries") {
        config.coherence.maxRetries = static_cast<unsigned>(
            parseUnsignedAtLeast(key, value, 1));
    } else if (key == "max_outstanding") {
        config.core.maxOutstanding = static_cast<std::size_t>(
            parseUnsignedAtLeast(key, value, 1));
    } else if (key == "write_filtering") {
        config.writeFiltering = parseBool(key, value);
    } else if (key == "topology") {
        config.topology.kind = topologyKindFromName(value);
    } else if (key == "local_rings") {
        config.topology.localRings = static_cast<std::size_t>(
            parseUnsignedAtLeast(key, value, 1));
    } else if (key == "global_hop_cycles") {
        config.topology.globalHopCycles = static_cast<Cycle>(
            parseUnsignedAtLeast(key, value, 1));
    } else if (key == "global_algorithm") {
        algorithmFromName(value); // validate eagerly, with diagnostics
        config.topology.globalAlgorithm = value;
    } else if (key == "algorithm") {
        config.algorithm = algorithmFromName(value);
        config.predictor = defaultPredictorFor(config.algorithm);
    } else if (key == "predictor") {
        const PredictorConfig forced = PredictorConfig::fromName(value);
        if (forced.kind != config.predictor.kind) {
            throw std::invalid_argument(
                "predictor '" + value + "' does not match algorithm " +
                std::string(toString(config.algorithm)));
        }
        config.predictor = forced;
    } else {
        throw std::invalid_argument("unknown configuration key '" + key +
                                    "'; " + knownKeysMessage());
    }
}

void
applyOverrides(MachineConfig &config,
               const std::vector<std::string> &assignments)
{
    for (std::size_t i = 0; i < assignments.size(); ++i) {
        try {
            applyOverride(config, assignments[i]);
        } catch (const std::invalid_argument &e) {
            std::ostringstream oss;
            oss << "override #" << (i + 1) << " ('" << assignments[i]
                << "'): " << e.what();
            throw std::invalid_argument(oss.str());
        }
    }
}

std::string
describeConfig(const MachineConfig &config)
{
    std::ostringstream oss;
    oss << "algorithm=" << toString(config.algorithm)
        << " predictor=" << config.predictor.id
        << " num_cmps=" << config.numCmps
        << " cores_per_cmp=" << config.coresPerCmp
        << " l2_entries=" << config.l2Entries << " l2_ways="
        << config.l2Ways << " num_rings=" << config.numRings
        << " ring_link_latency=" << config.ring.linkLatency
        << " ring_serialization=" << config.ring.serialization
        << " cmp_snoop_time=" << config.coherence.cmpSnoopTime
        << " retry_backoff=" << config.coherence.retryBackoff
        << " mem_local_rt=" << config.memory.localRoundTrip
        << " mem_remote_rt=" << config.memory.remoteRoundTrip
        << " mem_prefetch_rt=" << config.memory.remotePrefetchRoundTrip
        << " prefetch_enabled=" << config.memory.prefetchEnabled
        << " write_filtering=" << config.writeFiltering
        << " max_outstanding=" << config.core.maxOutstanding
        << " watchdog_cycles=" << config.coherence.watchdogCycles
        << " max_retries=" << config.coherence.maxRetries
        << " topology=" << toString(config.topology.kind);
    if (config.topology.hierarchical()) {
        oss << " local_rings=" << config.topology.localRings
            << " global_hop_cycles=" << config.topology.globalHopCycles;
        if (!config.topology.globalAlgorithm.empty())
            oss << " global_algorithm="
                << config.topology.globalAlgorithm;
    }
    return oss.str();
}

} // namespace flexsnoop
