/**
 * @file
 * String-based machine configuration: apply "key=value" overrides to a
 * MachineConfig, so command-line tools and scripts can explore the
 * design space without recompiling.
 *
 * Supported keys (see applyOverride for the full list): num_cmps,
 * cores_per_cmp, l2_entries, l2_ways, num_rings, ring_link_latency,
 * ring_serialization, mem_local_rt, mem_remote_rt, mem_prefetch_rt,
 * prefetch_enabled, cmp_snoop_time, retry_backoff, max_outstanding,
 * algorithm, predictor, write_filtering, watchdog_cycles, max_retries,
 * topology, local_rings, global_hop_cycles, global_algorithm.
 *
 * Values are validated strictly: malformed numbers are rejected with
 * the offending character position, structurally-invalid sizes (e.g.
 * num_cmps=1, or cores_per_cmp above CmpNode::kMaxCores) name the
 * violated bound, and unknown keys list the
 * accepted ones. applyOverrides() additionally reports which override
 * in the sequence failed.
 */

#ifndef FLEXSNOOP_CORE_CONFIG_PARSER_HH
#define FLEXSNOOP_CORE_CONFIG_PARSER_HH

#include <string>
#include <vector>

#include "core/machine_config.hh"

namespace flexsnoop
{

/**
 * Apply one "key=value" override to @p config.
 * @throws std::invalid_argument for unknown keys or malformed values
 */
void applyOverride(MachineConfig &config, const std::string &assignment);

/** Apply several overrides in order. */
void applyOverrides(MachineConfig &config,
                    const std::vector<std::string> &assignments);

/** List of keys accepted by applyOverride (for usage messages). */
const std::vector<std::string> &configKeys();

/** One-line "key=value key=value ..." rendering of @p config. */
std::string describeConfig(const MachineConfig &config);

} // namespace flexsnoop

#endif // FLEXSNOOP_CORE_CONFIG_PARSER_HH
