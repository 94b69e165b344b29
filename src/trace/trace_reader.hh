/**
 * @file
 * Offline decoder for `.fstrace` files (docs/TRACING.md): validates the
 * header and maps the record stream for the analysis library and the
 * flexsnoop_trace CLI.
 */

#ifndef FLEXSNOOP_TRACE_TRACE_READER_HH
#define FLEXSNOOP_TRACE_TRACE_READER_HH

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/trace_format.hh"

namespace flexsnoop
{

/**
 * A decoded trace file. loadTrace() maps the file read-only and
 * `records` views the mapping, so nothing is copied; the in-memory
 * constructor owns its records instead. Either way `records` (and every
 * view taken of it) is valid only while this TraceFile lives: it is
 * move-only, and a move hands the storage over intact.
 */
class TraceFile
{
  public:
    /** An in-memory file owning @p records (header zero-filled). */
    explicit TraceFile(std::vector<TraceRecord> records);

    TraceFile(TraceFile &&other) noexcept;
    TraceFile &operator=(TraceFile &&other) noexcept;
    TraceFile(const TraceFile &) = delete;
    TraceFile &operator=(const TraceFile &) = delete;

    TraceFileHeader header;
    std::span<const TraceRecord> records; ///< file order (capture order)

  private:
    friend TraceFile loadTrace(const std::string &path);

    /** Unmaps a loadTrace() mapping of `bytes` bytes. No default
     *  member initializer: unique_ptr needs Unmap default-constructible
     *  inside this class, and value-initialisation zeroes it anyway. */
    struct Unmap
    {
        std::size_t bytes;
        void operator()(const void *addr) const;
    };

    TraceFile() = default;

    std::vector<TraceRecord> _owned;
    std::unique_ptr<const void, Unmap> _mapping;
};

/**
 * Map and validate @p path. The mapping outlives an unlink of the file,
 * but truncating the file while it is mapped makes reading the lost
 * records raise SIGBUS.
 *
 * @throws std::runtime_error on open failure, bad magic, unsupported
 *         version/record size, or a truncated record tail. A header
 *         whose `recorded` count is zero (sink crashed before
 *         finish()) is accepted; the record count then comes from the
 *         file length.
 */
TraceFile loadTrace(const std::string &path);

} // namespace flexsnoop

#endif // FLEXSNOOP_TRACE_TRACE_READER_HH
