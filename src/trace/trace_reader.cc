#include "trace/trace_reader.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <utility>

namespace flexsnoop
{

TraceFile::TraceFile(std::vector<TraceRecord> records)
    : _owned(std::move(records))
{
    this->records = _owned;
}

TraceFile::TraceFile(TraceFile &&other) noexcept
    : header(other.header), records(std::exchange(other.records, {})),
      _owned(std::move(other._owned)),
      _mapping(std::move(other._mapping))
{
}

TraceFile &
TraceFile::operator=(TraceFile &&other) noexcept
{
    // Self-move would empty _owned under the span that views it.
    if (this != &other) {
        header = other.header;
        records = std::exchange(other.records, {});
        _owned = std::move(other._owned);
        _mapping = std::move(other._mapping);
    }
    return *this;
}

void
TraceFile::Unmap::operator()(const void *addr) const
{
    ::munmap(const_cast<void *>(addr), bytes);
}

TraceFile
loadTrace(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        throw std::runtime_error("cannot open trace file: " + path);
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        throw std::runtime_error("cannot size trace file: " + path);
    }
    const auto bytes = static_cast<std::size_t>(st.st_size);
    if (bytes < sizeof(TraceFileHeader)) {
        ::close(fd);
        throw std::runtime_error("trace file too short for a header: " +
                                 path);
    }

    int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    flags |= MAP_POPULATE; // fault the pages in now, in one pass
#endif
    void *addr = ::mmap(nullptr, bytes, PROT_READ, flags, fd, 0);
    ::close(fd); // the mapping keeps the file open
    if (addr == MAP_FAILED)
        throw std::runtime_error("cannot map trace file: " + path);

    TraceFile out;
    out._mapping = {addr, TraceFile::Unmap{bytes}};
    const auto *base = static_cast<const unsigned char *>(addr);
    std::memcpy(&out.header, base, sizeof(out.header));
    if (std::memcmp(out.header.magic, kTraceMagic, sizeof(kTraceMagic)) !=
        0)
        throw std::runtime_error("not a .fstrace file (bad magic): " +
                                 path);
    if (out.header.version != kTraceVersion)
        throw std::runtime_error(
            "unsupported trace version " +
            std::to_string(out.header.version) + ": " + path);
    if (out.header.recordSize != sizeof(TraceRecord))
        throw std::runtime_error(
            "unsupported trace record size " +
            std::to_string(out.header.recordSize) + ": " + path);

    // The record count comes from the file length; the header count
    // (when the sink finished cleanly) must then agree.
    const std::size_t payload = bytes - sizeof(TraceFileHeader);
    if (payload % sizeof(TraceRecord) != 0)
        throw std::runtime_error("trace file has a truncated record "
                                 "tail: " +
                                 path);
    const std::size_t count = payload / sizeof(TraceRecord);
    if (out.header.recorded != 0 && out.header.recorded != count)
        throw std::runtime_error(
            "trace header count (" + std::to_string(out.header.recorded) +
            ") disagrees with file length (" + std::to_string(count) +
            " records): " + path);

    // The mapping is page-aligned and the header 64 bytes, so the
    // records are aligned; mmap creates their bytes, and TraceRecord is
    // an implicit-lifetime type (C++23 would say start_lifetime_as).
    out.records = {
        reinterpret_cast<const TraceRecord *>(base +
                                              sizeof(TraceFileHeader)),
        count};
    return out;
}

} // namespace flexsnoop
