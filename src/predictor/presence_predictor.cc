#include "predictor/presence_predictor.hh"

namespace flexsnoop
{

PresencePredictor::PresencePredictor(const std::string &name,
                                     std::vector<unsigned> field_bits,
                                     Cycle latency)
    : _filter(std::move(field_bits)), _latency(latency), _stats(name)
{
}

bool
PresencePredictor::mayBePresent(Addr line)
{
    _lookupsStat.inc();
    const bool maybe = _filter.mayContain(lineAddr(line));
    if (!maybe)
        _filteredStat.inc();
    return maybe;
}

} // namespace flexsnoop
