#include "core/exec_correlation_table.hh"

#include <algorithm>
#include <ostream>

#include "sim/logging.hh"
#include "sim/validate.hh"

namespace deepum::core {

void
ExecCorrelationTable::record(ExecId cur, const ExecHistory &hist,
                             ExecId next)
{
    DEEPUM_ASSERT(cur != kNoExecId, "record under kNoExecId");
    growEntries(cur);
    Entry &e = entries_[cur];
    if (e.empty())
        ++liveEntries_;
    auto hit = std::find_if(e.begin(), e.end(), [&](const Record &r) {
        return r.hist == hist && r.next == next;
    });
    if (hit == e.end()) {
        // A history never seen before: the only growth.
        support::pushAmortized(e, Record{hist, next});
        hit = e.end() - 1;
    }
    std::rotate(e.begin(), hit, hit + 1);
}

ExecId
ExecCorrelationTable::predict(ExecId cur, const ExecHistory &hist) const
{
    if (cur >= entries_.size() || entries_[cur].empty())
        return kNoExecId;
    const Entry &e = entries_[cur];
    for (const Record &r : e) {
        if (r.hist == hist)
            return r.next;
    }
    return e.front().next;
}

std::size_t
ExecCorrelationTable::recordCount(ExecId cur) const
{
    return cur < entries_.size() ? entries_[cur].size() : 0;
}

std::uint64_t
ExecCorrelationTable::sizeBytes() const
{
    std::uint64_t bytes = 0;
    for (const Entry &e : entries_) {
        if (!e.empty())
            bytes += sizeof(ExecId) + e.size() * sizeof(Record);
    }
    return bytes;
}

void
ExecCorrelationTable::checkInvariants(sim::CheckContext &ctx) const
{
    std::size_t live = 0;
    for (ExecId id = 0; id < entries_.size(); ++id) {
        const Entry &e = entries_[id];
        if (!e.empty())
            ++live;
        for (std::size_t a = 0; a < e.size(); ++a) {
            for (std::size_t b = a + 1; b < e.size(); ++b)
                ctx.require(!(e[a].hist == e[b].hist &&
                              e[a].next == e[b].next),
                            "exec %u holds a duplicate (history, "
                            "next=%u) record",
                            id, e[a].next);
        }
    }
    ctx.require(live == liveEntries_,
                "live-entry counter %zu disagrees with %zu live "
                "entries",
                liveEntries_, live);
}

void
ExecCorrelationTable::dumpState(std::ostream &os) const
{
    os << "ExecCorrelationTable{entries=" << liveEntries_ << "}\n";
    for (ExecId id = 0; id < entries_.size(); ++id) {
        const Entry &e = entries_[id];
        if (e.empty())
            continue;
        os << "  exec " << id << ":";
        for (const Record &r : e) {
            os << " [(" << r.hist[0] << "," << r.hist[1] << ","
               << r.hist[2] << ")->" << r.next << "]";
        }
        os << "\n";
    }
}

} // namespace deepum::core
