#include "core/block_correlation_table.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <ostream>

#include "sim/logging.hh"
#include "sim/validate.hh"

namespace deepum::core {

namespace {

/** SplitMix64-style avalanche so adjacent blocks spread over sets. */
std::uint64_t
mix(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

BlockCorrelationTable::BlockCorrelationTable(const BlockTableConfig &cfg)
    : cfg_(cfg)
{
    DEEPUM_ASSERT(cfg_.numRows > 0 && cfg_.assoc > 0 && cfg_.numSuccs > 0,
                  "degenerate block-table geometry");
    DEEPUM_ASSERT(cfg_.numSuccs <= kMaxNumSuccs,
                  "%u successors per entry exceed %u: a walk plan "
                  "counts one visit's successors in a byte",
                  cfg_.numSuccs, kMaxNumSuccs);
    const std::size_t ways = std::size_t(cfg_.numRows) * cfg_.assoc;
    entries_.resize(ways);
    occupied_.assign((ways + 63) / 64, 0);
    succSlab_.assign(ways * cfg_.numSuccs, uvm::kNoBlock);
}

std::size_t
BlockCorrelationTable::setIndex(mem::BlockId b) const
{
    return static_cast<std::size_t>(mix(b) % cfg_.numRows);
}

BlockCorrelationTable::Entry *
BlockCorrelationTable::find(mem::BlockId b)
{
    return findEntry(*this, b);
}

const BlockCorrelationTable::Entry *
BlockCorrelationTable::find(mem::BlockId b) const
{
    return findEntry(*this, b);
}

void
BlockCorrelationTable::record(mem::BlockId prev, mem::BlockId next)
{
    Entry *e = find(prev);
    if (e == nullptr) {
        // Allocate a way: first invalid, otherwise LRU replacement.
        Entry *base = &entries_[setIndex(prev) * cfg_.assoc];
        Entry *victim = &base[0];
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
            if (base[w].tag == uvm::kNoBlock) {
                victim = &base[w];
                break;
            }
            if (base[w].lastUse < victim->lastUse)
                victim = &base[w];
        }
        if (victim->tag != uvm::kNoBlock)
            ++replacements_;
        const auto way = static_cast<std::size_t>(victim - entries_.data());
        occupied_[way / 64] |= std::uint64_t{1} << (way % 64);
        victim->tag = prev;
        victim->succCount = 0;
        e = victim;
    }
    ++version_;
    e->lastUse = ++useClock_;
    e->lastEpoch = epoch_;

    mem::BlockId *s = succsOf(static_cast<std::size_t>(e - entries_.data()));
    for (std::uint32_t i = 0; i < e->succCount; ++i) {
        if (s[i] != next)
            continue;
        // Refresh to MRU position: slide [0, i) up one, put next at 0.
        std::memmove(s + 1, s, i * sizeof(mem::BlockId));
        s[0] = next;
        return;
    }
    // Insert at MRU, dropping the LRU slot when at capacity.
    std::uint32_t keep = std::min(e->succCount, cfg_.numSuccs - 1);
    std::memmove(s + 1, s, keep * sizeof(mem::BlockId));
    s[0] = next;
    e->succCount = keep + 1;
}

void
BlockCorrelationTable::captureStartEnd(mem::BlockId start,
                                       mem::BlockId end,
                                       std::uint32_t len)
{
    ++epoch_;
    ++version_;
    constexpr std::uint32_t kMaxStaleRejects = 4;
    if (2 * len >= bestLen_) {
        start_ = start;
        end_ = end;
        if (len > bestLen_)
            bestLen_ = len;
        staleRejects_ = 0;
        return;
    }
    if (++staleRejects_ > kMaxStaleRejects) {
        // The pattern really did shrink; adopt it.
        start_ = start;
        end_ = end;
        bestLen_ = len;
        staleRejects_ = 0;
    }
}

SuccView
BlockCorrelationTable::successors(mem::BlockId b) const
{
    const Entry *e = find(b);
    if (e == nullptr)
        return SuccView{};
    return SuccView{
        succsOf(static_cast<std::size_t>(e - entries_.data())),
        e->succCount};
}

void
BlockCorrelationTable::freshWays(std::uint32_t window,
                                 std::vector<std::uint32_t> &out) const
{
    out.clear();
    for (std::size_t word = 0; word < occupied_.size(); ++word) {
        for (std::uint64_t bits = occupied_[word]; bits != 0;
             bits &= bits - 1) {
            const auto way = static_cast<std::uint32_t>(
                word * 64 + unsigned(std::countr_zero(bits)));
            if (entries_[way].lastEpoch + window >= epoch_)
                support::pushAmortized(out, way);
        }
    }
}

void
BlockCorrelationTable::refresh(mem::BlockId b)
{
    if (Entry *e = find(b))
        touch(*e);
}

std::uint32_t
BlockCorrelationTable::wayOf(mem::BlockId b) const
{
    const Entry *e = find(b);
    return e == nullptr ? kNoWay
                        : static_cast<std::uint32_t>(e - entries_.data());
}

void
BlockCorrelationTable::erase(mem::BlockId b)
{
    Entry *e = find(b);
    if (e == nullptr)
        return;
    resetWay(static_cast<std::size_t>(e - entries_.data()));
    ++version_;
}

void
BlockCorrelationTable::eraseRange(mem::BlockId first, mem::BlockId end)
{
    // Always a new version, even when nothing here names the range:
    // this bump is what retires every walk plan that holds a slab
    // slot of the freed range, before a registration can hand the
    // slot to another block. (A registration alone leaves plans live:
    // it never moves a registered block's slot.)
    ++version_;
    auto dead = [first, end](mem::BlockId b) {
        return b >= first && b < end;
    };
    for (std::size_t way = 0; way < entries_.size(); ++way) {
        Entry &e = entries_[way];
        if (e.tag == uvm::kNoBlock)
            continue;
        if (dead(e.tag)) {
            resetWay(way);
            continue;
        }
        // Compact the inline successor window, preserving MRU order.
        mem::BlockId *s = succsOf(way);
        std::uint32_t n = 0;
        for (std::uint32_t i = 0; i < e.succCount; ++i) {
            if (!dead(s[i]))
                s[n++] = s[i];
        }
        e.succCount = n;
    }
    if (start_ != uvm::kNoBlock && dead(start_))
        start_ = uvm::kNoBlock;
    if (end_ != uvm::kNoBlock && dead(end_))
        end_ = uvm::kNoBlock;
}

void
BlockCorrelationTable::checkInvariants(sim::CheckContext &ctx) const
{
    ctx.require(succSlab_.size() ==
                    entries_.size() * std::size_t(cfg_.numSuccs),
                "successor slab holds %zu slots for %zu ways of %u",
                succSlab_.size(), entries_.size(), cfg_.numSuccs);
    ctx.require(occupied_.size() == (entries_.size() + 63) / 64,
                "occupied bitmap holds %zu words for %zu ways",
                occupied_.size(), entries_.size());
    // Bits past the last way would be swept as ways that do not exist.
    if (entries_.size() % 64 != 0)
        ctx.require((occupied_.back() >> (entries_.size() % 64)) == 0,
                    "occupied bitmap marks ways past the %zu-way slab",
                    entries_.size());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        const std::size_t set = i / cfg_.assoc;
        const bool bit = (occupied_[i / 64] >> (i % 64)) & 1;
        ctx.require(bit == (e.tag != uvm::kNoBlock),
                    "occupied bit %d of way %zu disagrees with its tag",
                    int(bit), i);
        if (e.tag == uvm::kNoBlock) {
            ctx.require(e.succCount == 0 && e.lastUse == 0 &&
                            e.lastEpoch == 0,
                        "empty way %zu not fully reset", i);
            continue;
        }
        ctx.require(setIndex(e.tag) == set,
                    "tag %llu in set %zu hashes to set %zu",
                    static_cast<unsigned long long>(e.tag), set,
                    setIndex(e.tag));
        ctx.require(e.succCount <= cfg_.numSuccs,
                    "way %zu holds %u successors, max %u", i,
                    e.succCount, cfg_.numSuccs);
        ctx.require(e.lastUse <= useClock_,
                    "way %zu lastUse %llu beyond clock %llu", i,
                    static_cast<unsigned long long>(e.lastUse),
                    static_cast<unsigned long long>(useClock_));
        ctx.require(e.lastEpoch <= epoch_,
                    "way %zu lastEpoch %u beyond epoch %u", i,
                    e.lastEpoch, epoch_);
        const mem::BlockId *s = succsOf(i);
        for (std::uint32_t a = 0; a < e.succCount; ++a) {
            for (std::uint32_t b = a + 1; b < e.succCount; ++b)
                ctx.require(s[a] != s[b],
                            "way %zu successor %llu duplicated", i,
                            static_cast<unsigned long long>(s[a]));
        }
        // No duplicate tag in the same set.
        const Entry *base = &entries_[set * cfg_.assoc];
        for (std::uint32_t w = i % cfg_.assoc + 1; w < cfg_.assoc; ++w)
            ctx.require(base[w].tag != e.tag,
                        "tag %llu duplicated within set %zu",
                        static_cast<unsigned long long>(e.tag), set);
    }
}

void
BlockCorrelationTable::dumpState(std::ostream &os) const
{
    os << "BlockCorrelationTable{rows=" << cfg_.numRows
       << " assoc=" << cfg_.assoc << " succs=" << cfg_.numSuccs
       << " live=" << entryCount() << " start=" << start_
       << " end=" << end_ << " epoch=" << epoch_
       << " useClock=" << useClock_ << "}\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        if (e.tag == uvm::kNoBlock)
            continue;
        os << "  way " << i << ": tag=" << e.tag
           << " lastUse=" << e.lastUse << " lastEpoch=" << e.lastEpoch
           << " succs=[";
        const mem::BlockId *s = succsOf(i);
        for (std::uint32_t j = 0; j < e.succCount; ++j)
            os << (j != 0 ? " " : "") << s[j];
        os << "]\n";
    }
}

std::size_t
BlockCorrelationTable::entryCount() const
{
    std::size_t n = 0;
    for (const auto &e : entries_)
        if (e.tag != uvm::kNoBlock)
            ++n;
    return n;
}

std::uint64_t
BlockCorrelationTable::sizeBytes() const
{
    // tag + lastUse + numSuccs successor slots per way, plus the
    // start/end pointers. Tables are allocated at full geometry.
    std::uint64_t per_entry =
        sizeof(mem::BlockId) + sizeof(std::uint64_t) +
        std::uint64_t(cfg_.numSuccs) * sizeof(mem::BlockId);
    return std::uint64_t(cfg_.numRows) * cfg_.assoc * per_entry +
           2 * sizeof(mem::BlockId);
}

BlockCorrelationTable &
BlockCorrelationTableSet::getOrCreate(ExecId id)
{
    DEEPUM_ASSERT(id != kNoExecId, "table lookup for kNoExecId");
    if (id >= tables_.size())
        tables_.resize(std::size_t(id) + 1);
    if (tables_[id] == nullptr) {
        tables_[id] = std::make_unique<BlockCorrelationTable>(cfg_);
        ++count_;
    }
    return *tables_[id];
}

std::uint64_t
BlockCorrelationTableSet::totalSizeBytes() const
{
    std::uint64_t bytes = 0;
    for (const auto &t : tables_)
        if (t != nullptr)
            bytes += t->sizeBytes();
    return bytes;
}

void
BlockCorrelationTableSet::eraseBlocksInRange(mem::BlockId first,
                                             mem::BlockId end)
{
    for (auto &t : tables_)
        if (t != nullptr)
            t->eraseRange(first, end);
}

void
BlockCorrelationTableSet::checkInvariants(sim::CheckContext &ctx) const
{
    std::size_t live = 0;
    for (const auto &t : tables_) {
        if (t == nullptr)
            continue;
        ++live;
        t->checkInvariants(ctx);
    }
    ctx.require(live == count_,
                "table count %zu disagrees with %zu live slots",
                count_, live);
}

void
BlockCorrelationTableSet::dumpState(std::ostream &os) const
{
    os << "BlockCorrelationTableSet{tables=" << count_ << "}\n";
    for (ExecId id = 0; id < tables_.size(); ++id) {
        if (tables_[id] == nullptr)
            continue;
        os << " exec " << id << ": ";
        tables_[id]->dumpState(os);
    }
}

} // namespace deepum::core
