#include "uvm/block_store.hh"

#include <algorithm>
#include <ostream>

#include "sim/logging.hh"
#include "sim/validate.hh"

namespace deepum::uvm {

BlockIndex
BlockStore::findSlow(mem::BlockId b) const
{
    // First range strictly above b, then step back one: the only
    // candidate run that can contain it.
    auto it = std::upper_bound(
        ranges_.begin(), ranges_.end(), b,
        [](mem::BlockId v, const Range &r) { return v < r.first; });
    if (it == ranges_.begin())
        return kNoBlockIndex;
    --it;
    if (b >= it->end)
        return kNoBlockIndex;
    hot_ = static_cast<std::size_t>(it - ranges_.begin());
    return it->base + static_cast<BlockIndex>(b - it->first);
}

const BlockStore::Range *
BlockStore::rangeContaining(mem::BlockId b) const
{
    if (find(b) == kNoBlockIndex)
        return nullptr;
    return &ranges_[hot_];
}

BlockIndex
BlockStore::allocSlots(BlockIndex n)
{
    // First fit by lowest slot keeps slot assignment a pure function
    // of the register/unregister history (determinism) and packs the
    // slab's hot front.
    for (std::size_t i = 0; i < freeRuns_.size(); ++i) {
        FreeRun &fr = freeRuns_[i];
        if (fr.len < n)
            continue;
        BlockIndex base = fr.base;
        fr.base += n;
        fr.len -= n;
        if (fr.len == 0)
            freeRuns_.erase(freeRuns_.begin() +
                            static_cast<std::ptrdiff_t>(i));
        return base;
    }
    BlockIndex base = static_cast<BlockIndex>(slab_.size());
    slab_.resize(slab_.size() + n);
    ids_.resize(ids_.size() + n, kNoBlock);
    return base;
}

void
BlockStore::freeSlots(BlockIndex base, BlockIndex n)
{
    auto it = std::lower_bound(
        freeRuns_.begin(), freeRuns_.end(), base,
        [](const FreeRun &fr, BlockIndex b) { return fr.base < b; });
    it = freeRuns_.insert(it, FreeRun{base, n});
    // Coalesce with the successor, then the predecessor.
    auto next = it + 1;
    if (next != freeRuns_.end() && it->base + it->len == next->base) {
        it->len += next->len;
        it = freeRuns_.erase(next) - 1;
    }
    if (it != freeRuns_.begin()) {
        auto prev = it - 1;
        if (prev->base + prev->len == it->base) {
            prev->len += it->len;
            freeRuns_.erase(it);
        }
    }
}

BlockIndex
BlockStore::registerRun(mem::BlockId first, mem::BlockId end)
{
    DEEPUM_ASSERT(first < end, "registering an empty block run");
    auto it = std::lower_bound(
        ranges_.begin(), ranges_.end(), first,
        [](const Range &r, mem::BlockId v) { return r.first < v; });
    if (it != ranges_.end() && it->first < end)
        sim::panic("registerRange: block %llu already registered",
                   static_cast<unsigned long long>(it->first));
    if (it != ranges_.begin() && (it - 1)->end > first)
        sim::panic("registerRange: block %llu already registered",
                   static_cast<unsigned long long>(first));

    BlockIndex n = static_cast<BlockIndex>(end - first);
    BlockIndex base = allocSlots(n);
    // allocSlots can reshuffle/grow; recompute the insertion point.
    it = std::lower_bound(
        ranges_.begin(), ranges_.end(), first,
        [](const Range &r, mem::BlockId v) { return r.first < v; });
    hot_ = static_cast<std::size_t>(
        ranges_.insert(it, Range{first, end, base}) - ranges_.begin());

    for (BlockIndex i = 0; i < n; ++i) {
        slab_[base + i] = BlockInfo{};
        ids_[base + i] = first + i;
    }
    size_ += n;
    ++layoutVersion_;
    return base;
}

void
BlockStore::unregisterRun(mem::BlockId first, mem::BlockId end)
{
    const Range *r = rangeContaining(first);
    if (r == nullptr)
        sim::panic("unregisterRange: unknown block %llu",
                   static_cast<unsigned long long>(first));
    if (r->first != first || r->end != end)
        sim::panic("unregisterRange: [%llu, %llu) is not a registered "
                   "run",
                   static_cast<unsigned long long>(first),
                   static_cast<unsigned long long>(end));

    BlockIndex n = static_cast<BlockIndex>(end - first);
    BlockIndex base = r->base;
    for (BlockIndex i = 0; i < n; ++i) {
        DEEPUM_ASSERT(slab_[base + i].lruRank == kNoLruRank,
                      "unregistering a block still in the LRU");
        if (slab_[base + i].pinned)
            --pinnedCount_;
        slab_[base + i] = BlockInfo{};
        ids_[base + i] = kNoBlock;
    }
    ranges_.erase(ranges_.begin() + static_cast<std::ptrdiff_t>(hot_));
    hot_ = 0;
    freeSlots(base, n);
    size_ -= n;
    ++layoutVersion_;
}

void
BlockStore::RankBitmap::reset(std::size_t ranks)
{
    std::size_t words = ranks / 64;
    words_.assign(words, 0);
    summary_.assign((words + 63) / 64, 0);
}

void
BlockStore::relabel()
{
    // Twice the resident set (plus the block being pushed) leaves at
    // least lruSize_ + 1 pushes before the next relabel, which costs
    // O(lruSize_): O(1) amortized per push.
    std::size_t ranks = std::max<std::size_t>(2 * (lruSize_ + 1), 64);
    ranks = (ranks + 63) / 64 * 64;
    unpinned_.reset(ranks);
    evictable_.reset(ranks);
    // Forward compaction: the write rank never passes the read rank,
    // so the blocks slide down over the holes in order.
    LruRank w = 0;
    for (LruRank r = 0; r < nextRank_; ++r) {
        BlockIndex i = rankSlot_[r];
        if (i == kNoBlockIndex)
            continue;
        rankSlot_[w] = i;
        slab_[i].lruRank = w++;
        syncVictimBits(slab_[i]);
    }
    rankSlot_.resize(ranks);
    std::fill(rankSlot_.begin() + w, rankSlot_.end(), kNoBlockIndex);
    nextRank_ = w;
}

void
BlockStore::checkInvariants(sim::CheckContext &ctx) const
{
    // Run table: sorted, disjoint, sane slot spans, backrefs exact.
    std::size_t live = 0;
    mem::BlockId prev_end = 0;
    bool have_prev = false;
    for (const Range &r : ranges_) {
        ctx.require(r.first < r.end,
                    "empty registered run at block %llu",
                    static_cast<unsigned long long>(r.first));
        ctx.require(!have_prev || r.first >= prev_end,
                    "run [%llu, %llu) overlaps or precedes its "
                    "predecessor ending at %llu",
                    static_cast<unsigned long long>(r.first),
                    static_cast<unsigned long long>(r.end),
                    static_cast<unsigned long long>(prev_end));
        prev_end = r.end;
        have_prev = true;
        std::uint64_t n = r.end - r.first;
        live += n;
        ctx.require(std::uint64_t(r.base) + n <= slab_.size(),
                    "run [%llu, %llu) slots [%u, %llu) exceed the "
                    "%zu-slot slab",
                    static_cast<unsigned long long>(r.first),
                    static_cast<unsigned long long>(r.end), r.base,
                    static_cast<unsigned long long>(r.base + n),
                    slab_.size());
        BlockIndex i = r.base;
        for (mem::BlockId b = r.first; b != r.end; ++b, ++i)
            ctx.require(ids_[i] == b,
                        "slot %u backref names block %llu, run maps "
                        "block %llu",
                        i, static_cast<unsigned long long>(ids_[i]),
                        static_cast<unsigned long long>(b));
    }
    ctx.require(live == size_,
                "run table covers %zu blocks, live counter says %zu",
                live, size_);
    ctx.require(slab_.size() == ids_.size(),
                "slab holds %zu records, backref array %zu",
                slab_.size(), ids_.size());

    // Free list: sorted, coalesced, scrubbed records, and together
    // with the live runs covering the slab exactly.
    std::size_t freed = 0;
    BlockIndex prev_free_end = 0;
    bool have_free = false;
    for (const FreeRun &fr : freeRuns_) {
        ctx.require(fr.len > 0, "empty free run at slot %u", fr.base);
        ctx.require(!have_free || fr.base > prev_free_end,
                    "free run at slot %u not coalesced with "
                    "predecessor ending at %u",
                    fr.base, prev_free_end);
        prev_free_end = fr.base + fr.len;
        have_free = true;
        ctx.require(std::uint64_t(fr.base) + fr.len <= slab_.size(),
                    "free run [%u, %llu) exceeds the %zu-slot slab",
                    fr.base,
                    static_cast<unsigned long long>(fr.base + fr.len),
                    slab_.size());
        freed += fr.len;
        for (BlockIndex i = fr.base; i != fr.base + fr.len; ++i) {
            ctx.require(ids_[i] == kNoBlock,
                        "free slot %u still backrefs block %llu", i,
                        static_cast<unsigned long long>(ids_[i]));
            ctx.require(slab_[i].lruRank == kNoLruRank,
                        "free slot %u still in the LRU", i);
            ctx.require(!slab_[i].pinned && !slab_[i].held,
                        "free slot %u still pinned or held", i);
        }
    }
    ctx.require(live + freed == slab_.size(),
                "%zu live + %zu free slots do not cover the %zu-slot "
                "slab",
                live, freed, slab_.size());

    // Rank array <-> records, both directions: every occupied rank
    // below nextRank_ names a live slot whose rank is that rank,
    // every other rank is empty, and every ranked record is named by
    // its rank. The rank walk also recomputes both victim bitmaps
    // from the pinned/held bits.
    ctx.require(nextRank_ <= rankSlot_.size(),
                "next rank %u beyond the %zu-rank space", nextRank_,
                rankSlot_.size());
    std::size_t rank_words = rankSlot_.size() / 64;
    std::vector<std::uint64_t> want_unpinned(rank_words, 0);
    std::vector<std::uint64_t> want_evictable(rank_words, 0);
    std::size_t in_lru = 0;
    for (LruRank r = 0; r < rankSlot_.size(); ++r) {
        BlockIndex i = rankSlot_[r];
        if (i == kNoBlockIndex)
            continue;
        ctx.require(r < nextRank_,
                    "rank %u names slot %u at or past next rank %u", r,
                    i, nextRank_);
        ctx.require(i < slab_.size() && ids_[i] != kNoBlock,
                    "rank %u names slot %u, not a live slot of the "
                    "%zu-slot slab",
                    r, i, slab_.size());
        if (i >= slab_.size())
            continue;
        ctx.require(slab_[i].lruRank == r,
                    "rank %u names slot %u, whose rank is %u", r, i,
                    slab_[i].lruRank);
        ++in_lru;
        std::uint64_t bit = std::uint64_t(1) << (r & 63);
        if (!slab_[i].pinned)
            want_unpinned[r >> 6] |= bit;
        if (!slab_[i].pinned && !slab_[i].held)
            want_evictable[r >> 6] |= bit;
    }
    std::size_t ranked = 0;
    std::size_t pinned = 0;
    for (BlockIndex i = 0; i < slab_.size(); ++i) {
        LruRank r = slab_[i].lruRank;
        if (slab_[i].pinned)
            ++pinned;
        if (r == kNoLruRank)
            continue;
        ++ranked;
        ctx.require(r < nextRank_ && r < rankSlot_.size() &&
                        rankSlot_[r] == i,
                    "slot %u has rank %u, which does not name it", i,
                    r);
    }
    auto check_bitmap = [&](const char *name, const RankBitmap &bm,
                            const std::vector<std::uint64_t> &want) {
        ctx.require(bm.words() == want,
                    "%s bitmap disagrees with the LRU's pinned/held "
                    "bits",
                    name);
        bool summary_ok = bm.summary().size() == (want.size() + 63) / 64;
        for (std::size_t w = 0; summary_ok && w < want.size(); ++w)
            summary_ok = ((bm.summary()[w >> 6] >> (w & 63)) & 1) ==
                         (bm.words()[w] != 0 ? 1u : 0u);
        ctx.require(summary_ok,
                    "%s bitmap summary disagrees with its words", name);
    };
    check_bitmap("unpinned", unpinned_, want_unpinned);
    check_bitmap("evictable", evictable_, want_evictable);
    ctx.require(ranked == lruSize_,
                "%zu slots carry an LRU rank, LRU size is %zu", ranked,
                lruSize_);
    ctx.require(in_lru == lruSize_,
                "%zu ranks name a slot, LRU size is %zu", in_lru,
                lruSize_);
    ctx.require(pinned == pinnedCount_,
                "pinned count %zu disagrees with %zu pinned records",
                pinnedCount_, pinned);
}

void
BlockStore::dumpState(std::ostream &os) const
{
    os << "BlockStore{blocks=" << size_ << " slab=" << slab_.size()
       << " ranges=" << ranges_.size()
       << " freeRuns=" << freeRuns_.size() << " lru=" << lruSize_
       << " pinned=" << pinnedCount_
       << " ranks=" << rankSlot_.size() << " nextRank=" << nextRank_
       << "}\n";
    for (const Range &r : ranges_)
        os << "  range [" << r.first << ", " << r.end << ") -> slots ["
           << r.base << ", " << r.base + (r.end - r.first) << ")\n";
    os << "  free:";
    for (const FreeRun &fr : freeRuns_)
        os << " [" << fr.base << ", " << fr.base + fr.len << ")";
    os << "\n";
}

} // namespace deepum::uvm
