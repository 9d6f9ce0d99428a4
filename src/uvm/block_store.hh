/**
 * @file
 * Dense per-block metadata store for the UM driver.
 *
 * UM allocations are contiguous runs of 2 MiB blocks, so the store
 * maps BlockId -> dense slab index with a small sorted table of
 * registered runs: one range probe plus a subtract, no hashing. The
 * BlockInfo records live in a contiguous slab (vector), the
 * least-recently-migrated list is intrusive prev/next slab indices
 * inside BlockInfo, and freed runs go on a coalescing free list so
 * register/unregister churn reuses slots instead of growing the slab.
 *
 * This replaces the driver's former unordered_map block table,
 * std::list LRU with its position side-map, and the outstanding-fault
 * hash set (now a bit in the record) — the per-event hashing and
 * pointer-chasing on the fault path's hottest lookups.
 *
 * Victim selection is an index over the LRU, not a walk of it: every
 * resident block carries a monotone LRU rank, and two rank-keyed
 * two-level bitmaps mark the resident blocks that are unpinned and
 * those that are unpinned and not held. The oldest candidate of
 * either kind is a find-first-set, however many blocks are pinned or
 * held (DESIGN.md §3.9).
 *
 * Everything here is deterministic by construction: lookups are pure,
 * iteration orders are slab/BlockId order or the intrusive list, and
 * slot assignment depends only on the register/unregister history.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "mem/addr.hh"
#include "support/annotations.hh"
#include "uvm/block_info.hh"

namespace deepum::sim {
class CheckContext;
}

namespace deepum::uvm {

/** Dense BlockId -> BlockInfo store with an intrusive LRU. */
class BlockStore
{
  public:
    /** One registered run of blocks, mapped to contiguous slots. */
    struct Range {
        mem::BlockId first = kNoBlock; ///< first block of the run
        mem::BlockId end = kNoBlock;   ///< one past the last block
        BlockIndex base = kNoBlockIndex; ///< slab slot of `first`
    };

    // --- lookup (the fault-path hot probe) --------------------------

    /** Slab index of @p b, or kNoBlockIndex when unregistered. */
    DEEPUM_NOALLOC BlockIndex
    find(mem::BlockId b) const
    {
        // One-entry cache: faults, migrations and walks hit the same
        // allocation repeatedly, making the common probe two compares.
        std::size_t h = hot_;
        if (h < ranges_.size()) {
            const Range &r = ranges_[h];
            if (b >= r.first && b < r.end)
                return r.base + static_cast<BlockIndex>(b - r.first);
        }
        return findSlow(b);
    }

    /** True if @p b is registered. */
    DEEPUM_NOALLOC bool
    contains(mem::BlockId b) const
    {
        return find(b) != kNoBlockIndex;
    }

    /** The record in slot @p i (must be a live slot). */
    DEEPUM_NOALLOC BlockInfo &at(BlockIndex i) { return slab_[i]; }
    DEEPUM_NOALLOC const BlockInfo &
    at(BlockIndex i) const
    {
        return slab_[i];
    }

    /** BlockId backing slot @p i (kNoBlock for free slots). */
    DEEPUM_NOALLOC mem::BlockId idAt(BlockIndex i) const { return ids_[i]; }

    /** Registered (live) blocks. */
    std::size_t size() const { return size_; }

    /** Total slab slots ever allocated (live + free); scratch-array
     * sizing bound for index-keyed side structures. */
    std::size_t slabSize() const { return slab_.size(); }

    /** The registered run containing @p b, or nullptr. */
    DEEPUM_NOALLOC const Range *rangeContaining(mem::BlockId b) const;

    // --- registration ----------------------------------------------

    /**
     * Register the run [first, end) and return the slab slot of
     * @p first; the run's blocks occupy contiguous slots with
     * default-constructed records. Panics if any block of the run is
     * already registered.
     */
    DEEPUM_INVALIDATES_VIEWS
    BlockIndex registerRun(mem::BlockId first, mem::BlockId end);

    /**
     * Unregister the run [first, end), which must exactly match one
     * registered run; its slots join the free list (coalesced). The
     * caller must already have unlinked resident blocks from the LRU.
     */
    DEEPUM_INVALIDATES_VIEWS
    void unregisterRun(mem::BlockId first, mem::BlockId end);

    // --- intrusive least-recently-migrated list ---------------------

    /**
     * Append slot @p i (must not be linked) at the MRU end, with the
     * next LRU rank (relabelling the list first when the rank space
     * is used up).
     */
    DEEPUM_NOALLOC void
    lruPushBack(BlockIndex i)
    {
        if (nextRank_ == rankSlot_.size())
            relabel();
        BlockInfo &bi = slab_[i];
        bi.lruRank = nextRank_++;
        rankSlot_[bi.lruRank] = i;
        syncVictimBits(bi);
        bi.lruPrev = lruTail_;
        bi.lruNext = kNoBlockIndex;
        if (lruTail_ != kNoBlockIndex)
            slab_[lruTail_].lruNext = i;
        else
            lruHead_ = i;
        lruTail_ = i;
        ++lruSize_;
    }

    /** Unlink slot @p i (must be linked) and drop its rank. */
    DEEPUM_NOALLOC void
    lruErase(BlockIndex i)
    {
        BlockInfo &bi = slab_[i];
        unpinned_.clear(bi.lruRank);
        evictable_.clear(bi.lruRank);
        bi.lruRank = kNoLruRank;
        if (bi.lruPrev != kNoBlockIndex)
            slab_[bi.lruPrev].lruNext = bi.lruNext;
        else
            lruHead_ = bi.lruNext;
        if (bi.lruNext != kNoBlockIndex)
            slab_[bi.lruNext].lruPrev = bi.lruPrev;
        else
            lruTail_ = bi.lruPrev;
        bi.lruPrev = kNoBlockIndex;
        bi.lruNext = kNoBlockIndex;
        --lruSize_;
    }

    /** Oldest-migrated slot (kNoBlockIndex when empty). */
    BlockIndex lruHead() const { return lruHead_; }

    /** Most-recently-migrated slot (kNoBlockIndex when empty). */
    BlockIndex lruTail() const { return lruTail_; }

    /** Linked (resident) blocks. */
    std::size_t lruSize() const { return lruSize_; }

    /**
     * Range-for view over the LRU as BlockIds, oldest migration
     * first — the shape the policies and audits consume. A
     * DEEPUM_VIEW: do not store one in a field/container or hold it
     * across registerRun()/unregisterRun() (slab growth and slot
     * reuse invalidate the traversal).
     */
    class DEEPUM_VIEW LruView
    {
      public:
        class iterator
        {
          public:
            iterator(const BlockStore *st, BlockIndex i)
                : st_(st), i_(i)
            {}

            mem::BlockId operator*() const { return st_->idAt(i_); }

            iterator &
            operator++()
            {
                i_ = st_->at(i_).lruNext;
                return *this;
            }

            bool
            operator==(const iterator &o) const
            {
                return i_ == o.i_;
            }
            bool
            operator!=(const iterator &o) const
            {
                return i_ != o.i_;
            }

          private:
            const BlockStore *st_;
            BlockIndex i_;
        };

        explicit LruView(const BlockStore *st) : st_(st) {}

        iterator begin() const { return {st_, st_->lruHead()}; }
        iterator end() const { return {st_, kNoBlockIndex}; }
        std::size_t size() const { return st_->lruSize(); }

      private:
        const BlockStore *st_;
    };

    DEEPUM_NOALLOC LruView lruOrder() const { return LruView(this); }

    /**
     * Renumber the LRU ranks 0..lruSize()-1 in list order and resize
     * the rank space to twice the resident set. lruPushBack calls it
     * when the ranks run out; public so tests can force one. Ranks
     * keep their relative order, so no query answer changes.
     */
    DEEPUM_ALLOC_OK("grows with the resident set")
    void relabel();

    // --- victim index (eviction policies) ---------------------------

    /** Oldest-migrated resident slot that is not pinned, or
     * kNoBlockIndex (the stock driver's victim). */
    DEEPUM_NOALLOC BlockIndex
    lruFirstUnpinned() const
    {
        return slotOfRank(unpinned_.first());
    }

    /** Oldest-migrated resident slot that is neither pinned nor
     * held, or kNoBlockIndex (DeepUM's pre-eviction victim). */
    DEEPUM_NOALLOC BlockIndex
    lruFirstEvictable() const
    {
        return slotOfRank(evictable_.first());
    }

    /** Set or clear slot @p i's pinned bit. */
    DEEPUM_NOALLOC void
    setPinned(BlockIndex i, bool on)
    {
        slab_[i].pinned = on;
        syncVictimBits(slab_[i]);
    }

    /** Set or clear slot @p i's held bit (free slots allowed). */
    DEEPUM_NOALLOC void
    setHeld(BlockIndex i, bool on)
    {
        slab_[i].held = on;
        syncVictimBits(slab_[i]);
    }

    // --- whole-store iteration (BlockId order, deterministic) -------

    /** Call fn(BlockId, BlockIndex) for every live block. */
    template <typename Fn>
    void
    forEachBlock(Fn &&fn) const
    {
        for (const Range &r : ranges_) {
            BlockIndex i = r.base;
            for (mem::BlockId b = r.first; b != r.end; ++b, ++i)
                fn(b, i);
        }
    }

    // --- validation (sim/validate.hh) -------------------------------

    /**
     * Audit the slab bookkeeping: run table sorted and disjoint,
     * every live slot's backref naming its mapped block, free runs
     * sorted/coalesced/disjoint from live slots with scrubbed
     * records, live + free covering the slab exactly, and the
     * intrusive LRU links forming one consistent list over live
     * slots with strictly increasing ranks, and both victim bitmaps
     * (words and summaries) equal to their recomputed predicates.
     */
    void checkInvariants(sim::CheckContext &ctx) const;

    /** Stream the run table and free list (violation dumps). */
    void dumpState(std::ostream &os) const;

  private:
    /** A run of free slab slots. */
    struct FreeRun {
        BlockIndex base = kNoBlockIndex;
        BlockIndex len = 0;
    };

    /**
     * A 64-ary two-level bitmap over LRU ranks: summary bit w is set
     * iff words_[w] != 0, so the lowest set rank is one summary scan
     * (rank space / 4096 words) plus two count-trailing-zeros.
     */
    class RankBitmap
    {
      public:
        /** Clear to @p ranks zero bits (a multiple of 64). */
        void reset(std::size_t ranks);

        void
        set(LruRank r)
        {
            words_[r >> 6] |= bit(r);
            summary_[r >> 12] |= bit(r >> 6);
        }

        void
        clear(LruRank r)
        {
            std::uint64_t &w = words_[r >> 6];
            w &= ~bit(r);
            if (w == 0)
                summary_[r >> 12] &= ~bit(r >> 6);
        }

        void
        assign(LruRank r, bool on)
        {
            if (on)
                set(r);
            else
                clear(r);
        }

        /** Lowest set rank, or kNoLruRank. */
        LruRank
        first() const
        {
            for (std::size_t s = 0; s < summary_.size(); ++s) {
                if (summary_[s] == 0)
                    continue;
                std::size_t w =
                    s * 64 + std::size_t(std::countr_zero(summary_[s]));
                return static_cast<LruRank>(
                    w * 64 + std::size_t(std::countr_zero(words_[w])));
            }
            return kNoLruRank;
        }

        const std::vector<std::uint64_t> &words() const { return words_; }
        const std::vector<std::uint64_t> &
        summary() const
        {
            return summary_;
        }

      private:
        static std::uint64_t
        bit(std::uint64_t r)
        {
            return std::uint64_t(1) << (r & 63);
        }

        std::vector<std::uint64_t> words_;   ///< bit per rank
        std::vector<std::uint64_t> summary_; ///< bit per nonzero word
    };

    /** Re-derive a linked record's bits in both victim bitmaps. */
    DEEPUM_NOALLOC void
    syncVictimBits(const BlockInfo &bi)
    {
        if (bi.lruRank == kNoLruRank)
            return;
        unpinned_.assign(bi.lruRank, !bi.pinned);
        evictable_.assign(bi.lruRank, !bi.pinned && !bi.held);
    }

    DEEPUM_NOALLOC BlockIndex
    slotOfRank(LruRank r) const
    {
        return r == kNoLruRank ? kNoBlockIndex : rankSlot_[r];
    }

    DEEPUM_NOALLOC BlockIndex findSlow(mem::BlockId b) const;

    /** Allocate @p n contiguous slots (first fit, else slab growth). */
    BlockIndex allocSlots(BlockIndex n);

    /** Return slots [base, base+n) to the free list, coalescing. */
    void freeSlots(BlockIndex base, BlockIndex n);

    std::vector<Range> ranges_;      ///< sorted by first block
    std::vector<BlockInfo> slab_;    ///< records, dense by slot
    std::vector<mem::BlockId> ids_;  ///< slot -> block backref
    std::vector<FreeRun> freeRuns_;  ///< sorted by base, coalesced
    std::size_t size_ = 0;           ///< live blocks
    /**
     * Last range hit (probe cache). The hint never affects a find()
     * result, only which path computes it.
     */
    mutable std::size_t hot_ = 0;

    BlockIndex lruHead_ = kNoBlockIndex;
    BlockIndex lruTail_ = kNoBlockIndex;
    std::size_t lruSize_ = 0;

    /** Rank -> slot for linked ranks (stale entries elsewhere). */
    std::vector<BlockIndex> rankSlot_;
    LruRank nextRank_ = 0;   ///< rank the next lruPushBack takes
    RankBitmap unpinned_;    ///< linked and not pinned
    RankBitmap evictable_;   ///< linked, not pinned, not held
};

} // namespace deepum::uvm
