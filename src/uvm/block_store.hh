/**
 * @file
 * Dense per-block metadata store for the UM driver.
 *
 * UM allocations are contiguous runs of 2 MiB blocks, so the store
 * maps BlockId -> dense slab index with a small sorted table of
 * registered runs: one range probe plus a subtract, no hashing. The
 * BlockInfo records live in a contiguous slab (vector), and freed
 * runs go on a coalescing free list so register/unregister churn
 * reuses slots instead of growing the slab.
 *
 * The least-recently-migrated order is one array: rank -> slot.
 * A migration appends its block at the next rank and an eviction
 * leaves a hole (kNoBlockIndex), so walking the ranks upward and
 * skipping holes is oldest-migration-first. When the ranks run out,
 * relabel() compacts the array in place. Two rank-keyed two-level
 * bitmaps mark the resident blocks that are unpinned and those that
 * are unpinned and not held, so the oldest victim of either kind is a
 * find-first-set, however many blocks are pinned or held (DESIGN.md
 * §3.9). The store also owns the count of pinned blocks: the driver
 * replays the GPU when it reaches zero.
 *
 * This replaces the driver's former unordered_map block table,
 * std::list LRU with its position side-map, and the outstanding-fault
 * hash set (now a bit in the record) — the per-event hashing and
 * pointer-chasing on the fault path's hottest lookups.
 *
 * Everything here is deterministic by construction: lookups are pure,
 * iteration orders are slab/BlockId order or rank order, and slot
 * assignment depends only on the register/unregister history.
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

/** Dense BlockId -> BlockInfo store with a rank-array LRU. */
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
     * already registered. Takes free or new slots only: a live
     * block's slot never moves.
     */
    DEEPUM_INVALIDATES_VIEWS
    BlockIndex registerRun(mem::BlockId first, mem::BlockId end);

    /**
     * Unregister the run [first, end), which must exactly match one
     * registered run; its slots join the free list (coalesced) and
     * its pins are dropped from pinnedCount(). The caller must
     * already have erased resident blocks from the LRU.
     */
    DEEPUM_INVALIDATES_VIEWS
    void unregisterRun(mem::BlockId first, mem::BlockId end);

    // --- least-recently-migrated order (the rank array) -------------

    /**
     * Append slot @p i (must not be in the LRU) at the MRU end, with
     * the next rank (relabelling first when the rank space is used
     * up).
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
        ++lruSize_;
    }

    /** Remove slot @p i (must be in the LRU), leaving a rank hole. */
    DEEPUM_NOALLOC void
    lruErase(BlockIndex i)
    {
        BlockInfo &bi = slab_[i];
        unpinned_.clear(bi.lruRank);
        evictable_.clear(bi.lruRank);
        rankSlot_[bi.lruRank] = kNoBlockIndex;
        bi.lruRank = kNoLruRank;
        --lruSize_;
    }

    /** Blocks in the LRU (resident). */
    std::size_t lruSize() const { return lruSize_; }

    /**
     * Range-for view over the LRU as BlockIds, oldest migration
     * first — the shape the audits, dumps and tests consume. It walks
     * the ranks upward and skips holes. A DEEPUM_VIEW: do not store
     * one in a field/container or hold it across
     * registerRun()/unregisterRun() or an LRU change (slot reuse and
     * relabelling invalidate the traversal).
     */
    class DEEPUM_VIEW LruView
    {
      public:
        class iterator
        {
          public:
            iterator(const BlockStore *st, LruRank r)
                : st_(st), r_(st->nextInLru(r))
            {}

            mem::BlockId
            operator*() const
            {
                return st_->idAt(st_->rankSlot_[r_]);
            }

            iterator &
            operator++()
            {
                r_ = st_->nextInLru(r_ + 1);
                return *this;
            }

            bool
            operator==(const iterator &o) const
            {
                return r_ == o.r_;
            }
            bool
            operator!=(const iterator &o) const
            {
                return r_ != o.r_;
            }

          private:
            const BlockStore *st_;
            LruRank r_;
        };

        explicit LruView(const BlockStore *st) : st_(st) {}

        iterator begin() const { return {st_, 0}; }
        iterator end() const { return {st_, st_->nextRank_}; }
        std::size_t size() const { return st_->lruSize(); }

      private:
        const BlockStore *st_;
    };

    DEEPUM_NOALLOC LruView lruOrder() const { return LruView(this); }

    /**
     * Compact the rank array in place, renumbering the LRU
     * 0..lruSize()-1 in order, and resize the rank space to twice
     * the resident set. lruPushBack calls it when the ranks run out;
     * public so tests can force one. Ranks keep their relative
     * order, so no query answer changes.
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

    /** Set or clear slot @p i's pinned bit (no-op when unchanged). */
    DEEPUM_NOALLOC void
    setPinned(BlockIndex i, bool on)
    {
        BlockInfo &bi = slab_[i];
        if (bi.pinned == on)
            return;
        bi.pinned = on;
        if (on)
            ++pinnedCount_;
        else
            --pinnedCount_;
        syncVictimBits(bi);
    }

    /** Registered blocks with the pinned bit set. */
    std::size_t pinnedCount() const { return pinnedCount_; }

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
     * records, live + free covering the slab exactly, the rank
     * array and the records' ranks naming each other in both
     * directions over live slots only, the LRU and pinned counts,
     * and both victim bitmaps (words and summaries) equal to their
     * recomputed predicates.
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

    /** Re-derive an LRU record's bits in both victim bitmaps. */
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

    /** Lowest rank >= @p r that holds a block, or nextRank_. */
    DEEPUM_NOALLOC LruRank
    nextInLru(LruRank r) const
    {
        while (r < nextRank_ && rankSlot_[r] == kNoBlockIndex)
            ++r;
        return r;
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

    std::size_t lruSize_ = 0;      ///< blocks in the LRU
    std::size_t pinnedCount_ = 0;  ///< slots with the pinned bit

    /**
     * The LRU: rank -> slot, kNoBlockIndex at every rank that holds
     * no block (erased, or at or past nextRank_).
     */
    std::vector<BlockIndex> rankSlot_;
    LruRank nextRank_ = 0;   ///< rank the next lruPushBack takes
    RankBitmap unpinned_;    ///< in the LRU and not pinned
    RankBitmap evictable_;   ///< in the LRU, not pinned, not held
};

} // namespace deepum::uvm
