/**
 * @file
 * Per-UM-block driver state.
 *
 * One 40-byte record per registered block, dense in BlockStore's
 * slab. A resident block's place in the least-recently-migrated
 * order is its rank, an index into the store's rank array; the
 * record carries no list links.
 */

#pragma once

#include <cstdint>

#include "mem/addr.hh"
// mem::kPageSize is used by BlockInfo::fullyInactive().

namespace deepum::uvm {

/** Sentinel for "no block". */
constexpr mem::BlockId kNoBlock = ~mem::BlockId(0);

/**
 * Dense slot index of a block inside the driver's BlockStore slab.
 * 32 bits cover 2^32 blocks x 2 MiB = 8 EiB of UM space.
 */
using BlockIndex = std::uint32_t;

/** Sentinel for "no slab slot". */
constexpr BlockIndex kNoBlockIndex = ~BlockIndex(0);

/**
 * Position of a resident block in BlockStore's least-recently-migrated
 * order: an index into its rank array, lower ranks migrated earlier.
 */
using LruRank = std::uint32_t;

/** Sentinel for "not in the LRU" (non-resident). */
constexpr LruRank kNoLruRank = ~LruRank(0);

/** Where a UM block's backing data currently lives. */
enum class Loc : std::uint8_t {
    Unpopulated, ///< never touched, or invalidated; zero-fill on fault
    Device,      ///< resident in GPU memory
    Host,        ///< evicted/backed in CPU memory
};

/** Everything the driver tracks about one UM block. */
struct BlockInfo {
    std::uint32_t pages = 0;         ///< populated pages in this block
    Loc loc = Loc::Unpopulated;      ///< current backing location
    /**
     * Bytes covered by inactive PyTorch blocks. Byte-granular
     * because PT blocks are 512-byte aligned, so several can share
     * one page; bytes stay exactly additive.
     */
    std::uint64_t inactiveBytes = 0;
    bool prefetched = false;         ///< resident via prefetch, not yet used
    /**
     * Held by in-flight fault handling: never a victim. Written only
     * through BlockStore::setPinned (it feeds the victim index and
     * the store's pinned count).
     */
    bool pinned = false;
    /**
     * Held by a victim-selection veto (DeepUM's protected set): only
     * a demand fault may evict it. Written only through
     * BlockStore::setHeld.
     */
    bool held = false;
    std::uint32_t prefetchExecId = 0; ///< exec ID that predicted it
    bool queuedFault = false;        ///< sitting in the fault queue
    bool queuedPrefetch = false;     ///< sitting in the prefetch queue
    /**
     * Position in BlockStore's least-recently-migrated order, the
     * index of this slot in its rank array (kNoLruRank while not
     * resident). Owned by BlockStore's lruPushBack/lruErase/relabel.
     */
    LruRank lruRank = kNoLruRank;
    /**
     * Global order of the last migration. Never renumbered, so it
     * independently checks that relabelling kept the LRU order.
     */
    std::uint64_t migrateSeq = 0;

    /** Every populated byte belongs to an inactive PyTorch block. */
    bool
    fullyInactive() const
    {
        return pages > 0 &&
               inactiveBytes >= std::uint64_t(pages) * mem::kPageSize;
    }
};

} // namespace deepum::uvm
