/**
 * @file
 * UM block correlation tables (paper Section 4.2, Figure 7).
 *
 * One table per execution ID, allocated lazily when a kernel with a
 * new ID first faults. Set-associative (NumRows x Assoc) with
 * NumSuccs MRU-ordered successor blocks per entry, plus the `start`
 * block (first fault after the kernel began) and `end` block (last
 * fault before the next kernel), which the prefetcher uses to chain
 * across kernels.
 *
 * Storage is dense, mirroring the driver's uvm::BlockStore: entries
 * are fixed-size records in one set-major slab, and every entry's
 * successor list is a fixed-capacity inline window carved from a
 * second contiguous slab (way i owns slot range [i*NumSuccs,
 * (i+1)*NumSuccs)). record()'s LRU-replace + MRU-insert and
 * successors() are pointer arithmetic over those slabs — no per-entry
 * heap vectors, no allocation on the record/lookup hot path, and the
 * successor storage never moves for the table's lifetime, so the
 * SuccView returned by successors() stays valid (it re-reads current
 * contents) instead of dangling like the former vector reference.
 *
 * A bitmap beside the entry slab marks the occupied ways (set when
 * record() allocates a way, cleared when a way is reset), so the
 * prefetcher's fresh-way sweep visits live entries only, in way
 * order, and hands back way indices it refreshes without a probe.
 *
 * Each table carries a version: a counter that moves whenever
 * something a chain walk reads may have changed — tags, successor
 * lists, the start/end pointers, the epoch, or a way's lastEpoch
 * (which decides the fresh set). record(), erase() of a live entry,
 * eraseRange(), captureStartEnd(), setStart()/setEnd() and any
 * refresh that moves a way's lastEpoch bump it. A refresh that
 * only advances lastUse does not: LRU use stamps steer way
 * replacement in record(), never the walk. So two walks that start
 * from the same version (and the same BlockStore layout) visit the
 * same ways and issue the same candidates in the same order, which
 * is what lets the prefetcher replay a recorded walk plan.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/config.hh"
#include "core/execution_id_table.hh"
#include "mem/addr.hh"
#include "sim/logging.hh"
#include "support/annotations.hh"
#include "uvm/block_info.hh"

namespace deepum::sim {
class CheckContext;
}

namespace deepum::core {

/**
 * Borrowed, read-only view of one entry's successor list (MRU
 * first). A value type over the table's stable successor slab: the
 * pointed-to storage lives as long as the table, so a stale view
 * never dangles. It is still *logically* invalidated by mutation —
 * the view captures its length at creation but re-reads contents, so
 * holding one across record()/erase() observes a mixed stale-length/
 * updated-contents state. The analyzer's view-escape check enforces
 * the contract: views must not be stored in fields or containers,
 * nor held live across DEEPUM_INVALIDATES_VIEWS methods.
 */
class DEEPUM_VIEW SuccView
{
  public:
    SuccView() = default;
    SuccView(const mem::BlockId *data, std::uint32_t size)
        : data_(data), size_(size)
    {}

    const mem::BlockId *begin() const { return data_; }
    const mem::BlockId *end() const { return data_ + size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    mem::BlockId operator[](std::size_t i) const { return data_[i]; }
    mem::BlockId front() const { return data_[0]; }

  private:
    const mem::BlockId *data_ = nullptr;
    std::uint32_t size_ = 0;
};

/** One execution ID's block-successor table. */
class BlockCorrelationTable
{
  public:
    explicit BlockCorrelationTable(const BlockTableConfig &cfg);

    /**
     * Record that a fault on @p next followed a fault on @p prev
     * within this kernel. Allocates/replaces entries LRU within the
     * mapped set; inserts @p next at MRU position of @p prev's
     * successor list. Never allocates: the entry and successor slabs
     * are sized at construction.
     */
    DEEPUM_NOALLOC DEEPUM_INVALIDATES_VIEWS
    void record(mem::BlockId prev, mem::BlockId next);

    /**
     * Successors of @p b, MRU first. Empty when @p b has no entry.
     * Returned by value; see SuccView for the lifetime contract.
     */
    DEEPUM_NOALLOC SuccView successors(mem::BlockId b) const;

    /** First faulted block of the kernel's executions. */
    mem::BlockId start() const { return start_; }

    /** Last faulted block before the kernel transitions. */
    mem::BlockId end() const { return end_; }

    /** Directly set the pointers (tests and the capture ablation). */
    void
    setStart(mem::BlockId b)
    {
        start_ = b;
        ++version_;
    }
    void
    setEnd(mem::BlockId b)
    {
        end_ = b;
        ++version_;
    }

    /**
     * The walk-visible state's version (see the file comment): equal
     * versions mean equal tags, successors, start/end, epoch and
     * lastEpoch stamps. Starts at 1, so 0 never names a live state.
     */
    std::uint64_t version() const { return version_; }

    /** "No way": a missing entry (wayOf()). */
    static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};

    /** Slab index of @p b's way, or kNoWay. One set probe, no side
     * effects. */
    DEEPUM_NOALLOC std::uint32_t wayOf(mem::BlockId b) const;

    /** Successors of the occupied way @p way, MRU first (SuccView
     * contract). */
    DEEPUM_NOALLOC SuccView
    successorsAt(std::uint32_t way) const
    {
        return SuccView{succsOf(way), entries_[way].succCount};
    }

    /**
     * Capture the start/end blocks from one execution whose fault
     * sequence had @p len blocks (paper: first/last faulted block
     * around the execution ID transition).
     *
     * Re-capturing is necessary — the caching allocator's placement
     * differs between the cold first iteration and the steady state,
     * so the pointers must track current addresses. But committing
     * unconditionally lets a single stray residual fault truncate
     * the chain for the next iteration. Hysteresis resolves the
     * tension: commit only sequences at least half as long as the
     * best seen; after several consecutive rejections accept the new
     * (genuinely shorter) pattern.
     */
    DEEPUM_NOALLOC void captureStartEnd(mem::BlockId start,
                                        mem::BlockId end,
                                        std::uint32_t len);

    /** Longest committed fault-sequence length (tests). */
    std::uint32_t bestSequenceLen() const { return bestLen_; }

    /**
     * Append the slab indices of the ways touched within the last
     * @p window executions to @p out (cleared first), in way order.
     *
     * A kernel's fault-learned graph can split into disconnected
     * components (blocks that stop faulting because prefetching
     * covers them stop being re-linked), so chaining from `start`
     * alone oscillates between components. Issuing every *live*
     * entry on kernel entry breaks the oscillation; refreshWay()
     * keeps successfully-prefetched entries live. The sweep walks
     * the occupied-way bitmap with find-first-set, so it costs the
     * live entries, not the geometry; the out-parameter form lets
     * the prefetcher reuse one scratch vector across activations
     * (allocation-free steady state).
     */
    DEEPUM_NOALLOC void freshWays(std::uint32_t window,
                                  std::vector<std::uint32_t> &out) const;

    /** Tag of the way at slab index @p way (kNoBlock when empty). */
    mem::BlockId tagAt(std::uint32_t way) const { return entries_[way].tag; }

    /** Mark @p b's entry as used this epoch (chain visit). */
    DEEPUM_NOALLOC void refresh(mem::BlockId b);

    /**
     * Mark the occupied way @p way as used this epoch: visit() on
     * its tag without the set probe (the sweep or wayOf() already
     * found it).
     */
    DEEPUM_NOALLOC void
    refreshWay(std::uint32_t way)
    {
        DEEPUM_ASSERT(entries_[way].tag != uvm::kNoBlock,
                      "refreshing empty way %u", way);
        touch(entries_[way]);
    }

    /**
     * refresh(@p b) and successors(@p b) on one set probe. Same view
     * contract as successors().
     */
    DEEPUM_NOALLOC SuccView visit(mem::BlockId b);

    /**
     * Drop @p b's entry. Called when a prefetch predicted from this
     * table was evicted untouched: its kernel ran without the block,
     * so the entry is stale (a leftover from an earlier allocator
     * placement) and must stop feeding the chain.
     */
    DEEPUM_NOALLOC DEEPUM_INVALIDATES_VIEWS void erase(mem::BlockId b);

    /**
     * Scrub every reference to blocks in [@p first, @p end): entries
     * tagged with them are dropped, they are removed from successor
     * lists, and dangling start/end pointers reset. Called when a UM
     * range is freed so the table never feeds dead blocks to the
     * prefetcher.
     */
    DEEPUM_INVALIDATES_VIEWS
    void eraseRange(mem::BlockId first, mem::BlockId end);

    /** Executions (with faults) this table has seen. */
    std::uint32_t epoch() const { return epoch_; }

    /** Live entries across all sets (tests/stats). */
    std::size_t entryCount() const;

    /**
     * Bytes this table occupies. Tables are allocated at full
     * configured geometry (the paper's Table 4 reports allocated
     * table memory, which scales with rows x assoc x succs).
     */
    std::uint64_t sizeBytes() const;

    const BlockTableConfig &config() const { return cfg_; }

    /**
     * Valid entries evicted by LRU way replacement so far: the
     * set-conflict count. A record stream whose working set fits the
     * geometry (rows x assoc) never replaces, and every record after
     * warm-up is an MRU refresh; once the working set exceeds the
     * geometry, each conflict costs a replacement *and* destroys the
     * successor list the prefetcher would have walked (see the
     * EXPERIMENTS.md geometry study).
     */
    std::uint64_t replacements() const { return replacements_; }

    /**
     * Audit structural invariants (sim/validate.hh): tags hash to
     * their set, no duplicate tags within a set, successor counts
     * within the inline capacity and the listed successors
     * duplicate-free, use/epoch stamps within the counters, empty
     * ways fully reset, and a way's occupied bit set exactly when
     * it holds a tag.
     */
    void checkInvariants(sim::CheckContext &ctx) const;

    /** Stream the live entries (for violation dumps). */
    void dumpState(std::ostream &os) const;

  private:
    /**
     * One way of one set. Fixed-size: the successor list lives in
     * the table-wide succSlab_, window [way*numSuccs, way*numSuccs +
     * succCount), MRU first.
     */
    struct Entry {
        mem::BlockId tag = uvm::kNoBlock;
        std::uint64_t lastUse = 0;
        std::uint32_t lastEpoch = 0;
        std::uint32_t succCount = 0;
    };

    /** Map @p b to its set index. */
    std::size_t setIndex(mem::BlockId b) const;

    /** Successor window of the way at slab index @p way. */
    mem::BlockId *succsOf(std::size_t way)
    {
        return &succSlab_[way * cfg_.numSuccs];
    }
    const mem::BlockId *succsOf(std::size_t way) const
    {
        return &succSlab_[way * cfg_.numSuccs];
    }

    /**
     * Shared lookup for both constnesses: probes @p self's set for
     * @p b, propagating const through the deduced entry pointer (no
     * const_cast).
     */
    template <typename SelfT>
    static auto
    findEntry(SelfT &self, mem::BlockId b)
        -> decltype(&self.entries_[0])
    {
        auto *base = &self.entries_[self.setIndex(b) * self.cfg_.assoc];
        for (std::uint32_t w = 0; w < self.cfg_.assoc; ++w) {
            if (base[w].tag == b)
                return &base[w];
        }
        return nullptr;
    }

    /** Find @p b's entry in its set, or nullptr. */
    Entry *find(mem::BlockId b);
    const Entry *find(mem::BlockId b) const;

    /** Stamp @p e used now; a moved lastEpoch is a new version. */
    void
    touch(Entry &e)
    {
        e.lastUse = ++useClock_;
        if (e.lastEpoch != epoch_) {
            e.lastEpoch = epoch_;
            ++version_;
        }
    }

    /** Reset the way at slab index @p way to the empty state. */
    void
    resetWay(std::size_t way)
    {
        entries_[way] = Entry{};
        occupied_[way / 64] &= ~(std::uint64_t{1} << (way % 64));
    }

    /** Test-only access to private state (seeded-corruption tests). */
    friend struct BlockCorrelationTableTestAccess;

    BlockTableConfig cfg_;
    std::vector<Entry> entries_;        ///< numRows * assoc, set-major
    std::vector<mem::BlockId> succSlab_; ///< numRows*assoc*numSuccs
    /** Bit w%64 of word w/64 is set iff way w holds a tag. */
    std::vector<std::uint64_t> occupied_;
    mem::BlockId start_ = uvm::kNoBlock;
    mem::BlockId end_ = uvm::kNoBlock;
    std::uint64_t useClock_ = 0;
    /** Set-conflict LRU evictions (see replacements()). */
    std::uint64_t replacements_ = 0;
    std::uint32_t bestLen_ = 0;     ///< longest committed sequence
    std::uint32_t staleRejects_ = 0;
    std::uint32_t epoch_ = 0;       ///< executions with faults seen
    std::uint64_t version_ = 1;     ///< walk-visible state (version())
};

/**
 * Lazily-allocated collection: one block table per execution ID.
 *
 * ExecutionIdTable hands out dense IDs (0, 1, 2, ...), so the
 * collection is an ExecId-indexed vector — find() is a bounds check
 * plus one load, no hashing — of owning pointers (tables are large
 * and must stay address-stable across getOrCreate() growth, since
 * the correlator and prefetcher hold references across calls).
 */
class BlockCorrelationTableSet
{
  public:
    explicit BlockCorrelationTableSet(const BlockTableConfig &cfg)
        : cfg_(cfg)
    {}

    /** Get the table for @p id, allocating it on first use. */
    BlockCorrelationTable &getOrCreate(ExecId id);

    /** @return the table for @p id, or nullptr if never allocated. */
    BlockCorrelationTable *
    find(ExecId id)
    {
        return id < tables_.size() ? tables_[id].get() : nullptr;
    }
    const BlockCorrelationTable *
    find(ExecId id) const
    {
        return id < tables_.size() ? tables_[id].get() : nullptr;
    }

    /** Number of allocated tables. */
    std::size_t tableCount() const { return count_; }

    /** Total bytes across all allocated tables (paper Table 4). */
    std::uint64_t totalSizeBytes() const;

    /** eraseRange() on every allocated table (UM range freed). */
    void eraseBlocksInRange(mem::BlockId first, mem::BlockId end);

    /** Audit every allocated table (sim/validate.hh). */
    void checkInvariants(sim::CheckContext &ctx) const;

    /** Visit every allocated table as (ExecId, table&), id order. */
    template <typename Fn>
    void
    forEachTable(Fn &&fn) const
    {
        for (ExecId id = 0; id < tables_.size(); ++id) {
            if (tables_[id] != nullptr)
                fn(id, *tables_[id]);
        }
    }

    /** Stream every allocated table, id-ordered (violation dumps). */
    void dumpState(std::ostream &os) const;

  private:
    BlockTableConfig cfg_;
    std::vector<std::unique_ptr<BlockCorrelationTable>> tables_;
    std::size_t count_ = 0; ///< non-null slots in tables_
};

} // namespace deepum::core
