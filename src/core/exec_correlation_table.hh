/**
 * @file
 * The execution ID correlation table (paper Section 4.2, Figure 6).
 *
 * A single table, one entry per execution ID. Each entry holds a
 * variable number of records of four execution IDs: the three kernels
 * executed before the entry's kernel, and the kernel that followed
 * it. The variable record count keeps *all* history, because a wrong
 * next-kernel prediction is expensive while a wrong next-block
 * prediction is cheap.
 *
 * Storage is dense: ExecutionIdTable hands out dense IDs, so entries
 * live in an ExecId-indexed vector (no hashing), and each entry is
 * one MRU-first record vector. Steady-state record() (a duplicate
 * rotated to the front) and predict() never allocate; only a history
 * never seen before grows an entry.
 */

#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/execution_id_table.hh"
#include "support/annotations.hh"

namespace deepum::sim {
class CheckContext;
}

namespace deepum::core {

/** History triple preceding a kernel: (third, second, first) last. */
using ExecHistory = std::array<ExecId, 3>;

/** Records kernel-launch successions and predicts the next launch. */
class ExecCorrelationTable
{
  public:
    /** One record: history triple plus the observed next kernel. */
    struct Record {
        ExecHistory hist; ///< kernels before `cur` (oldest first)
        ExecId next;      ///< kernel observed to follow `cur`
    };

    /**
     * Record that @p next launched while @p cur was the current
     * kernel with preceding history @p hist. Duplicate records are
     * moved to MRU position instead of duplicated.
     */
    DEEPUM_NOALLOC
    void record(ExecId cur, const ExecHistory &hist, ExecId next);

    /**
     * Predict the kernel that will follow @p cur given @p hist.
     * Exact history match wins; without one, the most recently used
     * record does. @return kNoExecId when @p cur has no record.
     */
    DEEPUM_NOALLOC ExecId predict(ExecId cur,
                                  const ExecHistory &hist) const;

    /** Records stored under @p cur (for tests and stats). */
    std::size_t recordCount(ExecId cur) const;

    /** Entries (distinct current IDs) in the table. */
    std::size_t entryCount() const { return liveEntries_; }

    /** Approximate resident bytes, for Table 4 accounting. */
    std::uint64_t sizeBytes() const;

    /**
     * Audit structure (sim/validate.hh): the live-entry counter
     * matches, and no (history, next) record is duplicated within an
     * entry (the MRU-dedupe contract of record()).
     */
    void checkInvariants(sim::CheckContext &ctx) const;

    /** Stream the table, id-ordered (for violation dumps). */
    void dumpState(std::ostream &os) const;

  private:
    /**
     * One execution ID's records, MRU first. An empty entry is absent
     * (the ID was never recorded under).
     */
    using Entry = std::vector<Record>;

    /** Grow the dense entry table to cover @p cur. */
    DEEPUM_ALLOC_OK("entry table grows with the ExecId space")
    void
    growEntries(ExecId cur)
    {
        if (cur >= entries_.size())
            entries_.resize(std::size_t(cur) + 1);
    }

    std::vector<Entry> entries_;    ///< indexed by ExecId
    std::size_t liveEntries_ = 0;   ///< non-empty entries
};

} // namespace deepum::core
