/**
 * @file
 * DeepUM configuration knobs.
 *
 * The three feature flags correspond to the ablation of paper
 * Figure 10 (Prefetching / +Preeviction / +Invalidate); lookaheadN
 * is the prefetch degree of Figure 11; the block-table parameters
 * are the Config0..Config12 sweep of Table 6 / Figure 12.
 */

#pragma once

#include <cstdint>

namespace deepum::core {

/** Geometry of one UM-block correlation table (paper Table 6). */
struct BlockTableConfig {
    std::uint32_t numRows = 2048; ///< sets in the table
    std::uint32_t assoc = 2;      ///< ways per set
    std::uint32_t numSuccs = 4;   ///< MRU successor slots per entry
};

/** Largest DeepUmConfig::lookaheadN (a 64-slot window ring). */
inline constexpr std::uint32_t kMaxLookaheadN = 62;

/**
 * Largest BlockTableConfig::numSuccs: a walk plan counts the
 * successors one visit issues in a byte. Table 6 sweeps at most 8.
 */
inline constexpr std::uint32_t kMaxNumSuccs = 255;

/**
 * Entries of a kernel's block table are considered live for this
 * many of its executions after their last record/visit; live entries
 * are all issued when the chain enters the kernel.
 */
inline constexpr std::uint32_t kFreshEpochWindow = 4;

/** Full DeepUM feature configuration. */
struct DeepUmConfig {
    bool prefetch = true;    ///< correlation prefetching (Section 4)
    bool preevict = true;    ///< page pre-eviction (Section 5.1)
    bool invalidate = true;  ///< inactive-PT-block invalidation (5.2)

    /**
     * Prefetch degree: kernels of lookahead (the paper's N). The
     * paper's sweet spot is 32 on a 32 GB V100; at this simulator's
     * 1/128 memory scale the prefetchable window shrinks with it and
     * the sweet spot sits near 8 (bench/fig11_degree reproduces the
     * same inverted-U shape). At most kMaxLookaheadN: the window
     * ring holds N + 2 slots, one bit each in a 64-bit protection
     * mask.
     */
    std::uint32_t lookaheadN = 8;

    /** Block-correlation-table geometry (default Config9). */
    BlockTableConfig table;

    /**
     * Pre-evict until this many frames are free (low watermark).
     * 0 selects a default of 4 full UM blocks.
     */
    std::uint64_t preevictWatermarkPages = 0;

    /** Safety cap on blocks enqueued per chaining activation. */
    std::uint32_t chainEnqueueCap = 4096;

    // --- mechanism ablations (DESIGN.md section 6) ------------------
    // Each switch disables one of the engineering decisions taken
    // where the paper under-specifies the mechanism, so their
    // individual contributions can be measured
    // (bench/ablation_mechanisms).

    /** start/end capture hysteresis vs. commit-every-execution. */
    bool captureHysteresis = true;

    /** Issue all live table entries on kernel entry (vs. start-only
     * chaining). */
    bool freshTagChaining = true;

    /** Erase stale entries when their prefetch is evicted unused. */
    bool wasteFeedback = true;
};

} // namespace deepum::core
