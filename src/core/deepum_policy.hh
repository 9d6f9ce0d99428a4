/**
 * @file
 * DeepUM's eviction policy (paper Section 5.1).
 *
 * Victims must satisfy both conditions: least recently migrated, and
 * not expected to be accessed by the current kernel or the next N
 * kernels predicted to execute. The second condition is the
 * prefetcher's protected set, which the prefetcher publishes as the
 * driver BlockStore's per-block hold bits. When every unpinned
 * resident block is protected the policy falls back to plain
 * least-recently-migrated so demand faults can always make progress.
 *
 * Both answers come from the store's victim index (two find-first-set
 * queries over LRU ranks), so a pick costs the same however many
 * resident blocks are protected; the policy object keeps no state.
 */

#pragma once

#include "uvm/eviction_policy.hh"

namespace deepum::core {

class Prefetcher;

/** LRU-migrated eviction that skips predicted-use blocks. */
class DeepUmPolicy : public uvm::EvictionPolicy
{
  public:
    /**
     * Pair the policy with the prefetcher whose protected set it
     * honours. The protection arrives through the driver's store
     * (Prefetcher holds/releases blocks there), so nothing is kept.
     */
    explicit DeepUmPolicy(const Prefetcher &) {}

    DEEPUM_NOALLOC
    mem::BlockId pickVictim(const uvm::Driver &drv, bool demand) override;
    const char *name() const override { return "deepum"; }
};

} // namespace deepum::core
