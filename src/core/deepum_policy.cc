#include "core/deepum_policy.hh"

#include "uvm/driver.hh"

namespace deepum::core {

mem::BlockId
DeepUmPolicy::pickVictim(const uvm::Driver &drv, bool demand)
{
    const uvm::BlockStore &st = drv.store();
    uvm::BlockIndex i = st.lruFirstEvictable();
    // Everything unpinned is protected. A demand fault must make
    // progress, so fall back to plain LRU; a prefetch or
    // pre-eviction would be evicting predicted-useful data to make
    // room for less certain data — better to drop it.
    if (i == uvm::kNoBlockIndex && demand)
        i = st.lruFirstUnpinned();
    return i == uvm::kNoBlockIndex ? uvm::kNoBlock : st.idAt(i);
}

} // namespace deepum::core
