#include "uvm/eviction_policy.hh"

#include "uvm/driver.hh"

namespace deepum::uvm {

mem::BlockId
LruMigratedPolicy::pickVictim(const Driver &drv, bool demand)
{
    (void)demand; // the stock driver treats both paths the same
    const BlockStore &st = drv.store();
    BlockIndex i = st.lruFirstUnpinned();
    return i == kNoBlockIndex ? kNoBlock : st.idAt(i);
}

} // namespace deepum::uvm
