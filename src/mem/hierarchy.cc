/**
 * @file
 * Assembles the Table 1 memory system: main memory (flat or banked)
 * and the unified L2 (conventional or DRI) as a MemorySide, and the
 * single-core L1D and conventional L1I over it.
 */

#include "mem/hierarchy.hh"

#include "util/logging.hh"

namespace drisim
{

DriParams
HierarchyParams::defaultL2DriParams()
{
    DriParams p;
    // Geometry comes from the CacheParams at build time; only the
    // resize knobs below are meaningful defaults. The L2 sees far
    // fewer references per instruction than the L1, so its default
    // miss-bound is lower; the size-bound leaves a 16:1 range like
    // the paper's 64K:4K sweet spot.
    p.sizeBoundBytes = 64 * 1024;
    p.missBound = 50;
    p.senseInterval = 100 * 1000;
    return p;
}

DriParams
driParamsForLevel(const CacheParams &level, const DriParams &dri)
{
    DriParams p = dri;
    p.sizeBytes = level.sizeBytes;
    p.assoc = level.assoc;
    p.blockBytes = level.blockBytes;
    p.hitLatency = level.hitLatency;
    p.repl = level.repl;
    p.mshrs = level.mshrs;
    if (p.sizeBoundBytes > p.sizeBytes)
        p.sizeBoundBytes = p.sizeBytes;
    const std::uint64_t set_bytes =
        static_cast<std::uint64_t>(p.blockBytes) * p.assoc;
    if (p.sizeBoundBytes < set_bytes)
        p.sizeBoundBytes = set_bytes;
    return p;
}

MemorySide::MemorySide(const HierarchyParams &params,
                       stats::StatGroup *parent)
{
    MemoryLevel *memLevel = nullptr;
    if (params.dram.banked) {
        dram_ = std::make_unique<Dram>(params.dram,
                                       params.l2.blockBytes, parent);
        memLevel = dram_.get();
    } else {
        mem_ = std::make_unique<MainMemory>(params.l2.blockBytes,
                                            parent);
        memLevel = mem_.get();
    }
    if (params.l2Dri) {
        driL2_ = std::make_unique<ResizableCache>(
            driParamsForLevel(params.l2, params.l2DriParams),
            ResizePolicy::writeback(), memLevel, parent, "dri_l2");
        l2Level_ = driL2_.get();
    } else {
        l2_ = std::make_unique<Cache>(params.l2, memLevel, parent);
        l2Level_ = l2_.get();
    }
}

MainMemory &
MemorySide::mem()
{
    drisim_assert(mem_ != nullptr,
                  "memory side was built with banked DRAM; use "
                  "dram() or memAccesses()");
    return *mem_;
}

std::uint64_t
MemorySide::memAccesses() const
{
    return mem_ ? mem_->accesses() : dram_->accesses();
}

std::uint64_t
MemorySide::memReads() const
{
    return mem_ ? mem_->reads() : dram_->reads();
}

std::uint64_t
MemorySide::memWritebacks() const
{
    return mem_ ? mem_->writebacks() : dram_->writebacks();
}

Cache &
MemorySide::l2()
{
    drisim_assert(l2_ != nullptr,
                  "memory side was built with a DRI L2; use "
                  "convL2()/driL2()");
    return *l2_;
}

std::uint64_t
MemorySide::l2Accesses() const
{
    return l2_ ? l2_->accesses() : driL2_->accesses();
}

std::uint64_t
MemorySide::l2Misses() const
{
    return l2_ ? l2_->misses() : driL2_->misses();
}

double
MemorySide::l2MissRate() const
{
    return l2_ ? l2_->missRate() : driL2_->missRate();
}

Hierarchy::Hierarchy(const HierarchyParams &params,
                     stats::StatGroup *parent, bool buildConvL1i)
    : MemorySide(params, parent)
{
    l1d_ = std::make_unique<Cache>(params.l1d, l2Level(), parent);
    if (buildConvL1i) {
        convL1i_ = std::make_unique<Cache>(params.l1i, l2Level(),
                                           parent);
        l1i_ = convL1i_.get();
    }
}

} // namespace drisim
