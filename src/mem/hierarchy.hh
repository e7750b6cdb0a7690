/**
 * @file
 * The Table 1 memory system: MemorySide (main memory, flat or
 * banked, and the unified L2, conventional or DRI) and Hierarchy,
 * which adds one core's L1 d-cache and L1 i-cache over it.
 */

#ifndef DRISIM_MEM_HIERARCHY_HH
#define DRISIM_MEM_HIERARCHY_HH

#include <algorithm>
#include <memory>

#include "stats/stats.hh"
#include "core/dri_params.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/memory.hh"
#include "mem/resizable_cache.hh"

namespace drisim::sim
{
class CheckpointWriter;
class CheckpointReader;
} // namespace drisim::sim

namespace drisim
{

/** Parameters for the whole memory system (Table 1 defaults). */
struct HierarchyParams
{
    CacheParams l1i{"l1i", 64 * 1024, 1, 32, 1, ReplPolicy::LRU};
    CacheParams l1d{"l1d", 64 * 1024, 2, 32, 1, ReplPolicy::LRU};
    CacheParams l2{"l2", 1024 * 1024, 4, 64, 12, ReplPolicy::LRU};

    /** Build the L2 as a resizable (gated-Vdd) cache. */
    bool l2Dri = false;
    /**
     * Resize knobs for the DRI L2. Geometry fields (size, assoc,
     * block, latency, repl) are synchronized from `l2` at
     * construction, so only the bounds/interval knobs matter here;
     * see driParamsForLevel().
     */
    DriParams l2DriParams = defaultL2DriParams();

    /** Default L2 resize knobs (Table 1 geometry, 64 KB bound). */
    static DriParams defaultL2DriParams();

    /** Memory model selection: flat Table 1 constant unless
     *  dram.banked is set (mem/dram.hh). */
    DramParams dram;
};

/**
 * Resize knobs @p dri with geometry copied from the conventional
 * level description @p level — the single source of truth for
 * per-level geometry, so a DRI level can never disagree with the
 * conventional cache it replaces.
 */
DriParams driParamsForLevel(const CacheParams &level,
                            const DriParams &dri);

/**
 * The levels below the L1s: main memory (MainMemory, or Dram when
 * params.dram.banked) and the unified L2 (Cache, or ResizableCache
 * when params.l2Dri). Hierarchy and the CMP (system/cmp.hh) both
 * build theirs as one; fillMemoryOutputs reports it.
 */
class MemorySide
{
  public:
    MemorySide(const HierarchyParams &params, stats::StatGroup *parent);

    /** The flat memory (fatal if banked DRAM was built — use
     *  dram() or the flavour-agnostic counters). */
    MainMemory &mem();

    /** Banked DRAM if built, else nullptr. */
    Dram *dram() const { return dram_.get(); }

    /** Memory accesses/reads/writebacks regardless of flavour. */
    std::uint64_t memAccesses() const;
    std::uint64_t memReads() const;
    std::uint64_t memWritebacks() const;

    /** The L2 as a plain MemoryLevel, whatever flavour was built. */
    MemoryLevel *l2Level() const { return l2Level_; }

    /** Conventional L2 if one was built, else nullptr. */
    Cache *convL2() const { return l2_.get(); }

    /** DRI L2 if one was built, else nullptr. */
    ResizableCache *driL2() const { return driL2_.get(); }

    /**
     * The conventional L2 (fatal if the L2 is a DRI one — use
     * convL2()/driL2() in flavour-aware code).
     */
    Cache &l2();

    /** L2 accesses regardless of flavour. */
    std::uint64_t l2Accesses() const;
    /** L2 misses regardless of flavour. */
    std::uint64_t l2Misses() const;
    /** L2 miss rate regardless of flavour. */
    double l2MissRate() const;

  protected:
    /** Serialize memory and the L2 (either flavour): the first part
     *  of Hierarchy's "hier" checkpoint section. */
    void snapshotMemoryTo(sim::CheckpointWriter &w) const;
    void restoreMemoryFrom(sim::CheckpointReader &r);

  private:
    std::unique_ptr<MainMemory> mem_;
    std::unique_ptr<Dram> dram_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<ResizableCache> driL2_;
    MemoryLevel *l2Level_ = nullptr;
};

/**
 * Add one level's MSHR counters to a run's totals (RunOutput or
 * CmpRunOutput): the counts sum, the peak is the max.
 */
template <typename Out>
void
addMshrCounters(const MshrCounters &m, Out &out)
{
    out.mshrCoalesced += m.coalesced;
    out.mshrFullStalls += m.fullStalls;
    if constexpr (requires { out.mshrFullStallCycles; })
        out.mshrFullStallCycles += m.fullStallCycles;
    out.mshrPeakOccupancy =
        std::max(out.mshrPeakOccupancy, m.peakOccupancy);
}

/**
 * Fill the memory-side fields of a finished run's output (RunOutput
 * or CmpRunOutput): L2 counts, size and activity, memory and DRAM
 * counts, and the L2's MSHRs (addCoreMshrs adds the L1s').
 */
template <typename Out>
void
fillMemoryOutputs(const MemorySide &mem, Out &out)
{
    out.l2Accesses = mem.l2Accesses();
    out.l2Misses = mem.l2Misses();
    out.l2MissRate = mem.l2MissRate();
    out.memAccesses = mem.memAccesses();
    if constexpr (requires { out.memReads; }) {
        out.memReads = mem.memReads();
        out.memWritebacks = mem.memWritebacks();
    }
    if (const ResizableCache *l2 = mem.driL2()) {
        out.l2SizeBytes = l2->params().sizeBytes;
        out.l2AvgActiveFraction = l2->averageActiveFraction();
        out.l2ResizingTagBits = l2->params().resizingTagBits();
        out.l2Resizes = l2->upsizes() + l2->downsizes();
    } else {
        out.l2SizeBytes = mem.convL2()->params().sizeBytes;
    }
    addMshrCounters(mem.l2Level()->mshrCounters(), out);
    if (const Dram *d = mem.dram()) {
        out.dramRowHits = d->rowHits();
        out.dramRowMisses = d->rowMisses();
        out.dramQueueFullEvents = d->queueFullEvents();
        out.dramBusyCycles = d->busyCycles();
        if constexpr (requires { out.dramBankRowHits; }) {
            out.dramBankRowHits.resize(d->params().banks);
            for (unsigned b = 0; b < d->params().banks; ++b)
                out.dramBankRowHits[b] = d->rowHitsForBank(b);
        }
    }
}

/**
 * The single-core memory system: a MemorySide plus one core's L1D
 * and L1I. The L1I is a conventional Cache, or the caller installs
 * its own (the runner installs a LeakagePolicy's level()).
 */
class Hierarchy : public MemorySide
{
  public:
    /**
     * @param params         cache geometries (+ per-level DRI knobs)
     * @param parent         stats parent
     * @param buildConvL1i   when true, construct a conventional L1I;
     *                       when false the caller installs its own
     *                       via setL1I()
     */
    Hierarchy(const HierarchyParams &params, stats::StatGroup *parent,
              bool buildConvL1i = true);

    /** Install a caller-owned L1 i-cache (e.g. a policy's level). */
    void setL1I(MemoryLevel *l1i) { l1i_ = l1i; }

    MemoryLevel *l1i() { return l1i_; }
    Cache &l1d() { return *l1d_; }

    /** Conventional L1I if one was built, else nullptr. */
    Cache *convL1i() { return convL1i_.get(); }

    /** Serialize every owned level — memory, L2 (either flavour),
     *  L1D, and the conventional L1I when one was built. A
     *  caller-installed L1I (DRI/policy) is the caller's to
     *  serialize (sim/checkpoint.hh). */
    void snapshotTo(sim::CheckpointWriter &w) const;
    void restoreFrom(sim::CheckpointReader &r);

  private:
    std::unique_ptr<Cache> l1d_;
    std::unique_ptr<Cache> convL1i_;
    MemoryLevel *l1i_ = nullptr;
};

} // namespace drisim

#endif // DRISIM_MEM_HIERARCHY_HH
