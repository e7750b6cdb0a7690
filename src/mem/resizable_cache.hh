/**
 * @file
 * The reusable dynamically-resizable cache layer.
 *
 * The paper applies gated-Vdd resizing to the L1 i-cache only, but
 * the machinery — a size mask over a tag store, a miss-bound/
 * size-bound controller sampled at sense-interval boundaries, and
 * time-integrated active-size bookkeeping — is level-agnostic.
 * This class owns all of it once, so the L1 i-cache and the
 * DRI-enabled L2 differ only in their access-type restrictions and
 * in two policy bits:
 *
 *  - `writebackDirty`: whether dirty blocks must reach the lower
 *    level before their set's supply is gated (mandatory for any
 *    level that holds modified data);
 *  - `remapOnUpsize`: whether blocks whose set index changes under a
 *    wider mask must be evicted on upsizing (mandatory where stale
 *    aliases are not harmless, i.e. everywhere except the read-only
 *    i-stream).
 *
 * Used directly, the class is a resizable unified write-back,
 * write-allocate cache (the DRI L2 configuration); DriICache derives
 * from it to add the i-cache's restrictions.
 */

#ifndef DRISIM_MEM_RESIZABLE_CACHE_HH
#define DRISIM_MEM_RESIZABLE_CACHE_HH

#include <cstdint>
#include <string>

#include "core/dri_params.hh"
#include "core/resize_controller.hh"
#include "core/size_mask.hh"
#include "mem/directory.hh"
#include "mem/memory.hh"
#include "mem/mshr.hh"
#include "mem/retire_sink.hh"
#include "mem/tag_store.hh"
#include "stats/stats.hh"

namespace drisim::sim
{
class CheckpointWriter;
class CheckpointReader;
} // namespace drisim::sim

namespace drisim
{

/** Behavioural knobs distinguishing the resizable-cache flavours. */
struct ResizePolicy
{
    /** Write dirty blocks back before gating or remapping them. */
    bool writebackDirty = true;
    /** Evict index-changing blocks when the mask widens. */
    bool remapOnUpsize = true;

    /** The read-only i-stream tolerates aliases and has no dirt. */
    static constexpr ResizePolicy icache() { return {false, false}; }
    /** Any level holding modified data needs both protections. */
    static constexpr ResizePolicy writeback() { return {true, true}; }
};

/**
 * A dynamically-resizable cache level (gated-Vdd semantics: sets
 * above the current size keep no state and leak nothing).
 */
class ResizableCache : public MemoryLevel, public RetireSink,
                       public CoherenceClient
{
  public:
    /**
     * @param params    geometry plus all resize knobs
     * @param policy    flavour bits (see ResizePolicy)
     * @param below     next level; may be nullptr (standalone)
     * @param parent    stats parent
     * @param groupName stats group name (e.g. "dri_l2")
     */
    ResizableCache(const DriParams &params, const ResizePolicy &policy,
                   MemoryLevel *below, stats::StatGroup *parent,
                   const std::string &groupName);

    /** Unified write-back, write-allocate access (any type). */
    AccessResult access(Addr addr, AccessType type) override;

    /** Timed flavour: orders the access against in-flight MSHRs. */
    AccessResult accessAt(Addr addr, AccessType type,
                          Cycles now) override
    {
        return accessImpl(addr, type, now);
    }

    /**
     * Account @p n retired instructions; at sense-interval
     * boundaries runs the resize decision. Returns true if the
     * cache resized.
     */
    bool retireInstructions(InstCount n);

    /** RetireSink: retirement broadcast from the core. */
    void onRetire(InstCount n) override { retireInstructions(n); }

    /** RetireSink: cycle-advance broadcast from the core. */
    void onCycles(Cycles delta) override { integrateCycles(delta); }

    /** Fraction of sets currently powered. */
    double activeFraction() const override;

    /** Current capacity in bytes. */
    std::uint64_t currentSizeBytes() const;

    std::uint64_t currentSets() const { return mask_.numSets(); }

    /** Write back everything dirty (if the policy says so), then
     *  invalidate. */
    void invalidateAll() override;

    const DriParams &params() const { return params_; }
    const ResizePolicy &policy() const { return policy_; }
    const SizeMask &sizeMask() const { return mask_; }
    const ResizeController &controller() const { return controller_; }

    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    double missRate() const;

    std::uint64_t upsizes() const { return upsizes_.value(); }
    std::uint64_t downsizes() const { return downsizes_.value(); }
    std::uint64_t holds() const { return holds_.value(); }

    /** Valid blocks destroyed by gating their sets off. */
    std::uint64_t blocksLost() const { return blocksLost_.value(); }

    /** Dirty blocks written back because their set was gated off
     *  or their index was remapped by a resize. */
    std::uint64_t resizeWritebacks() const
    {
        return resizeWritebacks_.value();
    }

    /** Ordinary dirty-eviction writebacks. */
    std::uint64_t evictionWritebacks() const
    {
        return evictionWritebacks_.value();
    }

    /** Secondary misses coalesced onto an in-flight fill. */
    std::uint64_t mshrCoalesced() const
    {
        return mshrCoalesced_.value();
    }
    /** Primary misses that found every MSHR busy. */
    std::uint64_t mshrFullStalls() const
    {
        return mshrFullStalls_.value();
    }
    /** Cycles spent waiting for an MSHR to free. */
    std::uint64_t mshrFullStallCycles() const
    {
        return mshrFullStallCycles_.value();
    }
    /** High-water mark of live MSHR entries. */
    std::uint64_t mshrPeakOccupancy() const
    {
        return mshrPeak_.value();
    }
    MshrCounters mshrCounters() const override
    {
        return {mshrCoalesced(), mshrFullStalls(), mshrFullStallCycles(),
                mshrPeakOccupancy()};
    }

    /** Blocks invalidated because upsizing changed their index. */
    std::uint64_t remapInvalidations() const
    {
        return remapInvalidations_.value();
    }

    /** Attach to a coherence fabric as @p core's private cache
     *  (mem/directory.hh); see Cache::setCoherence. */
    void setCoherence(CoherenceAgent *agent, unsigned core)
    {
        coherence_ = agent;
        coherenceCore_ = core;
    }

    // CoherenceClient: probes from the directory controller.
    CoherenceProbe coherenceInvalidate(Addr addr,
                                       unsigned bytes) override;
    CoherenceProbe coherenceDowngrade(Addr addr,
                                      unsigned bytes) override;

    /** Lines dropped by coherence invalidation probes. */
    std::uint64_t coherenceInvalidations() const
    {
        return coherenceInvalidations_.value();
    }
    /** Lines demoted Modified -> Shared by downgrade probes. */
    std::uint64_t coherenceDowngrades() const
    {
        return coherenceDowngrades_.value();
    }
    /** Fills re-fetching a block a probe invalidated from the same
     *  frame — the coherence refetch traffic PolicyActivity reports. */
    std::uint64_t coherenceRefetches() const
    {
        return coherenceRefetches_.value();
    }

    /**
     * Time-integral bookkeeping: the run loop adds the cycles spent
     * since the last call; the integral of the active fraction over
     * cycles gives the average active size (paper's "average cache
     * size ... averaged over the benchmark execution time").
     */
    void integrateCycles(Cycles delta);

    /** Integral of activeSets over cycles (set-cycles). */
    double activeSetCycles() const { return activeSetCycles_; }

    /** Cycles integrated so far. */
    Cycles integratedCycles() const { return integratedCycles_; }

    /** Average active fraction over the integrated run. */
    double averageActiveFraction() const;

    /** Number of sets whose supply is currently gated off. */
    std::uint64_t gatedSets() const
    {
        return mask_.maxSets() - mask_.numSets();
    }

    /**
     * Verification hook: true iff no reachable frame holds a block
     * whose current-mask index differs from the set it sits in (the
     * invariant remapOnUpsize maintains; alias-tolerant caches may
     * legitimately violate it after upsizing).
     */
    bool mappingConsistent() const;

    void resetStats();

    /** Serialize mask + controller + contents + integrals + stats
     *  (sim/checkpoint.hh). Restore requires identical params.
     *  Covers derived flavours (their extra stats register in the
     *  same group and are walked with it). */
    void snapshotTo(sim::CheckpointWriter &w) const;
    void restoreFrom(sim::CheckpointReader &r);

  protected:
    void applyDecision(ResizeDecision decision);
    void resizeTo(std::uint64_t newSets);
    void writebackBlock(const CacheBlk &blk);

    /** The access body shared by every flavour (after type checks). */
    AccessResult accessImpl(Addr addr, AccessType type,
                            Cycles now = 0);

    DriParams params_;
    ResizePolicy policy_;
    MemoryLevel *below_;
    SizeMask mask_;
    ResizeController controller_;
    TagStore store_;
    MshrFile mshr_;
    CoherenceAgent *coherence_ = nullptr;
    unsigned coherenceCore_ = 0;
    /** Frames whose block a coherence probe invalidated; the next
     *  fill of such a frame is a coherence refetch. */
    std::vector<char> coherenceLost_;

    double activeSetCycles_ = 0.0;
    Cycles integratedCycles_ = 0;

    stats::StatGroup group_;
    stats::Scalar accesses_;
    stats::Scalar misses_;
    stats::Scalar upsizes_;
    stats::Scalar downsizes_;
    stats::Scalar holds_;
    stats::Scalar blocksLost_;
    stats::Scalar resizeWritebacks_;
    stats::Scalar evictionWritebacks_;
    stats::Scalar remapInvalidations_;
    stats::Scalar mshrCoalesced_;
    stats::Scalar mshrFullStalls_;
    stats::Scalar mshrFullStallCycles_;
    stats::Scalar mshrPeak_;
    stats::Scalar coherenceInvalidations_;
    stats::Scalar coherenceDowngrades_;
    stats::Scalar coherenceWritebacks_;
    stats::Scalar coherenceRefetches_;
};

} // namespace drisim

#endif // DRISIM_MEM_RESIZABLE_CACHE_HH
