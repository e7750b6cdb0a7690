/**
 * @file
 * A conventional (fixed-size) cache level.
 *
 * Write policy: write-allocate, write-back. Dirty evictions are
 * counted as writeback traffic but are not charged on the access
 * latency path (write-buffer assumption), matching the paper's focus
 * on read/fetch latency.
 *
 * The access path exposes three protected hooks for per-line leakage
 * policies (policy/leakage_policy.hh): a wake-stall charge on hits
 * (drowsy lines pay a latency penalty on first touch), a fill
 * notification (per-line counters reset, power state restored) and a
 * victim-way limit (selective-ways gating allocates only in powered
 * ways). The defaults are no-ops, so a plain Cache is untouched.
 */

#ifndef DRISIM_MEM_CACHE_HH
#define DRISIM_MEM_CACHE_HH

#include <string>

#include "stats/stats.hh"
#include "util/types.hh"
#include "mem/directory.hh"
#include "mem/memory.hh"
#include "mem/mshr.hh"
#include "mem/tag_store.hh"

namespace drisim::sim
{
class CheckpointWriter;
class CheckpointReader;
} // namespace drisim::sim

namespace drisim
{

/** Static configuration of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    unsigned assoc = 1;
    unsigned blockBytes = 32;
    Cycles hitLatency = 1;
    ReplPolicy repl = ReplPolicy::LRU;
    /** MSHR entries; 0 keeps the historical blocking miss path. */
    unsigned mshrs = 0;
};

/**
 * A conventional cache backed by a lower MemoryLevel. When attached
 * to a coherence fabric (setCoherence) it participates as an MSI
 * client: fills and write upgrades consult the directory agent, and
 * incoming probes invalidate/downgrade lines (mem/directory.hh).
 */
class Cache : public MemoryLevel, public CoherenceClient
{
  public:
    /**
     * @param params geometry and latency
     * @param below  the next level (L2 or memory); may be nullptr
     *               for a standalone cache (misses then cost only
     *               hitLatency)
     * @param parent stats parent group
     */
    Cache(const CacheParams &params, MemoryLevel *below,
          stats::StatGroup *parent);

    AccessResult access(Addr addr, AccessType type) override
    {
        return accessTimed(addr, type, 0);
    }
    AccessResult accessAt(Addr addr, AccessType type,
                          Cycles now) override
    {
        return accessTimed(addr, type, now);
    }
    void invalidateAll() override;

    const CacheParams &params() const { return params_; }
    std::uint64_t numSets() const { return store_.numSets(); }
    unsigned offsetBits() const { return offsetBits_; }

    /** Block address (addr with the offset stripped). */
    Addr blockAddr(Addr addr) const { return addr >> offsetBits_; }

    /** Non-mutating containment probe (tests). */
    bool contains(Addr addr) const;

    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }
    double missRate() const;

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
    /** The in-flight miss registers (stale entries prune lazily). */
    const MshrFile &mshrFile() const { return mshr_; }

    /**
     * Attach this cache to a coherence fabric as @p core's private
     * cache. Fills/upgrades then charge directory latency and
     * incoming probes are honoured. Never called for shared levels
     * (the L2 sits below the coherence point).
     */
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
    /** Dirty lines flushed below to answer probes. */
    std::uint64_t coherenceWritebacks() const
    {
        return coherenceWritebacks_.value();
    }

    /** Zero the statistics (not the contents). */
    void resetStats() { group_.resetAll(); }

    stats::StatGroup &statGroup() { return group_; }

    /** Serialize contents + stats (sim/checkpoint.hh). Restore
     *  requires an identically-configured cache. */
    virtual void snapshotTo(sim::CheckpointWriter &w) const;
    virtual void restoreFrom(sim::CheckpointReader &r);

  protected:
    // Per-line leakage-policy hooks (no-ops for a plain cache).

    /**
     * Extra latency charged when (@p set, @p way) hits — a drowsy
     * line's wake stall. Called before replacement state updates.
     */
    virtual Cycles onLineHit(std::uint64_t set, unsigned way)
    {
        (void)set;
        (void)way;
        return 0;
    }

    /** A miss filled (@p set, @p way): reset per-line policy state. */
    virtual void onLineFill(std::uint64_t set, unsigned way)
    {
        (void)set;
        (void)way;
    }

    /**
     * Ways eligible for allocation ([0, allocWays()) of each set).
     * Selective-ways gating narrows this; way 0 is always eligible.
     */
    virtual unsigned allocWays() const { return store_.assoc(); }

    /**
     * A coherence probe landed on (@p set, @p way) — @p invalidate
     * distinguishes invalidation from downgrade. Returns the stall
     * the probe costs at this cache (a drowsy line's wake); called
     * before the frame is flushed/invalidated.
     */
    virtual Cycles onLineCoherenceEvent(std::uint64_t set,
                                        unsigned way, bool invalidate)
    {
        (void)set;
        (void)way;
        (void)invalidate;
        return 0;
    }

    std::uint64_t indexOf(Addr blockAddr) const;

    /** The shared body of access()/accessAt(); see cache.cc. */
    AccessResult accessTimed(Addr addr, AccessType type, Cycles now);

    CacheParams params_;
    MemoryLevel *below_;
    unsigned offsetBits_;
    TagStore store_;
    MshrFile mshr_;
    CoherenceAgent *coherence_ = nullptr;
    unsigned coherenceCore_ = 0;

    stats::StatGroup group_;
    stats::Scalar accesses_;
    stats::Scalar misses_;
    stats::Scalar fetchAccesses_;
    stats::Scalar loadAccesses_;
    stats::Scalar storeAccesses_;
    stats::Scalar writebacks_;
    stats::Scalar evictions_;
    stats::Scalar mshrCoalesced_;
    stats::Scalar mshrFullStalls_;
    stats::Scalar mshrFullStallCycles_;
    stats::Scalar mshrPeak_;
    stats::Scalar coherenceInvalidations_;
    stats::Scalar coherenceDowngrades_;
    stats::Scalar coherenceWritebacks_;
};

} // namespace drisim

#endif // DRISIM_MEM_CACHE_HH
