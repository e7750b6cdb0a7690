/**
 * @file
 * A compact cycle-stepped out-of-order core with the Table 1
 * configuration: 8-wide fetch/issue/commit, 128-entry reorder
 * buffer, 128-entry load/store queue, hybrid 2-level branch
 * predictor, 1 GHz.
 *
 * Trace-driven timing model. The instruction stream carries the
 * executed path; on a mispredicted control instruction, fetch stalls
 * until the branch resolves plus a redirect penalty (wrong-path
 * fetch is modeled as lost fetch bandwidth, not as cache pollution —
 * the standard trace-driven approximation). I-cache misses stall
 * fetch for the full fill latency; loads access the d-cache at
 * issue; stores write at commit.
 *
 * Issue is event-driven (wakeup/select): dispatch links each entry
 * to its unissued producers, an issuing producer wakes its consumers
 * into a timing wheel keyed by ready cycle, and select walks a ready
 * bitset in age order under the per-class port limits. It issues
 * exactly what a per-cycle scan of the whole ROB in sequence order
 * would (tests/ooo_scheduler_diff_test.cc). That state is derived:
 * checkpoints carry only the ROB, restoreFrom() rebuilds the rest.
 */

#ifndef DRISIM_CPU_OOO_CORE_HH
#define DRISIM_CPU_OOO_CORE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "core/dri_icache.hh"
#include "mem/memory.hh"
#include "stats/stats.hh"
#include "cpu/branch_pred.hh"
#include "cpu/core.hh"
#include "cpu/isa.hh"

namespace drisim
{

/** Pipeline configuration (Table 1 defaults). */
struct OooParams
{
    unsigned fetchWidth = 8;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;
    unsigned robSize = 128;
    unsigned lsqSize = 128;
    unsigned fetchQueueSize = 32;
    /** Cycles to restart fetch after a branch resolves wrong. */
    Cycles redirectPenalty = 3;
    /** Fetch-group block granularity (i-cache line size). */
    unsigned fetchBlockBytes = 32;
    /** Per-class issue ports. */
    unsigned memPorts = 2;
    unsigned fpPorts = 4;
    unsigned mulPorts = 2;
    BranchPredParams bpred{};

    /** Execution latencies per op class (cycles). */
    static Cycles execLatency(OpClass op);
};

/** The out-of-order core. */
class OooCore : public Core
{
  public:
    /**
     * @param params pipeline shape
     * @param icache L1 instruction cache (conventional or DRI)
     * @param dcache L1 data cache
     * @param parent stats parent
     */
    OooCore(const OooParams &params, MemoryLevel *icache,
            MemoryLevel *dcache, stats::StatGroup *parent);

    /**
     * Attach a DRI i-cache for retirement notifications and active-
     * size integration (pass nullptr for conventional runs).
     */
    void setDri(DriICache *dri) { addResizable(dri); }

    /**
     * Run until @p stream ends or @p maxInstrs commit. Resumable
     * (Core contract): state persists across calls.
     * @return cumulative cycles and instructions executed
     */
    CoreStats run(InstrStream &stream, InstCount maxInstrs) override;

    /** Cumulative cycles/instructions (Core contract). */
    CoreStats stats() const override
    {
        CoreStats s;
        s.cycles = now_;
        s.instructions = committedInstrs_.value();
        return s;
    }

    /** Stream ended and pipeline empty (Core contract). */
    bool drained() const override
    {
        return streamDone_ && !instrPending_ &&
               fetchQueue_.empty() && seqHead_ == seqTail_;
    }

    BranchPredictor &predictor() { return bpred_; }

    /** What the issue stage holds, by unissued in-flight entry. */
    struct SchedulerOccupancy
    {
        /** Waiting on at least one unissued producer. */
        unsigned waiting = 0;
        /** Producer-free; operands arrive after now. */
        unsigned timed = 0;
        /** Operands available now. */
        unsigned ready = 0;
        /** FP and multiply entries among the timed ones. */
        unsigned timedFpMul = 0;
        /** Loads whose forwarding store has not completed. */
        unsigned loadsOnStore = 0;
    };

    /** Tally the scheduler state (tests place checkpoint splits
     *  where the wakeup state is non-trivial). */
    SchedulerOccupancy schedulerOccupancy() const;

    /** Core contract: serialize/restore the full pipeline state.
     *  Split-and-continue is bit-identical at any split point. */
    void snapshotTo(sim::CheckpointWriter &w) const override;
    void restoreFrom(sim::CheckpointReader &r) override;

    Cycles cycles() const { return now_; }
    InstCount committed() const { return committedInstrs_.value(); }
    std::uint64_t icacheStallCycles() const
    {
        return icacheStallCycles_.value();
    }
    std::uint64_t branchStallCycles() const
    {
        return branchStallCycles_.value();
    }

  private:
    /**
     * The cold part of an in-flight instruction (ROB entry): the
     * payload dispatch writes and commit/forwarding read. The
     * scheduler's per-slot fields live in the arrays below.
     */
    struct RobEntry
    {
        Instr instr;
        BranchPrediction pred;
        bool predMade = false;
        bool mispredict = false;
        /** -1 when free of that dependency. */
        std::int64_t prod1 = -1;
        std::int64_t prod2 = -1;
        /** Older store this load must wait for / forward from. */
        std::int64_t depStore = -1;
    };

    /** A fetched, not yet dispatched instruction. */
    struct FetchedInstr
    {
        Instr instr;
        BranchPrediction pred;
        bool predMade = false;
        bool mispredict = false;
    };

    /** A (cycle, ROB slot) pair ordered earliest first. */
    using TimedSlot = std::pair<Cycles, std::uint32_t>;

    /** Producers a consumer can wait on: prod1, prod2, depStore. */
    static constexpr unsigned kProducerShift = 2;

    /** Timing-wheel span in cycles (a multiple of 64). */
    static constexpr std::size_t kWheelCycles = 1024;

    /** ROB slot of the in-flight @p seq (no division). */
    std::uint32_t slotOf(std::int64_t seq) const
    {
        std::size_t s =
            headSlot_ + static_cast<std::size_t>(seq - seqHead_);
        if (s >= robBuf_.size())
            s -= robBuf_.size();
        return static_cast<std::uint32_t>(s);
    }

    void advanceSlot(std::uint32_t &slot) const
    {
        if (++slot == robBuf_.size())
            slot = 0;
    }

    /**
     * Wire the unissued entry in @p slot to its in-flight producers:
     * register on each unissued producer's consumer list, fold the
     * completion cycles of issued ones into its ready cycle, and
     * queue it when nothing is left to wait for.
     */
    void scheduleEntry(std::uint32_t slot);

    /** Queue the producer-free entry in @p slot: ready set if its
     *  operands are available now, else timed for its ready cycle. */
    void enqueueReady(std::uint32_t slot);

    void markReady(std::uint32_t slot)
    {
        readyBits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }

    /** Time the entry in @p slot for cycle @p at (> wheelAt_). */
    void addTimed(std::uint32_t slot, Cycles at);

    /** Record an issued entry completing at @p at (> wheelAt_). */
    void addCompletion(Cycles at);

    /** Move the wheel to now_: entries timed for the passed cycles
     *  become ready, passed completion marks clear. */
    void advanceWheel();

    /** Rebuild the derived scheduler state and store-forwarding
     *  words from the ROB (restore). */
    void rebuildScheduler();

    void doCommit();
    void doIssue();
    void doDispatch();
    void doFetch(InstrStream &stream);
    Cycles nextEventCycle() const;

    OooParams params_;
    MemoryLevel *icache_;
    MemoryLevel *dcache_;
    BranchPredictor bpred_;

    Cycles now_ = 0;

    /** ROB ring buffer: valid seqs are [seqHead_, seqTail_),
     *  seqHead_ in slot headSlot_ (seq modulo robSize). */
    std::vector<RobEntry> robBuf_;
    std::int64_t seqHead_ = 0;
    std::int64_t seqTail_ = 0;
    std::uint32_t headSlot_ = 0;
    std::uint32_t tailSlot_ = 0;

    /** Hot per-slot state, beside the cold robBuf_ payload. */
    std::vector<std::uint8_t> issued_;
    std::vector<Cycles> completeAt_;
    /** Unissued producers an entry still waits on. */
    std::vector<std::uint8_t> waitCount_;
    /** Max completeAt over the entry's issued producers. */
    std::vector<Cycles> readyAt_;

    /**
     * Wakeup/select scheduler state. Derived from the ROB: never
     * checkpointed, rebuilt by restoreFrom().
     *  - consumerHead_[p]: first node of producer slot p's consumer
     *    list; node (c << kProducerShift | k) is consumer slot c's
     *    k-th producer link, nodeNext_ chains the list (-1 ends).
     *  - readyBits_: unissued entries whose operands are available
     *    now, one bit per ROB slot, selected in age order.
     *  - The timing wheel covers cycles (wheelAt_, wheelAt_ +
     *    kWheelCycles), one bucket per cycle modulo the span.
     *    wheelHead_[b] chains (through timedNext_) the producer-free
     *    entries whose operands arrive at that cycle; wheelBusy_
     *    marks buckets holding such entries or an issued entry's
     *    completion, so the first busy bucket after now_ is the next
     *    completion (every timed cycle is some producer's pending
     *    completion). Events beyond the span wait in farTimed_ /
     *    farCompletions_, min-heaps by cycle.
     */
    std::vector<std::int32_t> consumerHead_;
    std::vector<std::int32_t> nodeNext_;
    std::vector<std::uint64_t> readyBits_;
    Cycles wheelAt_ = 0;
    std::vector<std::int32_t> wheelHead_;
    std::vector<std::int32_t> timedNext_;
    std::vector<std::uint64_t> wheelBusy_;
    std::priority_queue<TimedSlot, std::vector<TimedSlot>,
                        std::greater<TimedSlot>>
        farTimed_;
    std::priority_queue<Cycles, std::vector<Cycles>,
                        std::greater<Cycles>>
        farCompletions_;

    std::vector<FetchedInstr> fetchQueue_;
    size_t fetchQueueHead_ = 0;

    /** Rename table: last in-flight writer per register. */
    std::int64_t lastWriter_[64];

    unsigned lsqOccupancy_ = 0;

    /** In-flight store seqs (store-to-load forwarding search). */
    struct InflightStore
    {
        std::int64_t seq;
        /** Forwarding word of its address (derived on restore). */
        Addr word;
    };
    std::deque<InflightStore> storeSeqs_;

    /** Fetch state. */
    bool streamDone_ = false;
    Cycles fetchResumeAt_ = 0;
    bool haltedForBranch_ = false;
    std::int64_t stallBranchSeq_ = -1; ///< unresolved mispredict
    Cycles branchStallFrom_ = 0;
    Addr lastFetchBlock_ = kInvalidAddr;
    bool fetchStallIsIcache_ = false;
    unsigned fetchBlockBytes_ = 32;

    bool instrPending_ = false;
    Instr pendingInstr_{};

    /** Remaining instructions this run may commit (exact stop). */
    InstCount commitBudget_ = 0;

    /**
     * Cycle of the most recent doCommit(). When a run() call stops
     * mid-cycle on its commit budget, the next call re-enters
     * doCommit() at the same local cycle; the pair lets it deduct
     * the commits already performed so the boundary cycle never
     * exceeds commitWidth (split runs stay bit-identical to
     * uninterrupted ones; see tests/checkpoint_test.cc).
     */
    Cycles lastCommitCycle_ = ~Cycles{0};

    /** Per-cycle work counters (idle-skip detection). */
    unsigned commitsThisCycle_ = 0;
    unsigned issuesThisCycle_ = 0;
    unsigned dispatchesThisCycle_ = 0;
    unsigned fetchesThisCycle_ = 0;

    stats::StatGroup group_;
    stats::Scalar committedInstrs_;
    stats::Scalar simCycles_;
    stats::Scalar icacheStallCycles_;
    stats::Scalar branchStallCycles_;
    stats::Scalar robFullStalls_;
    stats::Scalar loadForwards_;
    stats::Scalar mispredicts_;
};

} // namespace drisim

#endif // DRISIM_CPU_OOO_CORE_HH
