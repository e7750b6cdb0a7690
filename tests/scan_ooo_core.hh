/**
 * @file
 * Test-only reference: the out-of-order core as it was before the
 * wakeup/select scheduler, issuing by rescanning the whole ROB every
 * cycle and checking each entry's producers. Kept verbatim (class
 * renamed ScanOooCore, checkpointing dropped) so
 * ooo_scheduler_diff_test.cc can require the event-driven OooCore to
 * reproduce its every memory access, cycle count and stat.
 */

#ifndef DRISIM_TESTS_SCAN_OOO_CORE_HH
#define DRISIM_TESTS_SCAN_OOO_CORE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cpu/ooo_core.hh"
#include "util/logging.hh"

namespace drisim
{

namespace scan_detail
{

constexpr Cycles kNoEvent = std::numeric_limits<Cycles>::max();

/** Word granularity for store-to-load forwarding. */
constexpr unsigned kForwardShift = 3; // 8-byte words

} // namespace scan_detail

/** The scanning out-of-order core (reference only). */
class ScanOooCore : public Core
{
  public:
    /**
     * @param params pipeline shape
     * @param icache L1 instruction cache (conventional or DRI)
     * @param dcache L1 data cache
     * @param parent stats parent
     */
    ScanOooCore(const OooParams &params, MemoryLevel *icache,
                MemoryLevel *dcache, stats::StatGroup *parent);

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

    /** The reference is never checkpointed. */
    void snapshotTo(sim::CheckpointWriter &) const override
    {
        throw std::logic_error("ScanOooCore has no checkpoint");
    }
    void restoreFrom(sim::CheckpointReader &) override
    {
        throw std::logic_error("ScanOooCore has no checkpoint");
    }

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
    /** An in-flight instruction (ROB entry). */
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
        bool issued = false;
        Cycles completeAt = 0;
    };

    /** A fetched, not yet dispatched instruction. */
    struct FetchedInstr
    {
        Instr instr;
        BranchPrediction pred;
        bool predMade = false;
        bool mispredict = false;
    };

    RobEntry &rob(std::int64_t seq)
    {
        return robBuf_[static_cast<size_t>(seq) % robBuf_.size()];
    }

    bool producerDone(std::int64_t seq) const;
    bool entryReady(const RobEntry &e) const;

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

    /** ROB ring buffer: valid seqs are [seqHead_, seqTail_). */
    std::vector<RobEntry> robBuf_;
    std::int64_t seqHead_ = 0;
    std::int64_t seqTail_ = 0;

    std::vector<FetchedInstr> fetchQueue_;
    size_t fetchQueueHead_ = 0;

    /** Rename table: last in-flight writer per register. */
    std::int64_t lastWriter_[64];

    unsigned lsqOccupancy_ = 0;

    /** In-flight store seqs (store-to-load forwarding search). */
    std::deque<std::int64_t> storeSeqs_;

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

inline
ScanOooCore::ScanOooCore(const OooParams &params,
                         MemoryLevel *icache, MemoryLevel *dcache,
                         stats::StatGroup *parent)
    : params_(params),
      icache_(icache),
      dcache_(dcache),
      bpred_(params.bpred, parent),
      robBuf_(params.robSize),
      group_(parent, "core"),
      committedInstrs_(&group_, "committed", "instructions committed"),
      simCycles_(&group_, "cycles", "cycles simulated"),
      icacheStallCycles_(&group_, "icache_stall_cycles",
                         "fetch-stall cycles charged to i-cache misses"),
      branchStallCycles_(&group_, "branch_stall_cycles",
                         "fetch-stall cycles charged to mispredicts"),
      robFullStalls_(&group_, "rob_full_stalls",
                     "dispatch stalls with a full ROB"),
      loadForwards_(&group_, "load_forwards",
                    "loads forwarded from in-flight stores"),
      mispredicts_(&group_, "mispredicts",
                   "control instructions needing a redirect")
{
    drisim_assert(params.robSize > 0 && params.fetchWidth > 0 &&
                  params.issueWidth > 0 && params.commitWidth > 0,
                  "core widths must be positive");
    fetchBlockBytes_ = params.fetchBlockBytes;
    for (auto &w : lastWriter_)
        w = -1;
}

inline bool
ScanOooCore::producerDone(std::int64_t seq) const
{
    if (seq < 0 || seq < seqHead_)
        return true;
    const RobEntry &e =
        robBuf_[static_cast<size_t>(seq) % robBuf_.size()];
    return e.issued && e.completeAt <= now_;
}

inline bool
ScanOooCore::entryReady(const RobEntry &e) const
{
    return producerDone(e.prod1) && producerDone(e.prod2);
}

inline void
ScanOooCore::doCommit()
{
    unsigned n = 0;
    // Commits already performed at this cycle by a previous run()
    // call that stopped here on its budget: the boundary cycle's
    // total must not exceed commitWidth.
    const unsigned already =
        lastCommitCycle_ == now_ ? commitsThisCycle_ : 0;
    lastCommitCycle_ = now_;
    unsigned width =
        params_.commitWidth > already ? params_.commitWidth - already
                                      : 0;
    // Stop at exactly the run's instruction budget so paired runs
    // compare cycle counts at identical instruction counts.
    if (commitBudget_ < width)
        width = static_cast<unsigned>(commitBudget_);
    while (n < width && seqHead_ < seqTail_) {
        RobEntry &e = rob(seqHead_);
        if (!e.issued || e.completeAt > now_)
            break;
        if (e.instr.op == OpClass::Store && dcache_)
            dcache_->accessAt(e.instr.memAddr, AccessType::Store,
                              now_);
        if (isMem(e.instr.op)) {
            drisim_assert(lsqOccupancy_ > 0, "LSQ underflow");
            --lsqOccupancy_;
        }
        if (e.instr.dest != 0 &&
            lastWriter_[e.instr.dest] == seqHead_)
            lastWriter_[e.instr.dest] = -1;
        ++seqHead_;
        ++n;
    }
    if (n > 0) {
        committedInstrs_ += n;
        commitBudget_ -= n;
        retire(n);
    }
    commitsThisCycle_ = already + n;
}

inline void
ScanOooCore::doIssue()
{
    unsigned issued = 0;
    unsigned mem_used = 0;
    unsigned fp_used = 0;
    unsigned mul_used = 0;

    for (std::int64_t seq = seqHead_;
         seq < seqTail_ && issued < params_.issueWidth; ++seq) {
        RobEntry &e = rob(seq);
        if (e.issued)
            continue;
        if (!entryReady(e))
            continue;

        const OpClass op = e.instr.op;
        if (isMem(op) && mem_used >= params_.memPorts)
            continue;
        if (op == OpClass::FpAlu && fp_used >= params_.fpPorts)
            continue;
        if (op == OpClass::IntMul && mul_used >= params_.mulPorts)
            continue;

        Cycles lat = OooParams::execLatency(op);
        if (op == OpClass::Load) {
            if (e.depStore >= seqHead_) {
                // The matching store is still in flight: wait for
                // its data, then forward (no d-cache access).
                if (!producerDone(e.depStore))
                    continue;
                lat += 1;
                ++loadForwards_;
            } else if (dcache_) {
                lat += dcache_->accessAt(e.instr.memAddr,
                                         AccessType::Load, now_)
                           .latency;
            }
            ++mem_used;
        } else if (op == OpClass::Store) {
            ++mem_used;
        } else if (op == OpClass::FpAlu) {
            ++fp_used;
        } else if (op == OpClass::IntMul) {
            ++mul_used;
        }

        e.issued = true;
        e.completeAt = now_ + lat;
        ++issued;
    }
    issuesThisCycle_ = issued;
}

inline void
ScanOooCore::doDispatch()
{
    unsigned n = 0;
    while (n < params_.fetchWidth &&
           fetchQueueHead_ < fetchQueue_.size()) {
        if (seqTail_ - seqHead_ >=
            static_cast<std::int64_t>(params_.robSize)) {
            ++robFullStalls_;
            break;
        }
        FetchedInstr &f = fetchQueue_[fetchQueueHead_];
        if (isMem(f.instr.op) && lsqOccupancy_ >= params_.lsqSize)
            break;

        RobEntry &e = rob(seqTail_);
        e.instr = f.instr;
        e.pred = f.pred;
        e.predMade = f.predMade;
        e.mispredict = f.mispredict;
        e.issued = false;
        e.completeAt = 0;
        e.prod1 = f.instr.src1 ? lastWriter_[f.instr.src1] : -1;
        e.prod2 = f.instr.src2 ? lastWriter_[f.instr.src2] : -1;
        e.depStore = -1;

        if (f.instr.op == OpClass::Load) {
            const Addr word = f.instr.memAddr >> scan_detail::kForwardShift;
            for (auto it = storeSeqs_.rbegin();
                 it != storeSeqs_.rend(); ++it) {
                if (*it < seqHead_)
                    break;
                const RobEntry &s = rob(*it);
                if ((s.instr.memAddr >> scan_detail::kForwardShift) == word) {
                    e.depStore = *it;
                    break;
                }
            }
        } else if (f.instr.op == OpClass::Store) {
            storeSeqs_.push_back(seqTail_);
        }

        if (isMem(f.instr.op))
            ++lsqOccupancy_;
        if (f.instr.dest != 0)
            lastWriter_[f.instr.dest] = seqTail_;
        if (f.mispredict)
            stallBranchSeq_ = seqTail_;

        ++seqTail_;
        ++fetchQueueHead_;
        ++n;
    }
    if (fetchQueueHead_ == fetchQueue_.size()) {
        fetchQueue_.clear();
        fetchQueueHead_ = 0;
    }
    // Garbage-collect committed stores from the forwarding list.
    while (!storeSeqs_.empty() && storeSeqs_.front() < seqHead_)
        storeSeqs_.pop_front();
    dispatchesThisCycle_ = n;
}

inline void
ScanOooCore::doFetch(InstrStream &stream)
{
    fetchesThisCycle_ = 0;

    // Branch-redirect bookkeeping: once the offending control
    // instruction resolves, fetch restarts after the penalty.
    if (haltedForBranch_) {
        if (stallBranchSeq_ >= 0) {
            const RobEntry &e = rob(stallBranchSeq_);
            const bool resolved =
                stallBranchSeq_ < seqHead_ ||
                (e.issued && e.completeAt <= now_);
            if (resolved) {
                const Cycles resolve_at =
                    stallBranchSeq_ < seqHead_ ? now_ : e.completeAt;
                const Cycles resume =
                    resolve_at + params_.redirectPenalty;
                if (resume > fetchResumeAt_) {
                    fetchResumeAt_ = resume;
                    fetchStallIsIcache_ = false;
                }
                branchStallCycles_ +=
                    resume > branchStallFrom_
                        ? resume - branchStallFrom_
                        : 0;
                haltedForBranch_ = false;
                stallBranchSeq_ = -1;
            } else {
                return;
            }
        } else {
            return; // mispredicted instr still awaiting dispatch
        }
    }

    if (now_ < fetchResumeAt_)
        return;

    if (streamDone_ && !instrPending_)
        return;

    while (fetchesThisCycle_ < params_.fetchWidth) {
        if (fetchQueue_.size() - fetchQueueHead_ >=
            params_.fetchQueueSize)
            break;

        Instr instr;
        if (instrPending_) {
            instr = pendingInstr_;
            instrPending_ = false;
        } else if (!stream.next(instr)) {
            streamDone_ = true;
            break;
        }

        // One i-cache access per block the fetch group touches.
        const Addr block = instr.pc / fetchBlockBytes_;
        if (block != lastFetchBlock_) {
            AccessResult r = icache_->accessAt(
                instr.pc, AccessType::InstFetch, now_);
            lastFetchBlock_ = block;
            if (!r.hit) {
                // Fill in progress: stall, keep the instruction.
                pendingInstr_ = instr;
                instrPending_ = true;
                fetchResumeAt_ = now_ + r.latency;
                fetchStallIsIcache_ = true;
                icacheStallCycles_ += r.latency - 1;
                break;
            }
            if (r.latency > 1) {
                // Slow hit: the line is present but not readable
                // yet (a drowsy line's rail recharging). Stall the
                // extra cycles; the kept instruction re-enters
                // without re-accessing the cache, so the wake is
                // charged exactly once.
                pendingInstr_ = instr;
                instrPending_ = true;
                fetchResumeAt_ = now_ + (r.latency - 1);
                fetchStallIsIcache_ = true;
                icacheStallCycles_ += r.latency - 1;
                break;
            }
        }

        FetchedInstr f;
        f.instr = instr;
        if (isControl(instr.op)) {
            f.pred = bpred_.predict(instr.pc, instr.op);
            f.predMade = true;
            const Addr actual_target = instr.nextPc;
            bpred_.noteResolved(f.pred, instr.taken, actual_target);
            f.mispredict = BranchPredictor::mispredicted(
                f.pred, instr.taken, actual_target);
            bpred_.update(instr.pc, instr.op, instr.taken,
                          actual_target);
        }
        fetchQueue_.push_back(f);
        ++fetchesThisCycle_;

        if (isControl(instr.op)) {
            if (f.mispredict) {
                ++mispredicts_;
                haltedForBranch_ = true;
                stallBranchSeq_ = -1; // set at dispatch
                branchStallFrom_ = now_;
                lastFetchBlock_ = kInvalidAddr;
                break;
            }
            if (instr.taken) {
                // Taken-branch fetch break; resume at the target
                // next cycle.
                lastFetchBlock_ = kInvalidAddr;
                break;
            }
        }
    }
}

inline Cycles
ScanOooCore::nextEventCycle() const
{
    Cycles next = scan_detail::kNoEvent;
    if (fetchResumeAt_ > now_)
        next = std::min(next, fetchResumeAt_);
    for (std::int64_t seq = seqHead_; seq < seqTail_; ++seq) {
        const RobEntry &e =
            robBuf_[static_cast<size_t>(seq) % robBuf_.size()];
        if (e.issued && e.completeAt > now_)
            next = std::min(next, e.completeAt);
    }
    return next;
}

inline CoreStats
ScanOooCore::run(InstrStream &stream, InstCount maxInstrs)
{
    const InstCount target = committedInstrs_.value() + maxInstrs;
    commitBudget_ = maxInstrs;

    while (true) {
        doCommit();
        if (committedInstrs_.value() >= target)
            break;
        doIssue();
        doDispatch();
        doFetch(stream);

        const bool drained = streamDone_ && !instrPending_ &&
                             fetchQueue_.empty() &&
                             seqHead_ == seqTail_;
        if (drained)
            break;

        Cycles delta = 1;
        const bool idle = commitsThisCycle_ == 0 &&
                          issuesThisCycle_ == 0 &&
                          dispatchesThisCycle_ == 0 &&
                          fetchesThisCycle_ == 0;
        if (idle) {
            const Cycles next = nextEventCycle();
            drisim_assert(next != scan_detail::kNoEvent,
                          "core deadlocked at cycle %llu",
                          static_cast<unsigned long long>(now_));
            if (next > now_)
                delta = next - now_;
        }
        now_ += delta;
        integrate(delta);
    }

    simCycles_.set(now_);
    return stats();
}

} // namespace drisim

#endif // DRISIM_TESTS_SCAN_OOO_CORE_HH
