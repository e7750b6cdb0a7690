/**
 * @file
 * Cycle-stepped out-of-order core: fetch/issue/commit pipeline with
 * ROB/LSQ occupancy and misprediction timing, and a wakeup/select
 * issue stage (dependency lists, ready bitset, timing wheel).
 */

#include "cpu/ooo_core.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/logging.hh"

namespace drisim
{

namespace
{

constexpr Cycles kNoEvent = std::numeric_limits<Cycles>::max();

/** Word granularity for store-to-load forwarding. */
constexpr unsigned kForwardShift = 3; // 8-byte words

} // namespace

Cycles
OooParams::execLatency(OpClass op)
{
    switch (op) {
      case OpClass::IntAlu:  return 1;
      case OpClass::IntMul:  return 3;
      case OpClass::FpAlu:   return 4;
      case OpClass::Load:    return 1; // + d-cache
      case OpClass::Store:   return 1;
      case OpClass::Branch:  return 1;
      case OpClass::Jump:    return 1;
      case OpClass::Call:    return 1;
      case OpClass::Return:  return 1;
    }
    return 1;
}

OooCore::OooCore(const OooParams &params, MemoryLevel *icache,
                 MemoryLevel *dcache, stats::StatGroup *parent)
    : params_(params),
      icache_(icache),
      dcache_(dcache),
      bpred_(params.bpred, parent),
      robBuf_(params.robSize),
      issued_(params.robSize, 0),
      completeAt_(params.robSize, 0),
      waitCount_(params.robSize, 0),
      readyAt_(params.robSize, 0),
      consumerHead_(params.robSize, -1),
      nodeNext_(std::size_t{params.robSize} << kProducerShift, -1),
      readyBits_((params.robSize + 63) / 64, 0),
      wheelHead_(kWheelCycles, -1),
      timedNext_(params.robSize, -1),
      wheelBusy_(kWheelCycles / 64, 0),
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

void
OooCore::enqueueReady(std::uint32_t slot)
{
    if (readyAt_[slot] <= now_)
        markReady(slot);
    else
        addTimed(slot, readyAt_[slot]);
}

void
OooCore::addTimed(std::uint32_t slot, Cycles at)
{
    if (at - wheelAt_ >= kWheelCycles) {
        farTimed_.emplace(at, slot);
        return;
    }
    const std::size_t b = at & (kWheelCycles - 1);
    timedNext_[slot] = wheelHead_[b];
    wheelHead_[b] = static_cast<std::int32_t>(slot);
    wheelBusy_[b >> 6] |= std::uint64_t{1} << (b & 63);
}

void
OooCore::addCompletion(Cycles at)
{
    if (at - wheelAt_ >= kWheelCycles) {
        farCompletions_.push(at);
        return;
    }
    const std::size_t b = at & (kWheelCycles - 1);
    wheelBusy_[b >> 6] |= std::uint64_t{1} << (b & 63);
}

void
OooCore::advanceWheel()
{
    // Visit the busy buckets of cycles (wheelAt_, now_], a chunk of
    // one bitmap word at a time (the span is whole words).
    std::size_t left = static_cast<std::size_t>(
        std::min<Cycles>(now_ - wheelAt_, kWheelCycles));
    std::size_t b = (wheelAt_ + 1) & (kWheelCycles - 1);
    while (left > 0) {
        const std::size_t bit = b & 63;
        const std::size_t n = std::min<std::size_t>(64 - bit, left);
        std::uint64_t &word = wheelBusy_[b >> 6];
        const std::uint64_t span =
            (n == 64 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << n) - 1)
            << bit;
        for (std::uint64_t busy = word & span; busy != 0;
             busy &= busy - 1) {
            const std::size_t k = (b & ~std::size_t{63}) +
                                  std::countr_zero(busy);
            for (std::int32_t s = wheelHead_[k]; s >= 0;
                 s = timedNext_[s])
                markReady(static_cast<std::uint32_t>(s));
            wheelHead_[k] = -1;
        }
        word &= ~span;
        left -= n;
        b = (b + n) & (kWheelCycles - 1);
    }
    wheelAt_ = now_;

    while (!farTimed_.empty() && farTimed_.top().first <= now_) {
        markReady(farTimed_.top().second);
        farTimed_.pop();
    }
    while (!farCompletions_.empty() && farCompletions_.top() <= now_)
        farCompletions_.pop();
}

void
OooCore::scheduleEntry(std::uint32_t slot)
{
    const RobEntry &e = robBuf_[slot];
    // depStore is -1 for everything but loads.
    const std::int64_t producers[] = {e.prod1, e.prod2, e.depStore};
    unsigned waits = 0;
    Cycles ready = 0;
    for (unsigned k = 0; k < 3; ++k) {
        const std::int64_t p = producers[k];
        if (p < seqHead_)
            continue; // none, or committed: value available
        const std::uint32_t ps = slotOf(p);
        if (issued_[ps]) {
            ready = std::max(ready, completeAt_[ps]);
            continue;
        }
        const auto node =
            static_cast<std::int32_t>(slot << kProducerShift | k);
        nodeNext_[node] = consumerHead_[ps];
        consumerHead_[ps] = node;
        ++waits;
    }
    waitCount_[slot] = static_cast<std::uint8_t>(waits);
    readyAt_[slot] = ready;
    if (waits == 0)
        enqueueReady(slot);
}

void
OooCore::rebuildScheduler()
{
    const std::size_t size = robBuf_.size();
    headSlot_ = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(seqHead_) % size);
    tailSlot_ = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(seqTail_) % size);
    std::fill(consumerHead_.begin(), consumerHead_.end(), -1);
    std::fill(readyBits_.begin(), readyBits_.end(), 0);
    wheelAt_ = now_;
    std::fill(wheelHead_.begin(), wheelHead_.end(), -1);
    std::fill(wheelBusy_.begin(), wheelBusy_.end(), 0);
    farTimed_ = {};
    farCompletions_ = {};
    // Committed stores awaiting collection never match a load.
    for (InflightStore &s : storeSeqs_)
        s.word = s.seq >= seqHead_
                     ? robBuf_[slotOf(s.seq)].instr.memAddr >>
                           kForwardShift
                     : 0;
    std::uint32_t slot = headSlot_;
    for (std::int64_t seq = seqHead_; seq < seqTail_;
         ++seq, advanceSlot(slot)) {
        if (!issued_[slot])
            scheduleEntry(slot);
        else if (completeAt_[slot] > now_)
            addCompletion(completeAt_[slot]);
    }
}

OooCore::SchedulerOccupancy
OooCore::schedulerOccupancy() const
{
    SchedulerOccupancy occ;
    std::uint32_t slot = headSlot_;
    for (std::int64_t seq = seqHead_; seq < seqTail_;
         ++seq, advanceSlot(slot)) {
        if (issued_[slot])
            continue;
        const RobEntry &e = robBuf_[slot];
        const OpClass op = e.instr.op;
        if (waitCount_[slot] > 0) {
            ++occ.waiting;
        } else if (readyAt_[slot] > now_) {
            ++occ.timed;
            if (op == OpClass::FpAlu || op == OpClass::IntMul)
                ++occ.timedFpMul;
        } else {
            ++occ.ready;
        }
        if (op == OpClass::Load && e.depStore >= seqHead_) {
            const std::uint32_t s = slotOf(e.depStore);
            if (!issued_[s] || completeAt_[s] > now_)
                ++occ.loadsOnStore;
        }
    }
    return occ;
}

void
OooCore::doCommit()
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
        if (!issued_[headSlot_] || completeAt_[headSlot_] > now_)
            break;
        const RobEntry &e = robBuf_[headSlot_];
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
        advanceSlot(headSlot_);
        ++n;
    }
    if (n > 0) {
        committedInstrs_ += n;
        commitBudget_ -= n;
        retire(n);
    }
    commitsThisCycle_ = already + n;
}

void
OooCore::doIssue()
{
    // Entries whose operands arrive by this cycle become selectable.
    advanceWheel();

    unsigned issued = 0;
    unsigned mem_used = 0;
    unsigned fp_used = 0;
    unsigned mul_used = 0;

    // Select in age order: the head slot's word from the head bit
    // up, the following words (wrapping), then the head word's bits
    // below the head slot.
    const std::size_t words = readyBits_.size();
    std::size_t w = headSlot_ >> 6;
    const std::uint64_t below_head =
        (std::uint64_t{1} << (headSlot_ & 63)) - 1;
    std::uint64_t bits = readyBits_[w] & ~below_head;
    for (std::size_t step = 0;
         step <= words && issued < params_.issueWidth; ++step) {
        if (step > 0) {
            if (++w == words)
                w = 0;
            bits = readyBits_[w];
            if (step == words)
                bits &= below_head;
        }
        while (bits != 0 && issued < params_.issueWidth) {
            const unsigned bit = std::countr_zero(bits);
            bits &= bits - 1;
            const auto slot = static_cast<std::uint32_t>(w * 64 + bit);
            const RobEntry &e = robBuf_[slot];

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
                    // The matching store is still in flight (its
                    // data is ready): forward, no d-cache access.
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

            readyBits_[w] &= ~(std::uint64_t{1} << bit);
            const Cycles done = now_ + lat;
            issued_[slot] = 1;
            completeAt_[slot] = done;
            addCompletion(done);
            ++issued;

            // Wakeup. Every latency is at least one cycle, so a
            // consumer never becomes ready in its producer's issue
            // cycle: it is timed for its ready cycle.
            for (std::int32_t node = consumerHead_[slot]; node >= 0;
                 node = nodeNext_[node]) {
                const auto c =
                    static_cast<std::uint32_t>(node) >> kProducerShift;
                readyAt_[c] = std::max(readyAt_[c], done);
                if (--waitCount_[c] == 0)
                    addTimed(c, readyAt_[c]);
            }
            consumerHead_[slot] = -1;
        }
    }
    issuesThisCycle_ = issued;
}

void
OooCore::doDispatch()
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

        const std::uint32_t slot = tailSlot_;
        RobEntry &e = robBuf_[slot];
        e.instr = f.instr;
        e.pred = f.pred;
        e.predMade = f.predMade;
        e.mispredict = f.mispredict;
        issued_[slot] = 0;
        completeAt_[slot] = 0;
        e.prod1 = f.instr.src1 ? lastWriter_[f.instr.src1] : -1;
        e.prod2 = f.instr.src2 ? lastWriter_[f.instr.src2] : -1;
        e.depStore = -1;

        if (f.instr.op == OpClass::Load) {
            const Addr word = f.instr.memAddr >> kForwardShift;
            for (auto it = storeSeqs_.rbegin();
                 it != storeSeqs_.rend(); ++it) {
                if (it->seq < seqHead_)
                    break;
                if (it->word == word) {
                    e.depStore = it->seq;
                    break;
                }
            }
        } else if (f.instr.op == OpClass::Store) {
            storeSeqs_.push_back(
                {seqTail_, f.instr.memAddr >> kForwardShift});
        }

        scheduleEntry(slot);

        if (isMem(f.instr.op))
            ++lsqOccupancy_;
        if (f.instr.dest != 0)
            lastWriter_[f.instr.dest] = seqTail_;
        if (f.mispredict)
            stallBranchSeq_ = seqTail_;

        ++seqTail_;
        advanceSlot(tailSlot_);
        ++fetchQueueHead_;
        ++n;
    }
    if (fetchQueueHead_ == fetchQueue_.size()) {
        fetchQueue_.clear();
        fetchQueueHead_ = 0;
    }
    // Garbage-collect committed stores from the forwarding list.
    while (!storeSeqs_.empty() && storeSeqs_.front().seq < seqHead_)
        storeSeqs_.pop_front();
    dispatchesThisCycle_ = n;
}

void
OooCore::doFetch(InstrStream &stream)
{
    fetchesThisCycle_ = 0;

    // Branch-redirect bookkeeping: once the offending control
    // instruction resolves, fetch restarts after the penalty.
    if (haltedForBranch_) {
        if (stallBranchSeq_ >= 0) {
            const bool committed = stallBranchSeq_ < seqHead_;
            const std::uint32_t slot =
                committed ? 0 : slotOf(stallBranchSeq_);
            const bool resolved =
                committed ||
                (issued_[slot] && completeAt_[slot] <= now_);
            if (resolved) {
                const Cycles resolve_at =
                    committed ? now_ : completeAt_[slot];
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

Cycles
OooCore::nextEventCycle() const
{
    Cycles next = kNoEvent;
    if (fetchResumeAt_ > now_)
        next = std::min(next, fetchResumeAt_);
    // doIssue() moved the wheel to now_ this cycle: its first busy
    // bucket after now_ is the earliest in-span completion.
    std::size_t b = (now_ + 1) & (kWheelCycles - 1);
    for (std::size_t left = kWheelCycles - 1; left > 0;) {
        const std::size_t bit = b & 63;
        const std::size_t n = std::min<std::size_t>(64 - bit, left);
        const std::uint64_t busy = wheelBusy_[b >> 6] >> bit;
        const std::uint64_t in_span =
            n == 64 ? busy : busy & ((std::uint64_t{1} << n) - 1);
        if (in_span != 0) {
            next = std::min<Cycles>(
                next, now_ + 1 + (kWheelCycles - 1 - left) +
                          std::countr_zero(in_span));
            break;
        }
        left -= n;
        b = (b + n) & (kWheelCycles - 1);
    }
    if (!farCompletions_.empty())
        next = std::min(next, farCompletions_.top());
    return next;
}

CoreStats
OooCore::run(InstrStream &stream, InstCount maxInstrs)
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
            drisim_assert(next != kNoEvent,
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
