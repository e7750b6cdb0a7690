/**
 * @file
 * snapshotTo()/restoreFrom() implementations for every serializable
 * component, collected in the sim layer: the components declare the
 * pair in their headers (against forward-declared writer/reader
 * types), and this translation unit supplies the encodings, so the
 * serialization format lives in one place next to its primitives
 * (sim/checkpoint.hh).
 *
 * Conventions: geometry/config is NOT serialized — snapshots restore
 * into an identically-configured twin, and the store key plus the
 * typed tags catch mismatches. Sizes that the config implies (table
 * lengths, set counts) are written anyway and verified on restore.
 */

#include <cstring>

#include "cpu/branch_pred.hh"
#include "cpu/ooo_core.hh"
#include "cpu/simple_core.hh"
#include "mem/cache.hh"
#include "mem/directory.hh"
#include "mem/hierarchy.hh"
#include "mem/memory.hh"
#include "mem/resizable_cache.hh"
#include "mem/tag_store.hh"
#include "policy/decay_policy.hh"
#include "policy/dri_policy.hh"
#include "policy/drowsy_policy.hh"
#include "policy/policy_cache.hh"
#include "sim/checkpoint.hh"
#include "stats/stats.hh"
#include "util/random.hh"
#include "workload/generator.hh"

namespace drisim
{

namespace
{

using sim::CheckpointError;
using sim::CheckpointReader;
using sim::CheckpointWriter;

void
expectU64(CheckpointReader &r, std::uint64_t want, const char *what)
{
    const std::uint64_t got = r.getU64();
    if (got != want)
        throw CheckpointError(std::string(what) + " mismatch");
}

template <typename Byte>
void
putByteVector(CheckpointWriter &w, const std::vector<Byte> &v)
{
    static_assert(sizeof(Byte) == 1);
    w.putString(std::string_view(
        reinterpret_cast<const char *>(v.data()), v.size()));
}

template <typename Byte>
void
getByteVector(CheckpointReader &r, std::vector<Byte> &v,
              const char *what)
{
    static_assert(sizeof(Byte) == 1);
    const std::string s = r.getString();
    if (s.size() != v.size())
        throw CheckpointError(std::string(what) + " size mismatch");
    std::memcpy(v.data(), s.data(), s.size());
}

void
putInstr(CheckpointWriter &w, const Instr &i)
{
    w.putU64(i.pc);
    w.putU64(static_cast<std::uint64_t>(i.op));
    w.putU64(i.dest);
    w.putU64(i.src1);
    w.putU64(i.src2);
    w.putBool(i.taken);
    w.putU64(i.nextPc);
    w.putU64(i.memAddr);
}

void
getInstr(CheckpointReader &r, Instr &i)
{
    i.pc = r.getU64();
    i.op = static_cast<OpClass>(r.getU64());
    i.dest = static_cast<std::uint8_t>(r.getU64());
    i.src1 = static_cast<std::uint8_t>(r.getU64());
    i.src2 = static_cast<std::uint8_t>(r.getU64());
    i.taken = r.getBool();
    i.nextPc = r.getU64();
    i.memAddr = r.getU64();
}

} // namespace

// ---------------------------------------------------------------
// util/random
// ---------------------------------------------------------------

void
Rng::snapshotTo(sim::CheckpointWriter &w) const
{
    for (const std::uint64_t s : s_)
        w.putU64(s);
}

void
Rng::restoreFrom(sim::CheckpointReader &r)
{
    for (std::uint64_t &s : s_)
        s = r.getU64();
}

// ---------------------------------------------------------------
// workload/generator
// ---------------------------------------------------------------

void
TraceGenerator::snapshotTo(sim::CheckpointWriter &w) const
{
    w.beginSection("gen");
    rng_.snapshotTo(w);
    w.putU64(phaseIdx_);
    w.putU64(emittedInPhase_);
    w.putU64(produced_);
    w.putU64(stack_.size());
    for (const Frame &f : stack_) {
        w.putI64(f.func);
        w.putI64(f.block);
        w.putU64(f.instr);
        w.putU64(f.latchRemaining.size());
        for (const std::uint64_t rem : f.latchRemaining)
            w.putU64(rem);
    }
    w.putU64(destCounter_);
    w.putU64(fpDestCounter_);
    for (const std::uint8_t d : recentDest_)
        w.putU64(d);
    w.putU64(recentIdx_);
    w.putU64(seqLoadOff_);
    w.putU64(seqStoreOff_);
    w.putU64(seqSharedOff_);
    w.endSection();
}

void
TraceGenerator::restoreFrom(sim::CheckpointReader &r)
{
    r.beginSection("gen");
    rng_.restoreFrom(r);
    phaseIdx_ = r.getU64();
    emittedInPhase_ = r.getU64();
    produced_ = r.getU64();
    stack_.clear();
    const std::uint64_t frames = r.getU64();
    for (std::uint64_t k = 0; k < frames; ++k) {
        Frame f;
        f.func = static_cast<int>(r.getI64());
        f.block = static_cast<int>(r.getI64());
        f.instr = static_cast<unsigned>(r.getU64());
        f.latchRemaining.resize(r.getU64());
        for (std::uint64_t &rem : f.latchRemaining)
            rem = r.getU64();
        stack_.push_back(std::move(f));
    }
    destCounter_ = static_cast<unsigned>(r.getU64());
    fpDestCounter_ = static_cast<unsigned>(r.getU64());
    for (std::uint8_t &d : recentDest_)
        d = static_cast<std::uint8_t>(r.getU64());
    recentIdx_ = static_cast<unsigned>(r.getU64());
    seqLoadOff_ = r.getU64();
    seqStoreOff_ = r.getU64();
    seqSharedOff_ = r.getU64();
    r.endSection();
}

} // namespace drisim

// ---------------------------------------------------------------
// stats
// ---------------------------------------------------------------

namespace drisim::stats
{

void
Scalar::snapshotTo(sim::CheckpointWriter &w) const
{
    w.putU64(value_);
}

void
Scalar::restoreFrom(sim::CheckpointReader &r)
{
    value_ = r.getU64();
}

void
Average::snapshotTo(sim::CheckpointWriter &w) const
{
    w.putF64(sum_);
    w.putU64(count_);
}

void
Average::restoreFrom(sim::CheckpointReader &r)
{
    sum_ = r.getF64();
    count_ = r.getU64();
}

void
Distribution::snapshotTo(sim::CheckpointWriter &w) const
{
    w.putU64(buckets_.size());
    for (const std::uint64_t b : buckets_)
        w.putU64(b);
    w.putU64(underflow_);
    w.putU64(overflow_);
    w.putU64(samples_);
    w.putF64(sum_);
}

void
Distribution::restoreFrom(sim::CheckpointReader &r)
{
    const std::uint64_t n = r.getU64();
    if (n != buckets_.size())
        throw sim::CheckpointError("distribution bucket mismatch");
    for (std::uint64_t &b : buckets_)
        b = r.getU64();
    underflow_ = r.getU64();
    overflow_ = r.getU64();
    samples_ = r.getU64();
    sum_ = r.getF64();
}

void
StatGroup::snapshotTo(sim::CheckpointWriter &w) const
{
    w.beginSection(name_);
    for (const StatBase *s : stats_)
        s->snapshotTo(w);
    for (const StatGroup *c : children_)
        c->snapshotTo(w);
    w.endSection();
}

void
StatGroup::restoreFrom(sim::CheckpointReader &r)
{
    r.beginSection(name_);
    for (StatBase *s : stats_)
        s->restoreFrom(r);
    for (StatGroup *c : children_)
        c->restoreFrom(r);
    r.endSection();
}

} // namespace drisim::stats

namespace drisim
{

// ---------------------------------------------------------------
// mem/tag_store
// ---------------------------------------------------------------

namespace
{

/**
 * Layout magic leading every v3 tag-store stream. v1/v2 streams
 * started with numSets_ (a small power of two), so a v3 reader that
 * opens an old stream sees a wild mismatch here and reports a
 * version error instead of silently mis-restoring per-block
 * coherence state.
 */
constexpr std::uint64_t kTagStoreLayoutV3 = 0x6472'6973'2d76'3303ULL;

} // namespace

void
TagStore::snapshotTo(sim::CheckpointWriter &w) const
{
    w.beginSection("tags");
    w.putU64(kTagStoreLayoutV3);
    w.putU64(numSets_);
    w.putU64(assoc_);
    w.putU64(tick_);
    for (const CacheBlk &b : blocks_) {
        w.putU64(b.blockAddr);
        w.putBool(b.valid);
        w.putBool(b.dirty);
        w.putU64(b.lastTouch);
        w.putU64(static_cast<std::uint64_t>(b.cstate));
    }
    w.endSection();
}

void
TagStore::restoreFrom(sim::CheckpointReader &r)
{
    r.beginSection("tags");
    if (r.getU64() != kTagStoreLayoutV3)
        throw CheckpointError(
            "tag-store layout version mismatch (pre-v3 snapshot?)");
    expectU64(r, numSets_, "tag-store sets");
    expectU64(r, assoc_, "tag-store assoc");
    tick_ = r.getU64();
    for (CacheBlk &b : blocks_) {
        b.blockAddr = r.getU64();
        b.valid = r.getBool();
        b.dirty = r.getBool();
        b.lastTouch = r.getU64();
        b.cstate = static_cast<CoherenceState>(r.getU64());
    }
    r.endSection();
}

// ---------------------------------------------------------------
// mem/directory
// ---------------------------------------------------------------

void
SparseDirectory::snapshotTo(sim::CheckpointWriter &w) const
{
    w.beginSection("dir");
    w.putU64(maxEntries_);
    w.putU64(tick_);
    w.putU64(allocations_);
    w.putU64(capacityEvictions_);
    for (const Entry &e : slots_) {
        w.putU64(e.block);
        w.putU64(e.sharers);
        w.putI64(e.owner);
        w.putU64(e.lastTouch);
        w.putBool(e.valid);
    }
    w.endSection();
}

void
SparseDirectory::restoreFrom(sim::CheckpointReader &r)
{
    r.beginSection("dir");
    expectU64(r, maxEntries_, "directory capacity");
    tick_ = r.getU64();
    allocations_ = r.getU64();
    capacityEvictions_ = r.getU64();
    index_.clear();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        Entry &e = slots_[i];
        e.block = r.getU64();
        e.sharers = r.getU64();
        e.owner = static_cast<int>(r.getI64());
        e.lastTouch = r.getU64();
        e.valid = r.getBool();
        if (e.valid)
            index_.emplace(e.block, i);
    }
    r.endSection();
}

void
CoherenceController::snapshotTo(sim::CheckpointWriter &w) const
{
    w.beginSection("coherence");
    dir_.snapshotTo(w);
    for (const CoreStats &s : stats_) {
        w.putU64(s.invalidationsReceived);
        w.putU64(s.invalidationsCaused);
        w.putU64(s.downgradesReceived);
        w.putU64(s.coherenceWritebacks);
        w.putU64(s.messageCycles);
    }
    w.endSection();
}

void
CoherenceController::restoreFrom(sim::CheckpointReader &r)
{
    r.beginSection("coherence");
    dir_.restoreFrom(r);
    for (CoreStats &s : stats_) {
        s.invalidationsReceived = r.getU64();
        s.invalidationsCaused = r.getU64();
        s.downgradesReceived = r.getU64();
        s.coherenceWritebacks = r.getU64();
        s.messageCycles = r.getU64();
    }
    r.endSection();
}

// ---------------------------------------------------------------
// mem/cache + mem/memory
// ---------------------------------------------------------------

void
Cache::snapshotTo(sim::CheckpointWriter &w) const
{
    w.beginSection("cache");
    store_.snapshotTo(w);
    mshr_.snapshotTo(w);
    group_.snapshotTo(w);
    w.endSection();
}

void
Cache::restoreFrom(sim::CheckpointReader &r)
{
    r.beginSection("cache");
    store_.restoreFrom(r);
    mshr_.restoreFrom(r);
    group_.restoreFrom(r);
    r.endSection();
}

void
MainMemory::snapshotTo(sim::CheckpointWriter &w) const
{
    w.beginSection("mem");
    group_.snapshotTo(w);
    w.endSection();
}

void
MainMemory::restoreFrom(sim::CheckpointReader &r)
{
    r.beginSection("mem");
    group_.restoreFrom(r);
    r.endSection();
}

// ---------------------------------------------------------------
// core/resize_controller + mem/resizable_cache
// ---------------------------------------------------------------

void
ResizeController::snapshotTo(sim::CheckpointWriter &w) const
{
    w.beginSection("controller");
    w.putU64(missCount_);
    w.putU64(instrsIntoInterval_);
    w.putU64(intervals_);
    w.putU64(throttleCounter_);
    w.putU64(freezeRemaining_);
    w.putU64(throttleEvents_);
    w.putU64(static_cast<std::uint64_t>(lastApplied_));
    w.endSection();
}

void
ResizeController::restoreFrom(sim::CheckpointReader &r)
{
    r.beginSection("controller");
    missCount_ = r.getU64();
    instrsIntoInterval_ = r.getU64();
    intervals_ = r.getU64();
    throttleCounter_ = static_cast<unsigned>(r.getU64());
    freezeRemaining_ = static_cast<unsigned>(r.getU64());
    throttleEvents_ = r.getU64();
    lastApplied_ = static_cast<ResizeDecision>(r.getU64());
    r.endSection();
}

void
ResizableCache::snapshotTo(sim::CheckpointWriter &w) const
{
    w.beginSection("rcache");
    w.putU64(mask_.numSets());
    controller_.snapshotTo(w);
    store_.snapshotTo(w);
    mshr_.snapshotTo(w);
    w.putF64(activeSetCycles_);
    w.putU64(integratedCycles_);
    putByteVector(w, coherenceLost_);
    group_.snapshotTo(w);
    w.endSection();
}

void
ResizableCache::restoreFrom(sim::CheckpointReader &r)
{
    r.beginSection("rcache");
    mask_.setNumSets(r.getU64());
    controller_.restoreFrom(r);
    store_.restoreFrom(r);
    mshr_.restoreFrom(r);
    activeSetCycles_ = r.getF64();
    integratedCycles_ = r.getU64();
    getByteVector(r, coherenceLost_, "rcache coherence-lost bits");
    group_.restoreFrom(r);
    r.endSection();
}

// ---------------------------------------------------------------
// mem/hierarchy
// ---------------------------------------------------------------

void
MemorySide::snapshotMemoryTo(sim::CheckpointWriter &w) const
{
    w.putBool(dram_ != nullptr);
    if (dram_)
        dram_->snapshotTo(w);
    else
        mem_->snapshotTo(w);
    w.putBool(driL2_ != nullptr);
    if (driL2_)
        driL2_->snapshotTo(w);
    else
        l2_->snapshotTo(w);
}

void
MemorySide::restoreMemoryFrom(sim::CheckpointReader &r)
{
    if (r.getBool() != (dram_ != nullptr))
        throw sim::CheckpointError("memory flavour mismatch");
    if (dram_)
        dram_->restoreFrom(r);
    else
        mem_->restoreFrom(r);
    if (r.getBool() != (driL2_ != nullptr))
        throw sim::CheckpointError("L2 flavour mismatch");
    if (driL2_)
        driL2_->restoreFrom(r);
    else
        l2_->restoreFrom(r);
}

void
Hierarchy::snapshotTo(sim::CheckpointWriter &w) const
{
    w.beginSection("hier");
    snapshotMemoryTo(w);
    l1d_->snapshotTo(w);
    w.putBool(convL1i_ != nullptr);
    if (convL1i_)
        convL1i_->snapshotTo(w);
    w.endSection();
}

void
Hierarchy::restoreFrom(sim::CheckpointReader &r)
{
    r.beginSection("hier");
    restoreMemoryFrom(r);
    l1d_->restoreFrom(r);
    if (r.getBool() != (convL1i_ != nullptr))
        throw sim::CheckpointError("L1I flavour mismatch");
    if (convL1i_)
        convL1i_->restoreFrom(r);
    r.endSection();
}

// ---------------------------------------------------------------
// cpu/branch_pred
// ---------------------------------------------------------------

void
BranchPredictor::snapshotTo(sim::CheckpointWriter &w) const
{
    w.beginSection("bpred");
    putByteVector(w, bimodal_);
    putByteVector(w, gshare_);
    putByteVector(w, chooser_);
    w.putU64(history_);
    w.putU64(btb_.size());
    for (const BtbEntry &e : btb_) {
        w.putU64(e.tag);
        w.putU64(e.target);
        w.putU64(e.lastTouch);
    }
    w.putU64(btbTick_);
    w.putU64(ras_.size());
    for (const Addr a : ras_)
        w.putU64(a);
    w.putU64(rasTop_);
    group_.snapshotTo(w);
    w.endSection();
}

void
BranchPredictor::restoreFrom(sim::CheckpointReader &r)
{
    r.beginSection("bpred");
    getByteVector(r, bimodal_, "bimodal");
    getByteVector(r, gshare_, "gshare");
    getByteVector(r, chooser_, "chooser");
    history_ = r.getU64();
    expectU64(r, btb_.size(), "btb size");
    for (BtbEntry &e : btb_) {
        e.tag = r.getU64();
        e.target = r.getU64();
        e.lastTouch = r.getU64();
    }
    btbTick_ = r.getU64();
    expectU64(r, ras_.size(), "ras size");
    for (Addr &a : ras_)
        a = r.getU64();
    rasTop_ = static_cast<unsigned>(r.getU64());
    group_.restoreFrom(r);
    r.endSection();
}

// ---------------------------------------------------------------
// cpu/simple_core
// ---------------------------------------------------------------

void
SimpleCore::snapshotTo(sim::CheckpointWriter &w) const
{
    w.beginSection("simple_core");
    w.putU64(missStall_);
    w.putU64(instrs_);
    w.putU64(lastBlock_);
    w.putU64(retireBatch_);
    w.putBool(streamDone_);
    w.endSection();
}

void
SimpleCore::restoreFrom(sim::CheckpointReader &r)
{
    r.beginSection("simple_core");
    missStall_ = r.getU64();
    instrs_ = r.getU64();
    lastBlock_ = r.getU64();
    retireBatch_ = r.getU64();
    streamDone_ = r.getBool();
    r.endSection();
}

// ---------------------------------------------------------------
// cpu/ooo_core
// ---------------------------------------------------------------

void
OooCore::snapshotTo(sim::CheckpointWriter &w) const
{
    w.beginSection("ooo_core");
    w.putU64(now_);
    w.putU64(robBuf_.size());
    for (std::size_t i = 0; i < robBuf_.size(); ++i) {
        const RobEntry &e = robBuf_[i];
        putInstr(w, e.instr);
        w.putBool(e.pred.taken);
        w.putU64(e.pred.target);
        w.putBool(e.predMade);
        w.putBool(e.mispredict);
        w.putI64(e.prod1);
        w.putI64(e.prod2);
        w.putI64(e.depStore);
        w.putBool(issued_[i] != 0);
        w.putU64(completeAt_[i]);
    }
    w.putI64(seqHead_);
    w.putI64(seqTail_);
    w.putU64(fetchQueue_.size());
    for (const FetchedInstr &f : fetchQueue_) {
        putInstr(w, f.instr);
        w.putBool(f.pred.taken);
        w.putU64(f.pred.target);
        w.putBool(f.predMade);
        w.putBool(f.mispredict);
    }
    w.putU64(fetchQueueHead_);
    for (const std::int64_t s : lastWriter_)
        w.putI64(s);
    w.putU64(lsqOccupancy_);
    w.putU64(storeSeqs_.size());
    for (const InflightStore &s : storeSeqs_)
        w.putI64(s.seq);
    w.putBool(streamDone_);
    w.putU64(fetchResumeAt_);
    w.putBool(haltedForBranch_);
    w.putI64(stallBranchSeq_);
    w.putU64(branchStallFrom_);
    w.putU64(lastFetchBlock_);
    w.putBool(fetchStallIsIcache_);
    w.putBool(instrPending_);
    putInstr(w, pendingInstr_);
    w.putU64(lastCommitCycle_);
    w.putU64(commitsThisCycle_);
    bpred_.snapshotTo(w);
    group_.snapshotTo(w);
    w.endSection();
}

void
OooCore::restoreFrom(sim::CheckpointReader &r)
{
    r.beginSection("ooo_core");
    now_ = r.getU64();
    expectU64(r, robBuf_.size(), "rob size");
    for (std::size_t i = 0; i < robBuf_.size(); ++i) {
        RobEntry &e = robBuf_[i];
        getInstr(r, e.instr);
        e.pred.taken = r.getBool();
        e.pred.target = r.getU64();
        e.predMade = r.getBool();
        e.mispredict = r.getBool();
        e.prod1 = r.getI64();
        e.prod2 = r.getI64();
        e.depStore = r.getI64();
        issued_[i] = r.getBool() ? 1 : 0;
        completeAt_[i] = r.getU64();
    }
    seqHead_ = r.getI64();
    seqTail_ = r.getI64();
    fetchQueue_.resize(r.getU64());
    for (FetchedInstr &f : fetchQueue_) {
        getInstr(r, f.instr);
        f.pred.taken = r.getBool();
        f.pred.target = r.getU64();
        f.predMade = r.getBool();
        f.mispredict = r.getBool();
    }
    fetchQueueHead_ = r.getU64();
    for (std::int64_t &s : lastWriter_)
        s = r.getI64();
    lsqOccupancy_ = static_cast<unsigned>(r.getU64());
    storeSeqs_.resize(r.getU64());
    for (InflightStore &s : storeSeqs_)
        s.seq = r.getI64();
    streamDone_ = r.getBool();
    fetchResumeAt_ = r.getU64();
    haltedForBranch_ = r.getBool();
    stallBranchSeq_ = r.getI64();
    branchStallFrom_ = r.getU64();
    lastFetchBlock_ = r.getU64();
    fetchStallIsIcache_ = r.getBool();
    instrPending_ = r.getBool();
    getInstr(r, pendingInstr_);
    lastCommitCycle_ = r.getU64();
    commitsThisCycle_ = static_cast<unsigned>(r.getU64());
    bpred_.restoreFrom(r);
    group_.restoreFrom(r);
    r.endSection();

    // Sequence numbers index the ROB ring: refuse an in-flight
    // window or a link that points outside it.
    const auto rob = static_cast<std::int64_t>(robBuf_.size());
    bool inWindow = seqHead_ >= 0 && seqHead_ <= seqTail_ &&
                    seqTail_ - seqHead_ <= rob &&
                    stallBranchSeq_ < seqTail_;
    for (const std::int64_t s : lastWriter_)
        inWindow = inWindow && s < seqTail_;
    for (const InflightStore &s : storeSeqs_)
        inWindow = inWindow && s.seq < seqTail_;
    for (std::int64_t seq = seqHead_; inWindow && seq < seqTail_; ++seq) {
        const RobEntry &e = robBuf_[static_cast<std::size_t>(seq % rob)];
        inWindow = e.prod1 < seq && e.prod2 < seq && e.depStore < seq;
    }
    if (!inWindow)
        throw sim::CheckpointError(
            "ooo_core: sequence numbers outside the ROB window");
    // The wakeup/select state is derived, never serialized.
    rebuildScheduler();
}

// ---------------------------------------------------------------
// policy caches
// ---------------------------------------------------------------

void
PolicyCacheBase::snapshotTo(sim::CheckpointWriter &w) const
{
    w.beginSection("policy_cache");
    Cache::snapshotTo(w);
    w.putU64(instrsIntoInterval_);
    w.putU64(integratedCycles_);
    w.putF64(activeLineCycles_);
    w.putF64(drowsyLineCycles_);
    w.putU64(wakeTransitions_);
    w.putU64(wakeStallCycles_);
    w.putU64(coherenceWakes_);
    w.putU64(coherenceRefetches_);
    putByteVector(w, coherenceLost_);
    snapshotExtra(w);
    w.endSection();
}

void
PolicyCacheBase::restoreFrom(sim::CheckpointReader &r)
{
    r.beginSection("policy_cache");
    Cache::restoreFrom(r);
    instrsIntoInterval_ = r.getU64();
    integratedCycles_ = r.getU64();
    activeLineCycles_ = r.getF64();
    drowsyLineCycles_ = r.getF64();
    wakeTransitions_ = r.getU64();
    wakeStallCycles_ = r.getU64();
    coherenceWakes_ = r.getU64();
    coherenceRefetches_ = r.getU64();
    getByteVector(r, coherenceLost_, "policy coherence-lost bits");
    restoreExtra(r);
    r.endSection();
}

void
DecayCache::snapshotExtra(sim::CheckpointWriter &w) const
{
    w.putU64(counters_.size());
    for (const unsigned c : counters_)
        w.putU64(c);
    putByteVector(w, lit_);
    w.putU64(powered_);
    w.putU64(generations_);
    w.putU64(blocksLost_);
}

void
DecayCache::restoreExtra(sim::CheckpointReader &r)
{
    expectU64(r, counters_.size(), "decay counters");
    for (unsigned &c : counters_)
        c = static_cast<unsigned>(r.getU64());
    getByteVector(r, lit_, "decay lit bits");
    powered_ = r.getU64();
    generations_ = r.getU64();
    blocksLost_ = r.getU64();
}

void
DrowsyCache::snapshotExtra(sim::CheckpointWriter &w) const
{
    putByteVector(w, drowsy_);
    w.putU64(drowsyCount_);
    w.putU64(episodes_);
}

void
DrowsyCache::restoreExtra(sim::CheckpointReader &r)
{
    getByteVector(r, drowsy_, "drowsy bits");
    drowsyCount_ = r.getU64();
    episodes_ = r.getU64();
}

void
DriPolicy::snapshotTo(sim::CheckpointWriter &w) const
{
    icache_.snapshotTo(w);
}

void
DriPolicy::restoreFrom(sim::CheckpointReader &r)
{
    icache_.restoreFrom(r);
}

} // namespace drisim
