/**
 * @file
 * Recorded instruction streams and recording memory levels: the
 * benchmark's tools for replaying one layer in isolation and for
 * checking the simulator against a reference model written here.
 */

#ifndef PERFBENCH_STREAMS_HH
#define PERFBENCH_STREAMS_HH

#include <cstdint>
#include <list>
#include <vector>

#include "bench.hh"
#include "cpu/isa.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"

namespace perfbench
{

/** An in-memory InstrStream over a recorded vector. */
class VectorStream : public InstrStream
{
  public:
    explicit VectorStream(const std::vector<Instr> &instrs)
        : instrs_(instrs)
    {
    }
    bool next(Instr &out) override
    {
        if (pos_ >= instrs_.size())
            return false;
        out = instrs_[pos_++];
        return true;
    }

  private:
    const std::vector<Instr> &instrs_;
    std::size_t pos_ = 0;
};

/**
 * A set-associative true-LRU cache written from the textbook
 * definition: a hit moves the block to the most-recent position, a
 * miss inserts it there and drops the least-recent block of a full
 * set. Tracks only presence.
 */
class ReferenceLru
{
  public:
    explicit ReferenceLru(const CacheParams &p);
    /** Touch @p addr; true on a hit. */
    bool access(Addr addr);
    void clear();

  private:
    unsigned blockBytes_;
    unsigned assoc_;
    std::vector<std::list<Addr>> sets_;
};

/** One captured memory reference. */
struct MemRef
{
    Addr addr = 0;
    AccessType type = AccessType::Load;
    Cycles now = 0;
};

/**
 * A MemoryLevel in front of another: forwards every access
 * unchanged, optionally logs it and optionally runs it through a
 * ReferenceLru, counting hits the two disagree on.
 */
class RecordingLevel : public MemoryLevel
{
  public:
    RecordingLevel(MemoryLevel *inner, ReferenceLru *ref,
                   std::vector<MemRef> *log)
        : inner_(inner), ref_(ref), log_(log)
    {
    }

    AccessResult access(Addr addr, AccessType type) override
    {
        const AccessResult r = inner_->access(addr, type);
        note(addr, type, 0, r);
        return r;
    }
    AccessResult accessAt(Addr addr, AccessType type,
                          Cycles now) override
    {
        const AccessResult r = inner_->accessAt(addr, type, now);
        note(addr, type, now, r);
        return r;
    }
    void invalidateAll() override
    {
        inner_->invalidateAll();
        if (ref_)
            ref_->clear();
    }
    double activeFraction() const override
    {
        return inner_->activeFraction();
    }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t mismatches() const { return mismatches_; }

  private:
    void note(Addr addr, AccessType type, Cycles now,
              const AccessResult &r)
    {
        ++accesses_;
        if (log_)
            log_->push_back({addr, type, now});
        if (ref_ && ref_->access(addr) != r.hit)
            ++mismatches_;
    }

    MemoryLevel *inner_;
    ReferenceLru *ref_;
    std::vector<MemRef> *log_;
    std::uint64_t accesses_ = 0;
    std::uint64_t mismatches_ = 0;
};

/** Everything one program's stream pass produced. */
struct StreamCapture
{
    std::vector<Instr> instrs;
    double genSeconds = 0.0;

    /** Captured L1I and L1D references of the live detailed run. */
    std::vector<MemRef> iRefs;
    std::vector<MemRef> dRefs;

    CoreStats oooLive;
    CoreStats oooRecorded;
    double oooRecordedSeconds = 0.0;
    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1iMisses = 0;

    CoreStats simpleLive;
    CoreStats simpleRecorded;
    double simpleRecordedSeconds = 0.0;

    /** Reference-LRU checks (detailed L1I, fast L1I). */
    std::uint64_t refAccesses = 0;
    std::uint64_t refMismatches = 0;
    std::uint64_t fastRefAccesses = 0;
    std::uint64_t fastRefMismatches = 0;
};

/**
 * Record @p bench's stream, run the detailed and the fast core live
 * (behind recording levels with reference models) and on the
 * recorded stream. @p keepRefs keeps the captured L1I/L1D
 * references.
 */
StreamCapture captureStreams(const BenchmarkInfo &bench,
                             const RunConfig &config,
                             const StreamRefs &refs, bool keepRefs);

/**
 * Stream checks over a capture: a reference LRU model behind a
 * recording MemoryLevel agrees hit for hit with the conventional L1I
 * (detailed and fast), the recorded-stream core runs equal the
 * live-generator runs, and both equal the harness's own runs where
 * @p refs has them.
 */
void checkCapture(Checker &c, const StreamCapture &cap,
                  const RunConfig &config, const StreamRefs &refs);

} // namespace perfbench

#endif // PERFBENCH_STREAMS_HH
