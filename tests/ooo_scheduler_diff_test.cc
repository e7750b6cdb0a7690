/**
 * @file
 * Differential test of the wakeup/select issue stage.
 *
 * OooCore issues from dependency lists, a ready bitset and a timing
 * wheel; ScanOooCore (scan_ooo_core.hh) is the same core issuing by
 * rescanning the whole ROB every cycle. Both run the same programs
 * over identical memory systems, each behind recording levels on
 * its L1I and L1D, and must agree on every (cycle, address, type)
 * access, on CoreStats and on every value in the stat tree: the 15
 * paper programs x {conventional, DRI L1I} x {blocking memory,
 * banked DRAM + MSHRs}, plus a 2-core coherent CMP mix.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/dri_icache.hh"
#include "cpu/ooo_core.hh"
#include "harness/runner.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "scan_ooo_core.hh"
#include "system/cmp.hh"
#include "workload/generator.hh"
#include "workload/spec_suite.hh"

namespace drisim
{
namespace
{

/** Short runs keep the 120 paired single-core runs near a second. */
constexpr InstCount kInstrs = 30 * 1000;

/** One access as the core issued it. */
using Access = std::tuple<Cycles, Addr, AccessType>;

/** Forwards to @p inner, logging every timed access. */
class RecordingLevel : public MemoryLevel
{
  public:
    explicit RecordingLevel(MemoryLevel *inner) : inner_(inner) {}

    AccessResult access(Addr addr, AccessType type) override
    {
        log.emplace_back(~Cycles{0}, addr, type);
        return inner_->access(addr, type);
    }

    AccessResult accessAt(Addr addr, AccessType type,
                          Cycles now) override
    {
        log.emplace_back(now, addr, type);
        return inner_->accessAt(addr, type, now);
    }

    std::vector<Access> log;

  private:
    MemoryLevel *inner_;
};

/** Everything a run is compared on. */
struct Trace
{
    std::vector<Access> l1i;
    std::vector<Access> l1d;
    CoreStats stats;
    std::string statTree;
};

/** Gather a finished run's logs, stats and stat tree. */
Trace
collect(const CoreStats &stats, RecordingLevel &recI,
        RecordingLevel &recD, const stats::StatGroup &root)
{
    Trace t;
    t.stats = stats;
    t.l1i = std::move(recI.log);
    t.l1d = std::move(recD.log);
    std::ostringstream os;
    root.dump(os);
    t.statTree = os.str();
    return t;
}

void
expectSameTrace(const Trace &ref, const Trace &got)
{
    EXPECT_EQ(ref.stats.cycles, got.stats.cycles);
    EXPECT_EQ(ref.stats.instructions, got.stats.instructions);
    EXPECT_EQ(ref.l1i.size(), got.l1i.size());
    EXPECT_EQ(ref.l1d.size(), got.l1d.size());
    EXPECT_TRUE(ref.l1i == got.l1i) << "L1I access sequences differ";
    EXPECT_TRUE(ref.l1d == got.l1d) << "L1D access sequences differ";
    EXPECT_EQ(ref.statTree, got.statTree);
}

HierarchyParams
hierParams(bool banked)
{
    HierarchyParams h;
    if (banked) {
        h.dram.banked = true;
        h.l1i.mshrs = 4;
        h.l1d.mshrs = 4;
        h.l2.mshrs = 8;
    }
    return h;
}

/** Resizes several times within kInstrs. */
DriParams
smallDri()
{
    DriParams d;
    d.senseInterval = 2 * 1000;
    d.sizeBoundBytes = 1024;
    d.missBound = 20;
    return d;
}

/** One single-core run of @p bench on core type CoreT. */
template <typename CoreT>
Trace
runSingle(const BenchmarkInfo &bench, bool dri, bool banked)
{
    stats::StatGroup root("sim");
    const HierarchyParams hp = hierParams(banked);
    Hierarchy hier(hp, &root, !dri);
    std::unique_ptr<DriICache> icache;
    MemoryLevel *l1i = hier.l1i();
    if (dri) {
        icache = std::make_unique<DriICache>(
            driParamsForLevel(hp.l1i, smallDri()), hier.l2Level(),
            &root);
        hier.setL1I(icache.get());
        l1i = icache.get();
    }
    RecordingLevel recI(l1i);
    RecordingLevel recD(&hier.l1d());
    CoreT core(OooParams{}, &recI, &recD, &root);
    core.addResizable(icache.get());

    TraceGenerator gen(programImageFor(bench));
    const CoreStats cs = core.run(gen, kInstrs);
    return collect(cs, recI, recD, root);
}

/** The paper's 15 programs (benchmark classes 1-3). */
std::vector<BenchmarkInfo>
paperPrograms()
{
    std::vector<BenchmarkInfo> v;
    for (const BenchmarkInfo &b : specSuite())
        if (b.benchClass <= 3)
            v.push_back(b);
    return v;
}

TEST(OooSchedulerDiff, SuiteHasFifteenPaperPrograms)
{
    EXPECT_EQ(paperPrograms().size(), 15u);
}

void
diffSuite(bool dri, bool banked)
{
    for (const BenchmarkInfo &b : paperPrograms()) {
        SCOPED_TRACE(b.name);
        const Trace ref = runSingle<ScanOooCore>(b, dri, banked);
        const Trace got = runSingle<OooCore>(b, dri, banked);
        EXPECT_EQ(ref.stats.instructions, kInstrs);
        expectSameTrace(ref, got);
    }
}

TEST(OooSchedulerDiff, ConventionalBlockingMatchesScan)
{
    diffSuite(false, false);
}

TEST(OooSchedulerDiff, DriBlockingMatchesScan)
{
    diffSuite(true, false);
}

TEST(OooSchedulerDiff, ConventionalBankedMshrMatchesScan)
{
    diffSuite(false, true);
}

TEST(OooSchedulerDiff, DriBankedMshrMatchesScan)
{
    diffSuite(true, true);
}

/**
 * A data level whose latencies run past the scheduler's timing
 * wheel: every fourth block takes 1500 or 3000 cycles, the rest one.
 */
class FarLevel : public MemoryLevel
{
  public:
    AccessResult access(Addr addr, AccessType) override
    {
        const Addr block = addr >> 5;
        AccessResult r;
        r.latency = block % 4 != 0 ? 1 : (block % 8 == 0 ? 3000 : 1500);
        r.hit = r.latency == 1;
        return r;
    }
};

template <typename CoreT>
Trace
runFar(const BenchmarkInfo &bench)
{
    stats::StatGroup root("sim");
    Hierarchy hier(HierarchyParams{}, &root, true);
    FarLevel far;
    RecordingLevel recI(hier.l1i());
    RecordingLevel recD(&far);
    CoreT core(OooParams{}, &recI, &recD, &root);
    TraceGenerator gen(programImageFor(bench));
    const CoreStats cs = core.run(gen, kInstrs / 4);
    return collect(cs, recI, recD, root);
}

TEST(OooSchedulerDiff, EventsBeyondTheWheelMatchScan)
{
    for (const char *name : {"compress", "swim"}) {
        SCOPED_TRACE(name);
        const BenchmarkInfo &b = findBenchmark(name);
        const Trace ref = runFar<ScanOooCore>(b);
        const Trace got = runFar<OooCore>(b);
        EXPECT_EQ(ref.stats.instructions, kInstrs / 4);
        EXPECT_GT(ref.stats.cycles, 3000u);
        expectSameTrace(ref, got);
    }
}

/**
 * Two cores with private, coherent L1s round-robin over a shared
 * L2 (the CmpSystem wiring, built here so either core type can be
 * plugged in).
 */
template <typename CoreT>
std::vector<Trace>
runCoherentPair(std::uint64_t *invalidations)
{
    constexpr unsigned kCores = 2;
    constexpr InstCount kQuantum = 2 * 1000;
    const HierarchyParams hp;
    CoherenceConfig coh;
    coh.enabled = true;

    stats::StatGroup root("sim");
    MainMemory mem(hp.l2.blockBytes, &root);
    Cache l2(hp.l2, &mem, &root);
    SharedL2Bus bus(&l2, hp.l2.blockBytes, 8, 4, kCores);
    bus.enableCoherence(coh, kCores);

    const char *programs[kCores] = {"producer", "consumer"};
    std::vector<std::unique_ptr<stats::StatGroup>> groups;
    std::vector<std::unique_ptr<SharedL2Port>> ports;
    std::vector<std::unique_ptr<Cache>> l1is, l1ds;
    std::vector<std::unique_ptr<RecordingLevel>> recIs, recDs;
    std::vector<std::unique_ptr<CoreT>> cores;
    std::vector<std::unique_ptr<TraceGenerator>> gens;
    for (unsigned k = 0; k < kCores; ++k) {
        groups.push_back(std::make_unique<stats::StatGroup>(
            &root, "cpu" + std::to_string(k)));
        ports.push_back(std::make_unique<SharedL2Port>(&bus, k));
        l1ds.push_back(std::make_unique<Cache>(
            hp.l1d, ports.back().get(), groups.back().get()));
        l1is.push_back(std::make_unique<Cache>(
            hp.l1i, ports.back().get(), groups.back().get()));
        for (Cache *c : {l1ds.back().get(), l1is.back().get()}) {
            c->setCoherence(&bus, k);
            bus.coherence()->addClient(k, c);
        }
        recIs.push_back(
            std::make_unique<RecordingLevel>(l1is.back().get()));
        recDs.push_back(
            std::make_unique<RecordingLevel>(l1ds.back().get()));
        cores.push_back(std::make_unique<CoreT>(
            OooParams{}, recIs.back().get(), recDs.back().get(),
            groups.back().get()));
        gens.push_back(std::make_unique<TraceGenerator>(
            programImageFor(findBenchmark(programs[k]))));
    }

    std::vector<InstCount> remaining(kCores, kInstrs);
    bool pending = true;
    while (pending) {
        pending = false;
        for (unsigned k = 0; k < kCores; ++k) {
            if (remaining[k] == 0 || cores[k]->drained())
                continue;
            const InstCount before = cores[k]->stats().instructions;
            cores[k]->run(*gens[k], std::min(kQuantum, remaining[k]));
            remaining[k] -= cores[k]->stats().instructions - before;
            pending = pending || remaining[k] > 0;
        }
    }

    // Each core's trace carries the whole system's stat tree.
    *invalidations = 0;
    std::vector<Trace> out;
    for (unsigned k = 0; k < kCores; ++k) {
        *invalidations +=
            bus.coherence()->coreStats(k).invalidationsReceived;
        out.push_back(
            collect(cores[k]->stats(), *recIs[k], *recDs[k], root));
    }
    return out;
}

TEST(OooSchedulerDiff, CoherentCmpMixMatchesScan)
{
    std::uint64_t refInval = 0, gotInval = 0;
    const std::vector<Trace> ref =
        runCoherentPair<ScanOooCore>(&refInval);
    const std::vector<Trace> got = runCoherentPair<OooCore>(&gotInval);
    // The mix must actually share: probes reach the other core.
    EXPECT_GT(refInval, 0u);
    EXPECT_EQ(refInval, gotInval);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t k = 0; k < ref.size(); ++k) {
        SCOPED_TRACE("core " + std::to_string(k));
        EXPECT_EQ(ref[k].stats.instructions, kInstrs);
        expectSameTrace(ref[k], got[k]);
    }
}

} // namespace
} // namespace drisim
