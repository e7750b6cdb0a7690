/**
 * @file
 * CMP system tests: the cores=1 degeneration contract (CmpSystem
 * reproduces the single-core runner bit-for-bit), shared-L2
 * attribution and bank contention, the per-level CMP energy
 * accounting invariants, and a TSan-targeted hammer that drives the
 * shared programImageFor() image cache from concurrent searchCmp
 * cells (this file is labelled `concurrency`; see CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <vector>

#include "harness/multilevel.hh"
#include "harness/runner.hh"
#include "obs/metrics.hh"
#include "system/cmp.hh"

namespace drisim
{
namespace
{

/**
 * The memory sides every cores=1 test runs: @p base, and a busy one
 * over it with banked DRAM, L1I/L1D/L2 MSHRs 2/2/4 and a DRI L2
 * sensing every 50 K instructions.
 */
std::vector<HierarchyParams>
memorySides(const HierarchyParams &base)
{
    HierarchyParams busy = base;
    busy.dram.banked = true;
    busy.l1i.mshrs = 2;
    busy.l1d.mshrs = 2;
    busy.l2.mshrs = 4;
    busy.l2Dri = true;
    busy.l2DriParams = HierarchyParams::defaultL2DriParams();
    busy.l2DriParams.senseInterval = 50000;
    return {base, busy};
}

/** Every memory-side field a CMP run and a runner run both carry. */
void
expectSameMemorySide(const CmpRunOutput &out, const RunOutput &single)
{
    EXPECT_EQ(out.l2Accesses, single.l2Accesses);
    EXPECT_EQ(out.l2Misses, single.l2Misses);
    EXPECT_EQ(out.l2MissRate, single.l2MissRate);
    EXPECT_EQ(out.memAccesses, single.memAccesses);
    EXPECT_EQ(out.l2SizeBytes, single.l2SizeBytes);
    EXPECT_EQ(out.l2AvgActiveFraction, single.l2AvgActiveFraction);
    EXPECT_EQ(out.l2ResizingTagBits, single.l2ResizingTagBits);
    EXPECT_EQ(out.l2Resizes, single.l2Resizes);
    EXPECT_EQ(out.mshrCoalesced, single.mshrCoalesced);
    EXPECT_EQ(out.mshrFullStalls, single.mshrFullStalls);
    EXPECT_EQ(out.mshrPeakOccupancy, single.mshrPeakOccupancy);
    EXPECT_EQ(out.dramRowHits, single.dramRowHits);
    EXPECT_EQ(out.dramRowMisses, single.dramRowMisses);
    EXPECT_EQ(out.dramQueueFullEvents, single.dramQueueFullEvents);
    EXPECT_EQ(out.dramBusyCycles, single.dramBusyCycles);
    // On the busy side the compared counters must be live.
    if (single.dramBusyCycles > 0) {
        EXPECT_GT(single.mshrCoalesced, 0u);
        EXPECT_GT(single.dramRowHits, 0u);
        EXPECT_GT(single.l2Resizes, 0u);
    }
}

TEST(CmpSystem, SingleCoreConventionalMatchesRunnerBitForBit)
{
    const BenchmarkInfo &b = findBenchmark("compress");
    RunConfig cfg;
    cfg.maxInstrs = 400 * 1000;
    for (const HierarchyParams &hp : memorySides(cfg.hier)) {
        SCOPED_TRACE(hp.dram.banked ? "busy memory side"
                                    : "default memory side");
        cfg.hier = hp;
        const RunOutput single = runConventional(b, cfg);

        CmpConfig cmp;
        cmp.cores = 1; // default core config: conventional L1I
        const CmpRunOutput out = runCmp(cfg, cmp, "compress");

        ASSERT_EQ(out.cores.size(), 1u);
        const CmpCoreOutput &c = out.cores[0];
        EXPECT_EQ(c.bench, "compress");
        EXPECT_EQ(c.meas.cycles, single.meas.cycles);
        EXPECT_EQ(c.meas.instructions, single.meas.instructions);
        EXPECT_EQ(c.meas.l1iAccesses, single.meas.l1iAccesses);
        EXPECT_EQ(c.meas.l1iMisses, single.meas.l1iMisses);
        EXPECT_EQ(c.ipc, single.ipc);
        EXPECT_EQ(c.l1dMissRate, single.l1dMissRate);
        EXPECT_EQ(out.systemCycles, single.meas.cycles);
        expectSameMemorySide(out, single);
        EXPECT_EQ(out.l2ContentionEvents, 0u);
    }
}

TEST(CmpSystem, SingleCoreDriWithDriL2MatchesRunnerBitForBit)
{
    // The full multi-level wiring: DRI L1I over a resizable L2.
    RunConfig cfg;
    cfg.maxInstrs = 400 * 1000;
    cfg.hier.l2Dri = true;
    DriParams l2p = HierarchyParams::defaultL2DriParams();
    l2p.senseInterval = 50000;
    cfg.hier.l2DriParams = l2p;

    DriParams dri;
    dri.senseInterval = 50000;
    dri.sizeBoundBytes = 4096;
    dri.missBound = 300;
    const BenchmarkInfo &b = findBenchmark("li");
    for (const HierarchyParams &hp : memorySides(cfg.hier)) {
        SCOPED_TRACE(hp.dram.banked ? "busy memory side"
                                    : "default memory side");
        cfg.hier = hp;
        const DriParams resolved =
            driParamsForLevel(cfg.hier.l1i, dri);
        const RunOutput single = runDri(b, cfg, resolved);

        CmpConfig cmp;
        cmp.cores = 1;
        CmpCoreConfig core;
        core.bench = "li";
        core.dri = true;
        core.driParams = dri;
        cmp.coreConfigs.push_back(core);
        const CmpRunOutput out = runCmp(cfg, cmp, "li");

        ASSERT_EQ(out.cores.size(), 1u);
        const CmpCoreOutput &c = out.cores[0];
        EXPECT_EQ(c.meas.cycles, single.meas.cycles);
        EXPECT_EQ(c.meas.instructions, single.meas.instructions);
        EXPECT_EQ(c.meas.l1iAccesses, single.meas.l1iAccesses);
        EXPECT_EQ(c.meas.l1iMisses, single.meas.l1iMisses);
        EXPECT_EQ(c.meas.avgActiveFraction,
                  single.meas.avgActiveFraction);
        EXPECT_EQ(c.meas.resizingTagBits,
                  single.meas.resizingTagBits);
        EXPECT_EQ(c.resizes, single.resizes);
        EXPECT_EQ(c.throttleEvents, single.throttleEvents);
        expectSameMemorySide(out, single);
    }
}

TEST(CmpSystem, SingleCoreDrowsyPolicyMatchesRunnerBitForBit)
{
    // A state-preserving policy L1I: the drowsy fraction and the wake
    // counts must come out of the CMP exactly as runPolicy reports
    // them.
    RunConfig cfg;
    cfg.maxInstrs = 400 * 1000;
    DrowsyParams drowsy;
    drowsy.drowsyInterval = 50 * 1000;
    const BenchmarkInfo &b = findBenchmark("li");
    for (const HierarchyParams &hp : memorySides(cfg.hier)) {
        SCOPED_TRACE(hp.dram.banked ? "busy memory side"
                                    : "default memory side");
        cfg.hier = hp;
        PolicyConfig pc;
        pc.kind = PolicyKind::Drowsy;
        pc.dri = driParamsForLevel(cfg.hier.l1i, DriParams{});
        pc.drowsy = drowsy;
        const RunOutput single = runPolicy(b, cfg, pc);

        CmpConfig cmp;
        cmp.cores = 1;
        CmpCoreConfig core;
        core.bench = "li";
        core.dri = true;
        core.policyKind = PolicyKind::Drowsy;
        core.drowsy = drowsy;
        cmp.coreConfigs.push_back(core);
        const CmpRunOutput out = runCmp(cfg, cmp, "li");

        ASSERT_EQ(out.cores.size(), 1u);
        const CmpCoreOutput &c = out.cores[0];
        EXPECT_EQ(c.meas.cycles, single.meas.cycles);
        EXPECT_EQ(c.meas.instructions, single.meas.instructions);
        EXPECT_EQ(c.meas.l1iAccesses, single.meas.l1iAccesses);
        EXPECT_EQ(c.meas.l1iMisses, single.meas.l1iMisses);
        EXPECT_EQ(c.meas.avgActiveFraction,
                  single.meas.avgActiveFraction);
        EXPECT_EQ(c.meas.resizingTagBits,
                  single.meas.resizingTagBits);
        EXPECT_EQ(c.meas.l1iBytes, single.meas.l1iBytes);
        EXPECT_EQ(c.ipc, single.ipc);
        EXPECT_EQ(c.l1dMissRate, single.l1dMissRate);
        EXPECT_EQ(c.resizes, single.resizes);
        EXPECT_EQ(c.throttleEvents, single.throttleEvents);
        EXPECT_EQ(c.l1DrowsyFraction, single.l1DrowsyFraction);
        EXPECT_EQ(c.wakeTransitions, single.wakeTransitions);
        EXPECT_EQ(c.wakeStallCycles, single.wakeStallCycles);
        EXPECT_GT(c.wakeTransitions, 0u);
        expectSameMemorySide(out, single);
    }
}

TEST(CmpSystem, AttributionSumsAndContentionFiresWithSharers)
{
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    CmpConfig cmp;
    cmp.cores = 2;
    CmpCoreConfig c0, c1;
    c0.bench = "compress";
    c1.bench = "li";
    cmp.coreConfigs = {c0, c1};

    const CmpRunOutput out = runCmp(cfg, cmp, "compress");
    ASSERT_EQ(out.cores.size(), 2u);
    EXPECT_EQ(out.cores[0].bench, "compress");
    EXPECT_EQ(out.cores[1].bench, "li");

    // The bus's per-core attributions partition the L2's own counts:
    // no shared access or miss is lost or counted twice.
    EXPECT_EQ(out.cores[0].l2Accesses + out.cores[1].l2Accesses,
              out.l2Accesses);
    EXPECT_EQ(out.cores[0].l2Misses + out.cores[1].l2Misses,
              out.l2Misses);
    EXPECT_GT(out.cores[0].l2Accesses, 0u);
    EXPECT_GT(out.cores[1].l2Accesses, 0u);

    // Two cores interleaving over the same banks must collide.
    EXPECT_GT(out.l2ContentionEvents, 0u);

    // System time is the slowest core.
    EXPECT_EQ(out.systemCycles,
              std::max(out.cores[0].meas.cycles,
                       out.cores[1].meas.cycles));
    // Both cores ran their full budget.
    EXPECT_EQ(out.cores[0].meas.instructions, cfg.maxInstrs);
    EXPECT_EQ(out.cores[1].meas.instructions, cfg.maxInstrs);
}

TEST(CmpSystem, ContentionPenaltyCostsCycles)
{
    RunConfig cfg;
    cfg.maxInstrs = 150 * 1000;
    CmpConfig cmp;
    cmp.cores = 2;
    CmpCoreConfig c0, c1;
    c0.bench = "compress";
    c1.bench = "mgrid";
    cmp.coreConfigs = {c0, c1};

    CmpConfig free = cmp;
    free.l2ContentionPenalty = 0;
    const CmpRunOutput base = runCmp(cfg, free, "compress");

    CmpConfig costly = cmp;
    costly.l2ContentionPenalty = 50;
    const CmpRunOutput slow = runCmp(cfg, costly, "compress");

    // The round-robin quanta are instruction-based, so the L2
    // access interleaving — and hence the contention count — is
    // identical; only the charged latency differs.
    EXPECT_EQ(base.l2ContentionEvents, slow.l2ContentionEvents);
    EXPECT_GT(base.l2ContentionEvents, 0u);
    EXPECT_GT(slow.systemCycles, base.systemCycles);
}

TEST(CmpSystem, ContentionAdderReachesTheTimedL2UnderBankedDram)
{
    // Regression (bank-contention sweep): the contention adder must
    // be threaded into the shared L2's accessAt() arrival time, not
    // only added to the returned latency — under banked DRAM the
    // timed path is arrival-dependent. A contended system can never
    // be faster than an uncontended one.
    RunConfig cfg;
    cfg.maxInstrs = 100 * 1000;
    cfg.hier.dram.banked = true;
    cfg.hier.l1i.mshrs = 4;
    cfg.hier.l1d.mshrs = 4;
    cfg.hier.l2.mshrs = 8;

    CmpConfig cmp;
    cmp.cores = 2;
    CmpCoreConfig c0, c1;
    c0.bench = "compress";
    c1.bench = "li";
    cmp.coreConfigs = {c0, c1};

    CmpConfig free = cmp;
    free.l2ContentionPenalty = 0;
    const CmpRunOutput base = runCmp(cfg, free, "compress");

    CmpConfig costly = cmp;
    costly.l2ContentionPenalty = 50;
    const CmpRunOutput slow = runCmp(cfg, costly, "compress");

    // Instruction-driven quanta: the reference stream — and the
    // contention count — is identical; only timing moves.
    EXPECT_EQ(base.l2ContentionEvents, slow.l2ContentionEvents);
    EXPECT_GT(base.l2ContentionEvents, 0u);
    EXPECT_EQ(base.l2Accesses, slow.l2Accesses);
    // (Only the end-to-end time is monotone: a later L2 arrival can
    // land MORE DRAM row hits, so the below-the-bus miss-latency
    // component alone may legitimately shrink.)
    EXPECT_GT(slow.systemCycles, base.systemCycles);
}

TEST(CmpCoherence, SharingWorkloadProducesAttributedInvalidations)
{
    RunConfig cfg;
    cfg.maxInstrs = 150 * 1000;
    CmpConfig cmp;
    cmp.cores = 2;
    cmp.coherence.enabled = true;
    CmpCoreConfig c0, c1;
    c0.bench = "shared_image";
    c1.bench = "shared_image";
    cmp.coreConfigs = {c0, c1};

    const CmpRunOutput out = runCmp(cfg, cmp, "shared_image");
    ASSERT_EQ(out.cores.size(), 2u);

    // Both cores hammer one shared window: each must both receive
    // and cause invalidations, and pay message cycles.
    for (const CmpCoreOutput &c : out.cores) {
        EXPECT_GT(c.coherenceInvalidationsReceived, 0u);
        EXPECT_GT(c.coherenceInvalidationsCaused, 0u);
        EXPECT_GT(c.coherenceMsgCycles, 0u);
    }

    // Attribution partitions the totals (both directions: probes
    // received and probes caused are two views of the same sends).
    std::uint64_t recv = 0, caused = 0, down = 0, wb = 0, msg = 0;
    for (const CmpCoreOutput &c : out.cores) {
        recv += c.coherenceInvalidationsReceived;
        caused += c.coherenceInvalidationsCaused;
        down += c.coherenceDowngrades;
        wb += c.coherenceWritebacks;
        msg += c.coherenceMsgCycles;
    }
    EXPECT_EQ(recv, out.coherenceInvalidations);
    EXPECT_EQ(caused, out.coherenceInvalidations);
    EXPECT_EQ(down, out.coherenceDowngrades);
    EXPECT_EQ(wb, out.coherenceWritebacks);
    EXPECT_EQ(msg, out.coherenceMsgCycles);
    EXPECT_GT(out.coherenceWritebacks, 0u);
}

TEST(CmpCoherence, DisabledProtocolReportsNoCoherenceActivity)
{
    // The same sharing mix without the protocol (the default):
    // every coherence counter stays zero — the pre-coherence
    // behaviour the sharing-free goldens pin.
    RunConfig cfg;
    cfg.maxInstrs = 100 * 1000;
    CmpConfig cmp;
    cmp.cores = 2;
    CmpCoreConfig c0, c1;
    c0.bench = "shared_image";
    c1.bench = "shared_image";
    cmp.coreConfigs = {c0, c1};

    const CmpRunOutput out = runCmp(cfg, cmp, "shared_image");
    EXPECT_EQ(out.coherenceInvalidations, 0u);
    EXPECT_EQ(out.coherenceDowngrades, 0u);
    EXPECT_EQ(out.coherenceWritebacks, 0u);
    EXPECT_EQ(out.coherenceMsgCycles, 0u);
    EXPECT_EQ(out.directoryEvictions, 0u);
    for (const CmpCoreOutput &c : out.cores) {
        EXPECT_EQ(c.coherenceInvalidationsReceived, 0u);
        EXPECT_EQ(c.coherenceMsgCycles, 0u);
    }
}

TEST(CmpCoherence, PolicyCoresReportWakesAndRefetches)
{
    // Drowsy and decay L1Is under the producer/consumer pair: the
    // drowsy core's probes charge wakes, both cores refetch frames
    // the directory stole — the leakage/coherence interaction the
    // 2001 paper never modelled.
    RunConfig cfg;
    cfg.maxInstrs = 150 * 1000;
    CmpConfig cmp;
    cmp.cores = 2;
    cmp.coherence.enabled = true;
    CmpCoreConfig c0, c1;
    c0.bench = "producer";
    c0.dri = true;
    c0.policyKind = PolicyKind::Drowsy;
    c1.bench = "consumer";
    c1.dri = true;
    c1.policyKind = PolicyKind::Decay;
    cmp.coreConfigs = {c0, c1};

    const CmpRunOutput out = runCmp(cfg, cmp, "producer");
    ASSERT_EQ(out.cores.size(), 2u);
    EXPECT_GT(out.coherenceInvalidations, 0u);
    EXPECT_GT(out.cores[0].coherenceRefetches, 0u);
    EXPECT_GT(out.cores[1].coherenceRefetches, 0u);
    // Decay never naps lines: wakes can only come from the drowsy
    // core.
    EXPECT_EQ(out.cores[1].coherenceWakes, 0u);

    // Determinism: the identical config replays bit-for-bit.
    const CmpRunOutput again = runCmp(cfg, cmp, "producer");
    EXPECT_EQ(again.systemCycles, out.systemCycles);
    EXPECT_EQ(again.coherenceInvalidations,
              out.coherenceInvalidations);
    EXPECT_EQ(again.coherenceMsgCycles, out.coherenceMsgCycles);
    EXPECT_EQ(again.cores[0].coherenceWakes,
              out.cores[0].coherenceWakes);
}

TEST(CmpAccounting, PerCoreRowsPlusSharedRowsSumToSystemTotal)
{
    CmpMeasurement conv;
    conv.cycles = 1000000;
    conv.cores.resize(2);
    conv.cores[0].l1Accesses = 500000;
    conv.cores[1].l1Accesses = 400000;
    conv.l2Accesses = 20000;
    conv.l2Misses = 2000;
    conv.memAccesses = 2000;

    CmpMeasurement dri = conv;
    dri.cycles = 1010000;
    dri.cores[0].l1AvgActiveFraction = 0.4;
    dri.cores[0].l1ResizingTagBits = 4;
    dri.cores[1].l1AvgActiveFraction = 0.7;
    dri.cores[1].l1ResizingTagBits = 2;
    dri.l2AvgActiveFraction = 0.5;
    dri.l2ResizingTagBits = 4;
    dri.l2Accesses = 25000; // extra traffic charged to the L2 row
    dri.memAccesses = 2600; // extra traffic charged to the mem row

    const CmpComparison cmp =
        compareCmp(MultiLevelConstants::paper(), conv, dri);

    // Row identities: one l1i[k] per core, then shared l2 and mem.
    ASSERT_EQ(cmp.dri.levels.size(), 4u);
    EXPECT_EQ(cmp.dri.levels[0].level, "l1i[0]");
    EXPECT_EQ(cmp.dri.levels[1].level, "l1i[1]");
    EXPECT_EQ(cmp.dri.levels[2].level, "l2");
    EXPECT_EQ(cmp.dri.levels[3].level, "mem");

    // Totals are the row sums by construction — exactly.
    double leak = 0.0, dyn = 0.0;
    for (const LevelEnergy &l : cmp.dri.levels) {
        leak += l.leakageNJ;
        dyn += l.dynamicNJ;
    }
    EXPECT_EQ(leak, cmp.dri.totalLeakageNJ());
    EXPECT_EQ(dyn, cmp.dri.totalDynamicNJ());

    // The conventional baseline pairs against itself: no extra
    // traffic, no resizing overhead, relative ED of exactly 1.
    EXPECT_DOUBLE_EQ(cmp.conventional.level("mem")->dynamicNJ, 0.0);
    const double conv_ed =
        cmp.conventional.energyDelay(conv.cycles);
    EXPECT_GT(conv_ed, 0.0);
    EXPECT_DOUBLE_EQ(
        compareCmp(MultiLevelConstants::paper(), conv, conv)
            .relativeEnergyDelay(),
        1.0);

    // Gating the arrays must have cut the DRI leakage below the
    // conventional leakage despite the longer run.
    EXPECT_LT(cmp.dri.totalLeakageNJ(),
              cmp.conventional.totalLeakageNJ() * 1.02);

    // The slowdown is computed on system time.
    EXPECT_NEAR(cmp.slowdownPercent(), 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(cmp.coreAverageSizeFraction(0), 0.4);
    EXPECT_DOUBLE_EQ(cmp.coreAverageSizeFraction(1), 0.7);
    EXPECT_DOUBLE_EQ(cmp.l2AverageSizeFraction(), 0.5);
}

TEST(CmpSearch, WinnerAndGridShapeAreSane)
{
    RunConfig cfg;
    cfg.maxInstrs = 120 * 1000;
    CmpConfig cmp;
    cmp.cores = 2;
    CmpCoreConfig c0, c1;
    c0.bench = "compress";
    c1.bench = "li";
    cmp.coreConfigs = {c0, c1};

    const CmpRunOutput conv = runCmp(cfg, cmp, "compress");

    CmpSpace space;
    space.l1MissBoundFactors = {32.0};
    space.l2SizeBounds = {64 * 1024, 1024 * 1024};
    DriParams l1Tmpl;
    l1Tmpl.senseInterval = 50000;
    DriParams l2Tmpl = HierarchyParams::defaultL2DriParams();
    l2Tmpl.senseInterval = 50000;

    const CmpSearchResult sr = searchCmp(
        cfg, cmp, "compress", l1Tmpl, l2Tmpl, space,
        MultiLevelConstants::paper(), 4.0, conv);

    // |factors|^2 x |l2 bounds| = 1 x 2 cells, grid order.
    ASSERT_EQ(sr.evaluated.size(), 2u);
    EXPECT_EQ(sr.evaluated[0].l2.sizeBoundBytes, 64u * 1024);
    EXPECT_EQ(sr.evaluated[1].l2.sizeBoundBytes, 1024u * 1024);
    for (const CmpCandidate &cand : sr.evaluated) {
        ASSERT_EQ(cand.l1.size(), 2u);
        EXPECT_GE(cand.l1[0].missBound, space.missBoundFloor);
        // Per-level rows: l1i[0], l1i[1], l2, mem.
        ASSERT_EQ(cand.cmp.dri.levels.size(), 4u);
    }
    ASSERT_EQ(sr.best.l1.size(), 2u);
    EXPECT_GT(sr.best.cmp.relativeEnergyDelay(), 0.0);

    // The rendered row carries one miss-bound and one size per core.
    const std::vector<std::string> row =
        cmpRowCells("compress+li", sr.best);
    ASSERT_EQ(row.size(), 8u);
    EXPECT_EQ(row[0], "compress+li");
    EXPECT_NE(row[1].find('/'), std::string::npos);
    EXPECT_NE(row[5].find('/'), std::string::npos);
}

TEST(CmpSearch, WideCmpDegradesToSharedFactorSweep)
{
    // 2^12 per-core factor combinations blow the 1024-cell cap, so
    // the sweep must fall back to one shared factor index (cells =
    // |factors| x |l2 bounds|) instead of exploding or overflowing.
    RunConfig cfg;
    cfg.maxInstrs = 15 * 1000;
    CmpConfig cmp;
    cmp.cores = 12;
    const CmpRunOutput conv = runCmp(cfg, cmp, "compress");

    CmpSpace space;
    space.l1MissBoundFactors = {2.0, 32.0};
    space.l2SizeBounds = {64 * 1024};
    DriParams l1Tmpl;
    l1Tmpl.senseInterval = 5000;
    DriParams l2Tmpl = HierarchyParams::defaultL2DriParams();
    l2Tmpl.senseInterval = 5000;

    const CmpSearchResult sr = searchCmp(
        cfg, cmp, "compress", l1Tmpl, l2Tmpl, space,
        MultiLevelConstants::paper(), -1.0, conv);

    ASSERT_EQ(sr.evaluated.size(), 2u);
    for (std::size_t i = 0; i < sr.evaluated.size(); ++i) {
        const CmpCandidate &cand = sr.evaluated[i];
        ASSERT_EQ(cand.l1.size(), 12u);
        // Shared index: every core uses the same factor per cell.
        for (const DriParams &p : cand.l1)
            EXPECT_EQ(p.missBound, cand.l1[0].missBound);
        // Per-level rows: 12 l1i[k] + l2 + mem.
        EXPECT_EQ(cand.cmp.dri.levels.size(), 14u);
    }
    // The two cells differ (factor 2 vs factor 32).
    EXPECT_NE(sr.evaluated[0].l1[0].missBound,
              sr.evaluated[1].l1[0].missBound);
}

/**
 * The image-cache hammer: three cores running three benchmarks no
 * other test in this binary touches, searched with a 4-worker pool
 * and a hand-built baseline so the *cells* are the first users of
 * the shared programImageFor() cache — several workers race through
 * the cold-build path and then hit the shared-lock read path on
 * every subsequent cell. Run under TSan via the `concurrency`
 * label.
 */
TEST(CmpSearchConcurrency, ImageCacheHammeredFromConcurrentCells)
{
    RunConfig cfg;
    cfg.maxInstrs = 30 * 1000;
    cfg.jobs = 4;
    CmpConfig cmp;
    cmp.cores = 3;
    CmpCoreConfig c0, c1, c2;
    c0.bench = "gcc";
    c1.bench = "hydro2d";
    c2.bench = "su2cor";
    cmp.coreConfigs = {c0, c1, c2};

    // Plausible hand-built baseline (the real one would warm the
    // image cache serially and defeat the point of the test).
    CmpRunOutput conv;
    conv.cores.resize(3);
    for (CmpCoreOutput &c : conv.cores) {
        c.meas.instructions = cfg.maxInstrs;
        c.meas.cycles = cfg.maxInstrs;
        c.meas.l1iAccesses = cfg.maxInstrs / 4;
        c.meas.l1iMisses = 200;
        c.l2Accesses = 500;
        c.l2Misses = 100;
    }
    conv.systemCycles = cfg.maxInstrs;
    conv.l2Accesses = 1500;
    conv.l2Misses = 300;
    conv.memAccesses = 300;
    conv.l2SizeBytes = 1024 * 1024;

    CmpSpace space;
    space.l1MissBoundFactors = {2.0, 32.0};
    space.l2SizeBounds = {64 * 1024};
    DriParams l1Tmpl;
    l1Tmpl.senseInterval = 10000;
    DriParams l2Tmpl = HierarchyParams::defaultL2DriParams();
    l2Tmpl.senseInterval = 10000;

    const CmpSearchResult sr = searchCmp(
        cfg, cmp, "gcc", l1Tmpl, l2Tmpl, space,
        MultiLevelConstants::paper(), -1.0, conv);

    // 2^3 factor combinations x 1 bound.
    ASSERT_EQ(sr.evaluated.size(), 8u);
    for (const CmpCandidate &cand : sr.evaluated)
        EXPECT_EQ(cand.cmp.driRun.cores.size(), 3u);
}

// --- pinned 3-core run ------------------------------------------------

/**
 * The run tests/data/cmp_v1 pins: three cores of shared_image at
 * 200 K instructions each, one conventional, one DRI and one drowsy
 * L1I, with coherence, banked DRAM, L1 MSHRs and a DRI L2.
 */
void
pinnedCmpRun(RunConfig &cfg, CmpConfig &cmp)
{
    cfg.maxInstrs = 200 * 1000;
    cfg.hier.l1i.mshrs = 2;
    cfg.hier.l1d.mshrs = 2;
    cfg.hier.dram.banked = true;
    cfg.hier.l2Dri = true;
    cfg.hier.l2DriParams.senseInterval = 50 * 1000;

    cmp.cores = 3;
    cmp.coherence.enabled = true;
    CmpCoreConfig dri;
    dri.dri = true;
    dri.driParams.senseInterval = 20 * 1000;
    dri.driParams.sizeBoundBytes = 2048;
    dri.driParams.missBound = 512;
    CmpCoreConfig drowsy;
    drowsy.dri = true;
    drowsy.policyKind = PolicyKind::Drowsy;
    drowsy.drowsy.drowsyInterval = 20 * 1000;
    cmp.coreConfigs = {CmpCoreConfig{}, dri, drowsy};
}

/** Every CmpRunOutput and CmpCoreOutput field as `name=value` lines;
 *  integers in decimal, doubles with %.17g. */
std::string
cmpOutputText(const CmpRunOutput &o)
{
    std::string text;
    const auto put = [&text](const std::string &name, const auto &v) {
        text += name + "=";
        if constexpr (std::is_floating_point_v<
                          std::decay_t<decltype(v)>>) {
            char buf[40];
            std::snprintf(buf, sizeof buf, "%.17g", v);
            text += buf;
        } else {
            text += std::to_string(v);
        }
        text += "\n";
    };
    for (std::size_t k = 0; k < o.cores.size(); ++k) {
        const CmpCoreOutput &c = o.cores[k];
        const std::string p = "core" + std::to_string(k) + ".";
        text += p + "bench=" + c.bench + "\n";
        put(p + "cycles", c.meas.cycles);
        put(p + "instructions", c.meas.instructions);
        put(p + "l1i_accesses", c.meas.l1iAccesses);
        put(p + "l1i_misses", c.meas.l1iMisses);
        put(p + "l1i_active_fraction", c.meas.avgActiveFraction);
        put(p + "l1i_tag_bits", c.meas.resizingTagBits);
        put(p + "l1i_bytes", c.meas.l1iBytes);
        put(p + "ipc", c.ipc);
        put(p + "l1d_miss_rate", c.l1dMissRate);
        put(p + "resizes", c.resizes);
        put(p + "throttle_events", c.throttleEvents);
        put(p + "l2_accesses", c.l2Accesses);
        put(p + "l2_misses", c.l2Misses);
        put(p + "l2_contention_events", c.l2ContentionEvents);
        put(p + "l2_miss_latency_cycles", c.l2MissLatencyCycles);
        put(p + "l1_drowsy_fraction", c.l1DrowsyFraction);
        put(p + "l1_gated_fraction", c.l1GatedFraction);
        put(p + "wake_transitions", c.wakeTransitions);
        put(p + "wake_stall_cycles", c.wakeStallCycles);
        put(p + "coh_invalidations_received",
            c.coherenceInvalidationsReceived);
        put(p + "coh_invalidations_caused",
            c.coherenceInvalidationsCaused);
        put(p + "coh_downgrades", c.coherenceDowngrades);
        put(p + "coh_writebacks", c.coherenceWritebacks);
        put(p + "coh_msg_cycles", c.coherenceMsgCycles);
        put(p + "coh_wakes", c.coherenceWakes);
        put(p + "coh_refetches", c.coherenceRefetches);
    }
    put("system_cycles", o.systemCycles);
    put("l2_accesses", o.l2Accesses);
    put("l2_misses", o.l2Misses);
    put("l2_miss_rate", o.l2MissRate);
    put("l2_contention_events", o.l2ContentionEvents);
    put("mem_accesses", o.memAccesses);
    put("l2_size_bytes", o.l2SizeBytes);
    put("l2_active_fraction", o.l2AvgActiveFraction);
    put("l2_tag_bits", o.l2ResizingTagBits);
    put("l2_resizes", o.l2Resizes);
    put("l2_miss_latency_cycles", o.l2MissLatencyCycles);
    put("mshr_coalesced", o.mshrCoalesced);
    put("mshr_full_stalls", o.mshrFullStalls);
    put("mshr_peak_occupancy", o.mshrPeakOccupancy);
    put("dram_row_hits", o.dramRowHits);
    put("dram_row_misses", o.dramRowMisses);
    put("dram_queue_full", o.dramQueueFullEvents);
    put("dram_busy_cycles", o.dramBusyCycles);
    for (std::size_t b = 0; b < o.dramBankRowHits.size(); ++b)
        put("dram_bank" + std::to_string(b) + "_row_hits",
            o.dramBankRowHits[b]);
    put("coh_invalidations", o.coherenceInvalidations);
    put("coh_downgrades", o.coherenceDowngrades);
    put("coh_writebacks", o.coherenceWritebacks);
    put("coh_msg_cycles", o.coherenceMsgCycles);
    put("directory_evictions", o.directoryEvictions);
    return text;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

TEST(CmpPinned, ThreeCoreRunMatchesFixture)
{
    RunConfig cfg;
    CmpConfig cmp;
    pinnedCmpRun(cfg, cmp);

    const char *tmp = std::getenv("TMPDIR");
    obs::initMetrics(std::string(tmp ? tmp : "/tmp") +
                         "/cmp_pinned.metrics.csv",
                     20 * 1000);
    const CmpRunOutput out = runCmp(cfg, cmp, "shared_image");
    const std::string csv = obs::metrics()->renderCsv();
    obs::resetMetrics();
    const std::string fields = cmpOutputText(out);

    // Regeneration: point this at an existing directory to write the
    // fixture with the build under test instead of checking it.
    if (const char *dir = std::getenv("DRISIM_WRITE_CMP_FIXTURE")) {
        std::ofstream(std::filesystem::path(dir) / "metrics.csv",
                      std::ios::binary)
            << csv;
        std::ofstream(std::filesystem::path(dir) / "output.txt",
                      std::ios::binary)
            << fields;
        GTEST_SKIP() << "wrote " << dir;
    }

    const std::filesystem::path fixture =
        std::filesystem::path(DRISIM_TEST_DATA_DIR) / "cmp_v1";
    EXPECT_EQ(csv, readFile(fixture / "metrics.csv"));
    const std::vector<std::string> want =
        splitLines(readFile(fixture / "output.txt"));
    const std::vector<std::string> got = splitLines(fields);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]);
    // The pinned run exercises what it claims to: each flavour's
    // activity and the protocol both show up.
    EXPECT_GT(out.cores[1].resizes, 0u);
    EXPECT_GT(out.cores[2].wakeTransitions, 0u);
    EXPECT_GT(out.coherenceInvalidations, 0u);
    EXPECT_GT(out.mshrCoalesced, 0u);
}

} // namespace
} // namespace drisim
