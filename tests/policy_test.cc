/**
 * @file
 * Leakage-policy subsystem tests: per-policy edge cases (decay
 * counter saturation/reset, drowsy single-charge wake stalls,
 * static-ways way-0 protection), the Dri adapter's bit-for-bit
 * equivalence with the direct DRI path, the policy energy
 * accounting (including its exact reduction to the paper's
 * Section 5.2 model when the gated residual is zeroed), and the
 * per-core policy CMP wiring.
 */

#include <gtest/gtest.h>

#include "circuit/drowsy_cell.hh"
#include "energy/accounting.hh"
#include "harness/multilevel.hh"
#include "harness/policies.hh"
#include "harness/runner.hh"
#include "policy/decay_policy.hh"
#include "policy/dri_policy.hh"
#include "policy/drowsy_policy.hh"
#include "policy/static_ways.hh"
#include "system/cmp.hh"
#include "system/l1i.hh"

namespace drisim
{
namespace
{

/** A tiny direct-mapped geometry: 32 sets x 32 B lines. */
PolicyConfig
tinyConfig(PolicyKind kind)
{
    PolicyConfig c;
    c.kind = kind;
    c.dri.sizeBytes = 1024;
    c.dri.assoc = 1;
    c.dri.blockBytes = 32;
    c.dri.sizeBoundBytes = 1024;
    return c;
}

Addr
setAddr(std::uint64_t set, std::uint64_t tag = 0)
{
    return (tag * 32 + set) * 32; // 32 sets of 32-byte blocks
}

// ---------------------------------------------------------------
// Decay
// ---------------------------------------------------------------

TEST(DecayPolicy, CounterSaturatesAndGatesDeadLines)
{
    stats::StatGroup root("t");
    PolicyConfig cfg = tinyConfig(PolicyKind::Decay);
    cfg.decay.decayInterval = 1000;
    cfg.decay.counterLimit = 3;
    DecayCache cache(cfg, nullptr, &root);

    cache.access(setAddr(0), AccessType::InstFetch); // fill set 0
    EXPECT_TRUE(cache.linePowered(0, 0));
    EXPECT_EQ(cache.lineCounter(0, 0), 0u);

    // Two generations: the counter climbs but the line survives.
    cache.onRetire(2000);
    EXPECT_EQ(cache.generations(), 2u);
    EXPECT_EQ(cache.lineCounter(0, 0), 2u);
    EXPECT_TRUE(cache.access(setAddr(0), AccessType::InstFetch).hit);

    // The third generation saturates untouched lines and gates
    // them, destroying the one valid block.
    cache.onRetire(1000); // line 0 counter back at 1 (touch reset)
    EXPECT_EQ(cache.lineCounter(0, 0), 1u);
    cache.onRetire(2000);
    EXPECT_FALSE(cache.linePowered(0, 0));
    EXPECT_EQ(cache.decayGatedBlocks(), 1u);
    // Every other (invalid) frame is gated too, without loss.
    EXPECT_EQ(cache.poweredLineCount(), 0u);

    // The re-fetch misses (state was destroyed) and re-powers the
    // frame — a wake transition hidden under the fill.
    EXPECT_FALSE(
        cache.access(setAddr(0), AccessType::InstFetch).hit);
    EXPECT_TRUE(cache.linePowered(0, 0));
    EXPECT_EQ(cache.poweredLineCount(), 1u);
    EXPECT_EQ(cache.activity().wakeTransitions, 1u);
}

TEST(DecayPolicy, TouchResetKeepsHotLinesAlive)
{
    stats::StatGroup root("t");
    PolicyConfig cfg = tinyConfig(PolicyKind::Decay);
    cfg.decay.decayInterval = 1000;
    cfg.decay.counterLimit = 2;
    DecayCache cache(cfg, nullptr, &root);

    cache.access(setAddr(3), AccessType::InstFetch);
    // Touch every generation: the line must never decay.
    for (int g = 0; g < 10; ++g) {
        cache.onRetire(1000);
        EXPECT_TRUE(
            cache.access(setAddr(3), AccessType::InstFetch).hit)
            << "generation " << g;
    }
    EXPECT_EQ(cache.decayGatedBlocks(), 0u);
    EXPECT_TRUE(cache.linePowered(3, 0));
}

TEST(DecayPolicy, ActiveFractionIntegratesGatedTime)
{
    stats::StatGroup root("t");
    PolicyConfig cfg = tinyConfig(PolicyKind::Decay);
    cfg.decay.decayInterval = 1000;
    cfg.decay.counterLimit = 1;
    DecayCache cache(cfg, nullptr, &root);

    cache.onCycles(100); // fully powered
    cache.onRetire(1000); // everything decays at limit 1
    EXPECT_EQ(cache.poweredLineCount(), 0u);
    cache.onCycles(100); // fully gated
    const PolicyActivity a = cache.activity();
    EXPECT_DOUBLE_EQ(a.avgActiveFraction, 0.5);
    EXPECT_DOUBLE_EQ(a.avgDrowsyFraction, 0.0);
}

// ---------------------------------------------------------------
// Drowsy
// ---------------------------------------------------------------

TEST(DrowsyPolicy, WakeStallChargedExactlyOncePerWake)
{
    stats::StatGroup root("t");
    PolicyConfig cfg = tinyConfig(PolicyKind::Drowsy);
    cfg.drowsy.drowsyInterval = 1000;
    cfg.drowsy.wakeLatency = 2;
    DrowsyCache cache(cfg, nullptr, &root);

    cache.access(setAddr(0), AccessType::InstFetch); // fill, awake
    EXPECT_EQ(cache.access(setAddr(0), AccessType::InstFetch)
                  .latency,
              1u); // plain hit

    cache.onRetire(1000); // episode: the whole array goes drowsy
    EXPECT_EQ(cache.episodes(), 1u);
    EXPECT_EQ(cache.drowsyLineCount(), cache.totalLines());
    EXPECT_TRUE(cache.lineDrowsy(0, 0));

    // First touch pays the wake stall...
    AccessResult r = cache.access(setAddr(0), AccessType::InstFetch);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, 3u); // hit 1 + wake 2
    EXPECT_EQ(cache.activity().wakeStallCycles, 2u);
    EXPECT_EQ(cache.activity().wakeTransitions, 1u);

    // ...and exactly once: the line stays awake.
    r = cache.access(setAddr(0), AccessType::InstFetch);
    EXPECT_EQ(r.latency, 1u);
    EXPECT_EQ(cache.activity().wakeStallCycles, 2u);
    EXPECT_EQ(cache.activity().wakeTransitions, 1u);

    // A fill into a drowsy frame wakes it under the fill's own
    // latency: a transition, but no extra stall.
    EXPECT_FALSE(
        cache.access(setAddr(5), AccessType::InstFetch).hit);
    EXPECT_FALSE(cache.lineDrowsy(5, 0));
    EXPECT_EQ(cache.activity().wakeTransitions, 2u);
    EXPECT_EQ(cache.activity().wakeStallCycles, 2u);
}

TEST(DrowsyPolicy, CoalescedMissCountsInTheMshrTotals)
{
    // A policy L1I's MSHRs count in the run totals of both systems,
    // like a conventional or DRI L1I's.
    stats::StatGroup root("t");
    MainMemory mem(32, &root);
    PolicyConfig cfg = tinyConfig(PolicyKind::Drowsy);
    cfg.dri.mshrs = 2;
    const std::unique_ptr<LeakagePolicy> policy =
        makeLeakagePolicy(cfg, &mem, &root);
    MemoryLevel *l1i = policy->level();
    EXPECT_FALSE(
        l1i->accessAt(setAddr(3), AccessType::InstFetch, 100).hit);
    // Same block, same cycle: coalesces onto the in-flight fill.
    EXPECT_TRUE(
        l1i->accessAt(setAddr(3), AccessType::InstFetch, 100).hit);

    Cache l1d(CacheParams{"l1d", 1024, 1, 32, 1, ReplPolicy::LRU},
              &mem, &root);
    const L1iView view{L1Flavour::Policy, nullptr, policy.get(),
                       cfg.dri.sizeBytes};
    RunOutput single;
    addCoreMshrs(l1d, view, single);
    CmpRunOutput cmp;
    addCoreMshrs(l1d, view, cmp);
    EXPECT_EQ(single.mshrCoalesced, 1u);
    EXPECT_EQ(single.mshrPeakOccupancy, 1u);
    EXPECT_EQ(cmp.mshrCoalesced, 1u);
    EXPECT_EQ(cmp.mshrPeakOccupancy, 1u);
}

TEST(DrowsyPolicy, FractionsPartitionTheArray)
{
    stats::StatGroup root("t");
    PolicyConfig cfg = tinyConfig(PolicyKind::Drowsy);
    cfg.drowsy.drowsyInterval = 1000;
    DrowsyCache cache(cfg, nullptr, &root);

    cache.onCycles(300); // all awake
    cache.onRetire(1000);
    cache.onCycles(100); // all drowsy
    const PolicyActivity a = cache.activity();
    EXPECT_DOUBLE_EQ(a.avgActiveFraction, 0.75);
    EXPECT_DOUBLE_EQ(a.avgDrowsyFraction, 0.25);
    // State-preserving: nothing is ever lost or invalidated.
    EXPECT_EQ(a.blocksLost, 0u);
}

// ---------------------------------------------------------------
// StaticWays
// ---------------------------------------------------------------

TEST(StaticWaysPolicy, NeverGatesWayZeroAndClampsToAssoc)
{
    stats::StatGroup root("t");
    PolicyConfig cfg = tinyConfig(PolicyKind::StaticWays);
    cfg.dri.sizeBytes = 4096;
    cfg.dri.assoc = 4;

    cfg.ways.activeWays = 0; // illegal: clamped up, way 0 survives
    StaticWaysCache clamped0(cfg, nullptr, &root);
    EXPECT_EQ(clamped0.activeWays(), 1u);

    cfg.ways.activeWays = 7; // past assoc: clamped down
    StaticWaysCache clamped7(cfg, nullptr, &root);
    EXPECT_EQ(clamped7.activeWays(), 4u);
}

TEST(StaticWaysPolicy, GatedWaysAreNeverAllocated)
{
    stats::StatGroup root("t");
    PolicyConfig cfg = tinyConfig(PolicyKind::StaticWays);
    cfg.dri.sizeBytes = 4096;
    cfg.dri.assoc = 4;
    cfg.ways.activeWays = 1;
    StaticWaysCache cache(cfg, nullptr, &root);

    // Two conflicting blocks: with only way 0 powered the cache
    // behaves direct-mapped — the second fill evicts the first.
    const Addr a = 0;
    const Addr b = 32u * 32u; // same set, different tag
    EXPECT_FALSE(cache.access(a, AccessType::InstFetch).hit);
    EXPECT_FALSE(cache.access(b, AccessType::InstFetch).hit);
    EXPECT_TRUE(cache.access(b, AccessType::InstFetch).hit);
    EXPECT_FALSE(cache.access(a, AccessType::InstFetch).hit);

    EXPECT_DOUBLE_EQ(cache.activeFraction(), 0.25);
    cache.onCycles(50);
    const PolicyActivity act = cache.activity();
    EXPECT_DOUBLE_EQ(act.avgActiveFraction, 0.25);
    EXPECT_EQ(act.wakeTransitions, 0u);

    // With all ways powered the same pair coexists.
    cfg.ways.activeWays = 4;
    StaticWaysCache full(cfg, nullptr, &root);
    full.access(a, AccessType::InstFetch);
    full.access(b, AccessType::InstFetch);
    EXPECT_TRUE(full.access(a, AccessType::InstFetch).hit);
    EXPECT_TRUE(full.access(b, AccessType::InstFetch).hit);
}

// ---------------------------------------------------------------
// Dri adapter equivalence
// ---------------------------------------------------------------

/** Field-by-field equality of the observables both paths fill. */
void
expectSameRun(const RunOutput &a, const RunOutput &b)
{
    EXPECT_EQ(a.meas.cycles, b.meas.cycles);
    EXPECT_EQ(a.meas.instructions, b.meas.instructions);
    EXPECT_EQ(a.meas.l1iAccesses, b.meas.l1iAccesses);
    EXPECT_EQ(a.meas.l1iMisses, b.meas.l1iMisses);
    EXPECT_EQ(a.meas.avgActiveFraction, b.meas.avgActiveFraction);
    EXPECT_EQ(a.meas.resizingTagBits, b.meas.resizingTagBits);
    EXPECT_EQ(a.meas.l1iBytes, b.meas.l1iBytes);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.l1dMissRate, b.l1dMissRate);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.resizes, b.resizes);
    EXPECT_EQ(a.throttleEvents, b.throttleEvents);
}

TEST(DriAdapter, DetailedRunBitForBitEqualsDirectPath)
{
    const auto &bench = findBenchmark("compress");
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    DriParams dri;
    dri.sizeBoundBytes = 2048;
    dri.missBound = 200;
    dri.senseInterval = 50 * 1000;

    const RunOutput direct = runDri(bench, cfg, dri);
    PolicyConfig pc;
    pc.kind = PolicyKind::Dri;
    pc.dri = dri;
    const RunOutput adapted = runPolicy(bench, cfg, pc);
    expectSameRun(direct, adapted);
    // The adapter reports DRI's gated sets as plain inactive
    // fraction: no drowsy component, no wake events.
    EXPECT_EQ(adapted.l1DrowsyFraction, 0.0);
    EXPECT_EQ(adapted.wakeTransitions, 0u);
    EXPECT_EQ(adapted.wakeStallCycles, 0u);
}

TEST(DriAdapter, FastRunBitForBitEqualsDirectPath)
{
    const auto &bench = findBenchmark("li");
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    DriParams dri;
    dri.sizeBoundBytes = 1024;
    dri.missBound = 64;
    dri.senseInterval = 50 * 1000;

    const RunOutput conv = runConventional(bench, cfg);
    const FastCalibration cal = calibrateFast(bench, cfg, conv);
    const RunOutput direct = runDriFast(bench, cfg, dri, cal);
    PolicyConfig pc;
    pc.kind = PolicyKind::Dri;
    pc.dri = dri;
    const RunOutput adapted = runPolicyFast(bench, cfg, pc, cal);
    expectSameRun(direct, adapted);
}

// ---------------------------------------------------------------
// Energy accounting
// ---------------------------------------------------------------

RunMeasurement
convMeas()
{
    RunMeasurement m;
    m.cycles = 1000000;
    m.instructions = 1000000;
    m.l1iAccesses = 800000;
    m.l1iMisses = 5000;
    return m;
}

TEST(PolicyEnergy, ReducesToPaperModelWithZeroGatedResidual)
{
    // With the gated residual zeroed and no drowsy component, the
    // policy accounting must reproduce Section 5.2 exactly — the
    // bridge between the new subsystem and the paper's numbers.
    PolicyEnergyConstants pc = PolicyEnergyConstants::paper();
    pc.gatedLeakFraction = 0.0;

    RunMeasurement conv = convMeas();
    PolicyMeasurement run;
    run.meas = conv;
    run.meas.cycles = 1010000;
    run.meas.l1iMisses = 9000;
    run.meas.avgActiveFraction = 0.4;
    run.meas.resizingTagBits = 6;

    const PolicyEnergy pe = policyEnergy(pc, run, conv);
    const EnergyBreakdown de =
        driEnergy(pc.base, run.meas, conv);
    EXPECT_DOUBLE_EQ(pe.activeLeakageNJ, de.l1LeakageNJ);
    EXPECT_DOUBLE_EQ(pe.extraL1DynamicNJ, de.extraL1DynamicNJ);
    EXPECT_DOUBLE_EQ(pe.extraL2DynamicNJ, de.extraL2DynamicNJ);
    EXPECT_DOUBLE_EQ(pe.effectiveNJ(), de.effectiveNJ());
    EXPECT_DOUBLE_EQ(pe.gatedLeakageNJ, 0.0);
    EXPECT_DOUBLE_EQ(pe.drowsyLeakageNJ, 0.0);
    EXPECT_DOUBLE_EQ(pe.wakeTransitionNJ, 0.0);
}

TEST(PolicyEnergy, SplitsStatePreservingFromStateDestroying)
{
    const PolicyEnergyConstants pc = PolicyEnergyConstants::paper();
    RunMeasurement conv = convMeas();

    // A drowsy-style run: 30% active, 70% state-preserving.
    PolicyMeasurement drowsy;
    drowsy.meas = conv;
    drowsy.meas.avgActiveFraction = 0.3;
    drowsy.avgDrowsyFraction = 0.7;
    drowsy.wakeTransitions = 1000;
    const PolicyEnergy de = policyEnergy(pc, drowsy, conv);
    EXPECT_GT(de.drowsyLeakageNJ, 0.0);
    EXPECT_DOUBLE_EQ(de.gatedLeakageNJ, 0.0);
    EXPECT_DOUBLE_EQ(de.wakeTransitionNJ,
                     1000.0 * pc.wakePerTransitionNJ);

    // A decay-style run: same inactive fraction, state-destroying.
    PolicyMeasurement decay;
    decay.meas = conv;
    decay.meas.avgActiveFraction = 0.3;
    const PolicyEnergy ce = policyEnergy(pc, decay, conv);
    EXPECT_GT(ce.gatedLeakageNJ, 0.0);
    EXPECT_DOUBLE_EQ(ce.drowsyLeakageNJ, 0.0);

    // The state-preserving residual costs more standby leakage
    // than gated-Vdd at equal inactive fraction — Bai et al.'s
    // trade (the drowsy run buys back the miss behaviour instead).
    EXPECT_GT(de.drowsyLeakageNJ, ce.gatedLeakageNJ);

    // The rows expose the split, in fixed order.
    const auto rows = de.rows();
    ASSERT_EQ(rows.size(), 6u);
    EXPECT_EQ(rows[1].first, "leak-gated");
    EXPECT_EQ(rows[2].first, "leak-drowsy");
    double sum = 0.0;
    for (const auto &[label, nj] : rows)
        sum += nj;
    EXPECT_DOUBLE_EQ(sum, de.effectiveNJ());
}

TEST(PolicyEnergy, DerivedConstantsMatchCircuitFigures)
{
    const circuit::Technology tech = circuit::Technology::scaled018();
    const PolicyEnergyConstants c = PolicyEnergyConstants::derived(
        tech, circuit::CacheGeometry{},
        circuit::CacheGeometry{1024 * 1024, 4, 64, 4096});
    // Gated-Vdd residual: Table 2's preferred scheme saves ~97%.
    EXPECT_NEAR(c.gatedLeakFraction, 0.03, 0.02);
    // Drowsy residual: the ~6x reduction regime.
    EXPECT_GT(c.drowsyLeakFraction, 0.08);
    EXPECT_LT(c.drowsyLeakFraction, 0.30);
    // Waking one 32-byte line costs far less than one L2 access.
    EXPECT_GT(c.wakePerTransitionNJ, 0.0);
    EXPECT_LT(c.wakePerTransitionNJ, c.base.l2PerAccessNJ);
}

TEST(DrowsyCellCircuit, StatePreservingFiguresAreSane)
{
    const circuit::Technology tech = circuit::Technology::scaled018();
    const circuit::SramCell cell(tech, tech.vtLow);
    const circuit::DrowsyCell drowsy(tech, cell,
                                     circuit::DrowsyCellConfig{});
    // Leakage falls substantially but nowhere near gated-Vdd's 97%.
    EXPECT_GT(drowsy.leakageSavingsFraction(), 0.5);
    EXPECT_LT(drowsy.leakageSavingsFraction(), 0.97);
    // Standby leaks less than active, more than zero.
    EXPECT_GT(drowsy.standbyLeakagePerCycle(),0.0);
    EXPECT_LT(drowsy.standbyLeakagePerCycle(),
              cell.activeLeakagePerCycle());
    // A deeper retention rail leaks less.
    circuit::DrowsyCellConfig deep;
    deep.standbyVddV = 0.2;
    const circuit::DrowsyCell deeper(tech, cell, deep);
    EXPECT_LT(deeper.standbyLeakageCurrentPerCell(),
              drowsy.standbyLeakageCurrentPerCell());
    // Wake energy scales with the line length.
    EXPECT_GT(drowsy.wakeEnergyPerLineNJ(512),
              drowsy.wakeEnergyPerLineNJ(256));
}

// ---------------------------------------------------------------
// CMP per-core policies
// ---------------------------------------------------------------

TEST(CmpPolicy, PerCoreTechniquesRunSideBySide)
{
    RunConfig cfg;
    cfg.maxInstrs = 150 * 1000;

    CmpConfig cmp;
    cmp.cores = 2;
    CmpCoreConfig c0;
    c0.bench = "compress";
    c0.dri = true;
    c0.policyKind = PolicyKind::Decay;
    c0.decay.decayInterval = 25 * 1000;
    CmpCoreConfig c1;
    c1.bench = "li";
    c1.dri = true;
    c1.policyKind = PolicyKind::Drowsy;
    c1.drowsy.drowsyInterval = 25 * 1000;
    cmp.coreConfigs = {c0, c1};

    const CmpRunOutput out = runCmp(cfg, cmp, "compress");
    ASSERT_EQ(out.cores.size(), 2u);

    // Decay core: state-destroying — inactive fraction, no drowsy.
    EXPECT_LT(out.cores[0].meas.avgActiveFraction, 1.0);
    EXPECT_EQ(out.cores[0].l1DrowsyFraction, 0.0);
    // Drowsy core: state-preserving fraction + wake stalls.
    EXPECT_GT(out.cores[1].l1DrowsyFraction, 0.0);
    EXPECT_GT(out.cores[1].wakeTransitions, 0u);
    EXPECT_GT(out.cores[1].wakeStallCycles, 0u);

    // The energy view carries the per-core split and still sums
    // exactly (HierarchyEnergy's rows-define-totals contract).
    const CmpConfig convCmp = [&] {
        CmpConfig c = cmp;
        for (CmpCoreConfig &cc : c.coreConfigs)
            cc.dri = false;
        return c;
    }();
    const CmpRunOutput conv = runCmp(cfg, convCmp, "compress");
    const CmpComparison cmpResult = compareCmp(
        MultiLevelConstants::paper(), toCmpMeasurement(conv),
        toCmpMeasurement(out));
    ASSERT_EQ(cmpResult.dri.levels.size(), 4u);
    double leak = 0.0;
    for (const LevelEnergy &l : cmpResult.dri.levels)
        leak += l.leakageNJ;
    EXPECT_EQ(leak, cmpResult.dri.totalLeakageNJ());
    // Both managed L1Is leak less than a fully-active array would
    // (the conventional comparison's l1i rows).
    EXPECT_LT(cmpResult.dri.levels[0].leakageNJ,
              cmpResult.conventional.levels[0].leakageNJ);
    EXPECT_LT(cmpResult.dri.levels[1].leakageNJ,
              cmpResult.conventional.levels[1].leakageNJ);

    // The CMP accounting charges the same standby residuals as the
    // single-core policyEnergy(): the decay core's gated fraction
    // carries the Table 2 residual on top of its active share, and
    // the drowsy core's standby fraction its drowsy residual.
    const MultiLevelConstants mc = MultiLevelConstants::paper();
    const CmpMeasurement meas = toCmpMeasurement(out);
    const double cycles = static_cast<double>(meas.cycles);
    for (std::size_t k = 0; k < 2; ++k) {
        const CmpCoreMeasurement &c = meas.cores[k];
        const double expected =
            (c.l1AvgActiveFraction +
             c.l1DrowsyFraction * mc.drowsyLeakFraction +
             c.l1GatedFraction * mc.gatedLeakFraction) *
            mc.l1.leakPerCycleNJ(c.l1Bytes) * cycles;
        EXPECT_DOUBLE_EQ(cmpResult.dri.levels[k].leakageNJ,
                         expected);
        // active + drowsy + gated partitions the array.
        EXPECT_NEAR(c.l1AvgActiveFraction + c.l1DrowsyFraction +
                        c.l1GatedFraction,
                    1.0, 1e-12);
    }
    // One definition point for the residuals: the CMP constants
    // are the policy constants.
    const PolicyEnergyConstants pec =
        PolicyEnergyConstants::paper();
    EXPECT_EQ(mc.gatedLeakFraction, pec.gatedLeakFraction);
    EXPECT_EQ(mc.drowsyLeakFraction, pec.drowsyLeakFraction);
    EXPECT_EQ(mc.wakePerTransitionNJ, pec.wakePerTransitionNJ);
}

// ---------------------------------------------------------------
// searchPolicies
// ---------------------------------------------------------------

TEST(SearchPolicies, FindsOneWinnerPerKindInOrder)
{
    const auto &bench = findBenchmark("compress");
    RunConfig cfg;
    cfg.maxInstrs = 150 * 1000;
    cfg.hier.l1i.assoc = 4;

    PolicyConfig tmpl;
    tmpl.dri.senseInterval = 50 * 1000;
    PolicySpace space;
    space.driSizeBounds = {4096};
    space.decayIntervals = {50 * 1000};
    space.drowsyIntervals = {50 * 1000};
    space.waysActive = {2};

    const RunOutput conv = runConventional(bench, cfg);
    const PolicySearchResult sr = searchPolicies(
        bench, cfg, tmpl, space, PolicyEnergyConstants::paper(),
        4.0, conv);

    ASSERT_EQ(sr.evaluated.size(), 4u);
    ASSERT_EQ(sr.bestPerKind.size(), 4u);
    EXPECT_EQ(sr.bestPerKind[0].config.kind, PolicyKind::Dri);
    EXPECT_EQ(sr.bestPerKind[1].config.kind, PolicyKind::Decay);
    EXPECT_EQ(sr.bestPerKind[2].config.kind, PolicyKind::Drowsy);
    EXPECT_EQ(sr.bestPerKind[3].config.kind,
              PolicyKind::StaticWays);
    // Four different techniques cannot land on the same
    // energy-delay: the comparison is meaningful.
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = i + 1; j < 4; ++j)
            EXPECT_NE(
                sr.bestPerKind[i].cmp.relativeEnergyDelay(),
                sr.bestPerKind[j].cmp.relativeEnergyDelay());
}

} // namespace
} // namespace drisim
