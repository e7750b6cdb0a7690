/**
 * @file
 * Checkpoint/restore equivalence layer.
 *
 * The load-bearing property is bit-identity: a run that snapshots
 * at its midpoint and a run that restores that snapshot into a
 * fresh system must both reproduce the uninterrupted run exactly —
 * every stat, energy input and resize decision — for each core
 * model, all four leakage policies and resizable L1/L2. The
 * type-tagged stream and the keyed store are covered directly:
 * tag/section mismatches throw, store corruption and key mismatch
 * are misses, never deserialized.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cpu/ooo_core.hh"
#include "harness/runner.hh"
#include "mem/hierarchy.hh"
#include "sim/checkpoint.hh"
#include "system/cmp.hh"
#include "workload/generator.hh"
#include "workload/spec_suite.hh"

namespace drisim
{
namespace
{

/** Unique scratch directory, removed on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char buf[] = "/tmp/drisim_ckpt_XXXXXX";
        const char *p = ::mkdtemp(buf);
        EXPECT_NE(p, nullptr);
        path = p ? p : "";
    }

    ~TempDir()
    {
        if (!path.empty())
            std::filesystem::remove_all(path);
    }
};

/** Short detailed run: big enough to resize, small enough for CI. */
RunConfig
quickConfig()
{
    RunConfig c;
    c.maxInstrs = 200 * 1000;
    return c;
}

DriParams
quickDri()
{
    DriParams d;
    d.senseInterval = 20 * 1000;
    d.sizeBoundBytes = 1024;
    d.missBound = 100;
    return d;
}

/** quickConfig() with the non-blocking memory system: banked DRAM
 *  plus MSHR files at every level — the snapshot now carries live
 *  bank queues, row buffers and in-flight miss registers. */
RunConfig
bankedConfig()
{
    RunConfig c = quickConfig();
    c.hier.dram.banked = true;
    c.hier.l1i.mshrs = 4;
    c.hier.l1d.mshrs = 4;
    c.hier.l2.mshrs = 8;
    return c;
}

/** Every RunOutput field, compared exactly (doubles included). */
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
    EXPECT_EQ(a.l2MissRate, b.l2MissRate);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.memReads, b.memReads);
    EXPECT_EQ(a.memWritebacks, b.memWritebacks);
    EXPECT_EQ(a.resizes, b.resizes);
    EXPECT_EQ(a.throttleEvents, b.throttleEvents);
    EXPECT_EQ(a.mshrCoalesced, b.mshrCoalesced);
    EXPECT_EQ(a.mshrFullStalls, b.mshrFullStalls);
    EXPECT_EQ(a.dramRowHits, b.dramRowHits);
    EXPECT_EQ(a.dramRowMisses, b.dramRowMisses);
    EXPECT_EQ(a.l2SizeBytes, b.l2SizeBytes);
    EXPECT_EQ(a.l2AvgActiveFraction, b.l2AvgActiveFraction);
    EXPECT_EQ(a.l2ResizingTagBits, b.l2ResizingTagBits);
    EXPECT_EQ(a.l2Resizes, b.l2Resizes);
    EXPECT_EQ(a.l1DrowsyFraction, b.l1DrowsyFraction);
    EXPECT_EQ(a.wakeTransitions, b.wakeTransitions);
    EXPECT_EQ(a.wakeStallCycles, b.wakeStallCycles);
    EXPECT_EQ(a.policyBlocksLost, b.policyBlocksLost);
}

/**
 * Run @p fn three ways — uninterrupted, snapshot pass (simulates
 * both halves, persisting the midpoint), restore pass (restores the
 * midpoint into a fresh system, simulates only the tail) — and
 * require all three bit-identical. Also checks the process-wide
 * counters saw exactly one save then one restore.
 */
template <typename Fn>
void
expectSplitEquivalence(const RunConfig &base, Fn &&fn)
{
    TempDir dir;
    const RunOutput plain = fn(base);

    RunConfig ck = base;
    ck.checkpointDir = dir.path;
    const sim::CheckpointCounters before = sim::checkpointCounters();
    const RunOutput saved = fn(ck);
    const sim::CheckpointCounters mid = sim::checkpointCounters();
    EXPECT_EQ(mid.saves, before.saves + 1);
    EXPECT_EQ(mid.restores, before.restores);

    const RunOutput restored = fn(ck);
    const sim::CheckpointCounters after = sim::checkpointCounters();
    EXPECT_EQ(after.saves, mid.saves);
    EXPECT_EQ(after.restores, mid.restores + 1);

    expectSameRun(plain, saved);
    expectSameRun(plain, restored);
}

// ---------------------------------------------------------------
// Writer/reader stream primitives
// ---------------------------------------------------------------

TEST(CheckpointIO, RoundTripsEveryType)
{
    sim::CheckpointWriter w;
    w.beginSection("t");
    w.putU64(0);
    w.putU64(~std::uint64_t{0});
    w.putI64(-42);
    w.putF64(0.1);
    w.putBool(true);
    w.putBool(false);
    w.putString(std::string_view("hello\0world\n", 12));
    w.beginSection("nested");
    w.putU64(7);
    w.endSection();
    w.endSection();

    sim::CheckpointReader r(w.bytes());
    r.beginSection("t");
    EXPECT_EQ(r.getU64(), 0u);
    EXPECT_EQ(r.getU64(), ~std::uint64_t{0});
    EXPECT_EQ(r.getI64(), -42);
    EXPECT_EQ(r.getF64(), 0.1);
    EXPECT_TRUE(r.getBool());
    EXPECT_FALSE(r.getBool());
    EXPECT_EQ(r.getString(), std::string("hello\0world\n", 12));
    r.beginSection("nested");
    EXPECT_EQ(r.getU64(), 7u);
    r.endSection();
    r.endSection();
    EXPECT_TRUE(r.atEnd());
}

TEST(CheckpointIO, RoundTripsNanAndNegativeZero)
{
    sim::CheckpointWriter w;
    w.beginSection("f");
    w.putF64(std::nan(""));
    w.putF64(-0.0);
    w.endSection();

    sim::CheckpointReader r(w.bytes());
    r.beginSection("f");
    EXPECT_TRUE(std::isnan(r.getF64()));
    const double z = r.getF64();
    EXPECT_EQ(z, 0.0);
    EXPECT_TRUE(std::signbit(z));
    r.endSection();
}

TEST(CheckpointIO, TagMismatchThrows)
{
    sim::CheckpointWriter w;
    w.beginSection("t");
    w.putU64(1);
    w.endSection();

    sim::CheckpointReader r(w.bytes());
    r.beginSection("t");
    EXPECT_THROW(r.getI64(), sim::CheckpointError);
}

TEST(CheckpointIO, SectionNameMismatchThrows)
{
    sim::CheckpointWriter w;
    w.beginSection("cache");
    w.putU64(1);
    w.endSection();

    sim::CheckpointReader r(w.bytes());
    EXPECT_THROW(r.beginSection("core"), sim::CheckpointError);
}

TEST(CheckpointIO, TruncatedStreamThrows)
{
    sim::CheckpointWriter w;
    w.beginSection("t");
    w.putString("a long enough payload to truncate");
    w.endSection();

    const std::string &full = w.bytes();
    sim::CheckpointReader r(full.substr(0, full.size() / 2));
    r.beginSection("t");
    EXPECT_THROW(r.getString(), sim::CheckpointError);
}

// ---------------------------------------------------------------
// Keyed store
// ---------------------------------------------------------------

TEST(CheckpointStore, MissOnAbsentKey)
{
    TempDir dir;
    sim::CheckpointStore store(dir.path);
    std::string blob;
    EXPECT_FALSE(store.load("never-saved", blob));
}

TEST(CheckpointStore, SaveThenLoadRoundTrips)
{
    TempDir dir;
    sim::CheckpointStore store(dir.path);
    const std::string payload("\x00\x01\xff\xfe"
                              "binary",
                              10);
    store.save("k1", payload);
    std::string blob;
    ASSERT_TRUE(store.load("k1", blob));
    EXPECT_EQ(blob, payload);
    // A second store over the same dir sees the same file.
    sim::CheckpointStore again(dir.path);
    blob.clear();
    ASSERT_TRUE(again.load("k1", blob));
    EXPECT_EQ(blob, payload);
}

TEST(CheckpointStore, CorruptedFileIsAMissNotAnAnswer)
{
    TempDir dir;
    sim::CheckpointStore store(dir.path);
    store.save("k1", "payload-bytes");

    // Clobber the file: the magic/key verification must fail.
    for (const auto &ent :
         std::filesystem::directory_iterator(dir.path)) {
        std::ofstream f(ent.path(), std::ios::binary);
        f << "not a checkpoint at all";
    }
    std::string blob;
    EXPECT_FALSE(store.load("k1", blob));
}

TEST(CheckpointStore, TruncatedFileIsAMiss)
{
    TempDir dir;
    sim::CheckpointStore store(dir.path);
    store.save("k1", "payload that will get cut short");

    for (const auto &ent :
         std::filesystem::directory_iterator(dir.path)) {
        const auto full = std::filesystem::file_size(ent.path());
        std::filesystem::resize_file(ent.path(), full / 2);
    }
    std::string blob;
    EXPECT_FALSE(store.load("k1", blob));
}

TEST(CheckpointStore, DistinctKeysDoNotAlias)
{
    TempDir dir;
    sim::CheckpointStore store(dir.path);
    store.save("cfgA", "A");
    store.save("cfgB", "B");
    std::string blob;
    ASSERT_TRUE(store.load("cfgA", blob));
    EXPECT_EQ(blob, "A");
    ASSERT_TRUE(store.load("cfgB", blob));
    EXPECT_EQ(blob, "B");
}

// ---------------------------------------------------------------
// Split-run bit-identity: detailed core
// ---------------------------------------------------------------

TEST(CheckpointedRun, ConventionalDetailedSplitIsExact)
{
    const auto &b = findBenchmark("compress");
    expectSplitEquivalence(quickConfig(), [&](const RunConfig &c) {
        return runConventional(b, c);
    });
}

TEST(CheckpointedRun, DriDetailedSplitIsExact)
{
    const auto &b = findBenchmark("li");
    const DriParams dp = quickDri();
    expectSplitEquivalence(quickConfig(), [&](const RunConfig &c) {
        return runDri(b, c, dp);
    });
}

TEST(CheckpointedRun, DriL2SplitIsExact)
{
    const auto &b = findBenchmark("compress");
    RunConfig cfg = quickConfig();
    cfg.hier.l2Dri = true;
    cfg.hier.l2DriParams = HierarchyParams::defaultL2DriParams();
    cfg.hier.l2DriParams.senseInterval = 20 * 1000;
    const DriParams dp = quickDri();
    expectSplitEquivalence(cfg, [&](const RunConfig &c) {
        return runDri(b, c, dp);
    });
}

TEST(CheckpointedRun, EveryPolicySplitIsExact)
{
    const auto &b = findBenchmark("compress");
    RunConfig cfg = quickConfig();
    cfg.hier.l1i.assoc = 4; // selective-ways needs ways to gate

    for (const PolicyKind kind :
         {PolicyKind::Dri, PolicyKind::Decay, PolicyKind::Drowsy,
          PolicyKind::StaticWays}) {
        PolicyConfig pol;
        pol.kind = kind;
        pol.dri = quickDri();
        pol.dri.assoc = 4;
        pol.decay.decayInterval = 20 * 1000;
        pol.drowsy.drowsyInterval = 20 * 1000;
        pol.ways.activeWays = 2;
        SCOPED_TRACE(static_cast<int>(kind));
        expectSplitEquivalence(cfg, [&](const RunConfig &c) {
            return runPolicy(b, c, pol);
        });
    }
}

// ---------------------------------------------------------------
// Split-run bit-identity: banked DRAM + MSHRs (the snapshot must
// carry bank queues, open rows and in-flight miss registers)
// ---------------------------------------------------------------

TEST(CheckpointedRun, ConventionalBankedDramSplitIsExact)
{
    const auto &b = findBenchmark("compress");
    expectSplitEquivalence(bankedConfig(), [&](const RunConfig &c) {
        return runConventional(b, c);
    });
}

TEST(CheckpointedRun, DriBankedDramSplitIsExact)
{
    const auto &b = findBenchmark("li");
    DriParams dp = quickDri();
    dp.mshrs = 4;
    expectSplitEquivalence(bankedConfig(), [&](const RunConfig &c) {
        return runDri(b, c, dp);
    });
}

TEST(CheckpointedRun, DriL2BankedDramSplitIsExact)
{
    const auto &b = findBenchmark("compress");
    RunConfig cfg = bankedConfig();
    cfg.hier.l2Dri = true;
    cfg.hier.l2DriParams = HierarchyParams::defaultL2DriParams();
    cfg.hier.l2DriParams.senseInterval = 20 * 1000;
    DriParams dp = quickDri();
    dp.mshrs = 4;
    expectSplitEquivalence(cfg, [&](const RunConfig &c) {
        return runDri(b, c, dp);
    });
}

TEST(CheckpointedRun, EveryPolicyBankedDramSplitIsExact)
{
    const auto &b = findBenchmark("compress");
    RunConfig cfg = bankedConfig();
    cfg.hier.l1i.assoc = 4; // selective-ways needs ways to gate

    for (const PolicyKind kind :
         {PolicyKind::Dri, PolicyKind::Decay, PolicyKind::Drowsy,
          PolicyKind::StaticWays}) {
        PolicyConfig pol;
        pol.kind = kind;
        pol.dri = quickDri();
        pol.dri.assoc = 4;
        pol.dri.mshrs = 4;
        pol.decay.decayInterval = 20 * 1000;
        pol.drowsy.drowsyInterval = 20 * 1000;
        pol.ways.activeWays = 2;
        SCOPED_TRACE(static_cast<int>(kind));
        expectSplitEquivalence(cfg, [&](const RunConfig &c) {
            return runPolicy(b, c, pol);
        });
    }
}

TEST(CheckpointedRun, FastModelBankedDramSplitIsExact)
{
    const auto &b = findBenchmark("li");
    const RunConfig cfg = bankedConfig();
    const RunOutput conv = runConventional(b, cfg);
    const FastCalibration cal = calibrateFast(b, cfg, conv);
    DriParams dp = quickDri();
    dp.mshrs = 4;

    expectSplitEquivalence(cfg, [&](const RunConfig &c) {
        return runConventionalFast(b, c, cal);
    });
    expectSplitEquivalence(cfg, [&](const RunConfig &c) {
        return runDriFast(b, c, dp, cal);
    });
}

TEST(CheckpointedRun, DifferentDramConfigsNeverShareASnapshot)
{
    // Flat and banked runs of the same benchmark share a checkpoint
    // dir: the dram.* knobs are in the run key, so each flavour must
    // save its own snapshot and restore its own bit-identical run.
    const auto &b = findBenchmark("compress");
    TempDir dir;
    RunConfig flat = quickConfig();
    RunConfig banked = bankedConfig();

    const RunOutput plainFlat = runConventional(b, flat);
    const RunOutput plainBanked = runConventional(b, banked);

    flat.checkpointDir = dir.path;
    banked.checkpointDir = dir.path;
    const sim::CheckpointCounters before = sim::checkpointCounters();
    expectSameRun(plainFlat, runConventional(b, flat));
    expectSameRun(plainBanked, runConventional(b, banked));
    const sim::CheckpointCounters after = sim::checkpointCounters();
    EXPECT_EQ(after.saves, before.saves + 2);
    EXPECT_EQ(after.restores, before.restores);

    expectSameRun(plainFlat, runConventional(b, flat));
    expectSameRun(plainBanked, runConventional(b, banked));
    EXPECT_EQ(sim::checkpointCounters().restores,
              after.restores + 2);
}

// ---------------------------------------------------------------
// Split-run bit-identity: fast core (batched retirement)
// ---------------------------------------------------------------

TEST(CheckpointedRun, FastModelSplitIsExact)
{
    const auto &b = findBenchmark("li");
    const RunConfig cfg = quickConfig();
    const RunOutput conv = runConventional(b, cfg);
    const FastCalibration cal = calibrateFast(b, cfg, conv);
    const DriParams dp = quickDri();

    expectSplitEquivalence(cfg, [&](const RunConfig &c) {
        return runConventionalFast(b, c, cal);
    });
    expectSplitEquivalence(cfg, [&](const RunConfig &c) {
        return runDriFast(b, c, dp, cal);
    });
}

TEST(CheckpointedRun, FastPolicySplitIsExact)
{
    const auto &b = findBenchmark("compress");
    RunConfig cfg = quickConfig();
    cfg.hier.l1i.assoc = 4;
    const RunOutput conv = runConventional(b, cfg);
    const FastCalibration cal = calibrateFast(b, cfg, conv);

    PolicyConfig pol;
    pol.kind = PolicyKind::Drowsy;
    pol.dri = quickDri();
    pol.dri.assoc = 4;
    pol.drowsy.drowsyInterval = 20 * 1000;
    expectSplitEquivalence(cfg, [&](const RunConfig &c) {
        return runPolicyFast(b, c, pol, cal);
    });
}

// ---------------------------------------------------------------
// Interactions
// ---------------------------------------------------------------

TEST(CheckpointedRun, DifferentConfigsNeverShareASnapshot)
{
    // Two runs differing in one knob share a checkpoint dir; each
    // must save its own snapshot (different keys), and each restore
    // must reproduce its own plain run.
    const auto &b = findBenchmark("compress");
    TempDir dir;
    DriParams a = quickDri();
    DriParams c = quickDri();
    c.missBound = a.missBound + 1;

    RunConfig cfg = quickConfig();
    const RunOutput plainA = runDri(b, cfg, a);
    const RunOutput plainC = runDri(b, cfg, c);

    cfg.checkpointDir = dir.path;
    const sim::CheckpointCounters before = sim::checkpointCounters();
    expectSameRun(plainA, runDri(b, cfg, a));
    expectSameRun(plainC, runDri(b, cfg, c));
    const sim::CheckpointCounters after = sim::checkpointCounters();
    EXPECT_EQ(after.saves, before.saves + 2);
    EXPECT_EQ(after.restores, before.restores);

    expectSameRun(plainA, runDri(b, cfg, a));
    expectSameRun(plainC, runDri(b, cfg, c));
    EXPECT_EQ(sim::checkpointCounters().restores,
              after.restores + 2);
}

TEST(CheckpointedRun, DistinctCoherenceConfigsNeverShareAKey)
{
    // The CMP run identity must cover the coherence layer: a
    // coherent run restored into (or memoized for) a protocol-off
    // system — or one with a different directory size or message
    // latency — would replay a different machine. Every knob must
    // move the canonical key.
    RunConfig cfg;
    cfg.maxInstrs = 100 * 1000;
    CmpConfig off;
    off.cores = 2;

    CmpConfig on = off;
    on.coherence.enabled = true;
    CmpConfig bigDir = on;
    bigDir.coherence.directoryEntries = 512;
    CmpConfig slowMsg = on;
    slowMsg.coherence.msgLatency = 7;

    const std::string kOff =
        runKeyCmp(cfg, off, "compress").canonical();
    const std::string kOn =
        runKeyCmp(cfg, on, "compress").canonical();
    const std::string kBig =
        runKeyCmp(cfg, bigDir, "compress").canonical();
    const std::string kSlow =
        runKeyCmp(cfg, slowMsg, "compress").canonical();

    EXPECT_NE(kOff, kOn);
    EXPECT_NE(kOn, kBig);
    EXPECT_NE(kOn, kSlow);
    EXPECT_NE(kBig, kSlow);

    // With the protocol off the directory knobs are inert: they
    // must NOT perturb the key, or pre-coherence sidecar entries
    // and snapshots would be orphaned.
    CmpConfig offTuned = off;
    offTuned.coherence.directoryEntries = 512;
    offTuned.coherence.msgLatency = 7;
    EXPECT_EQ(kOff,
              runKeyCmp(cfg, offTuned, "compress").canonical());
}

TEST(CheckpointedRun, SamplingDisablesMidRunSnapshots)
{
    // Sampled runs are not checkpointed (the sampler owns the run
    // loop); the flag combination must run cleanly and leave the
    // counters untouched.
    const auto &b = findBenchmark("compress");
    TempDir dir;
    RunConfig cfg = quickConfig();
    cfg.sampling.enabled = true;
    cfg.sampling.detailedWindow = 20 * 1000;
    cfg.sampling.period = 50 * 1000;
    cfg.checkpointDir = dir.path;

    const sim::CheckpointCounters before = sim::checkpointCounters();
    const RunOutput s1 = runConventional(b, cfg);
    const RunOutput s2 = runConventional(b, cfg);
    const sim::CheckpointCounters after = sim::checkpointCounters();
    EXPECT_EQ(after.saves, before.saves);
    EXPECT_EQ(after.restores, before.restores);
    expectSameRun(s1, s2);
}

// ---------------------------------------------------------------
// Splits where the issue scheduler's derived state is live
// ---------------------------------------------------------------

/** One detailed single-core system: hierarchy, OooCore, program. */
struct CoreSystem
{
    CoreSystem(const std::string &bench, const HierarchyParams &hp)
        : root("sim"),
          hier(hp, &root, true),
          core(OooParams{}, hier.l1i(), &hier.l1d(), &root),
          gen(programImageFor(findBenchmark(bench)))
    {
    }

    std::string snapshot() const
    {
        sim::CheckpointWriter w;
        w.beginSection("split");
        gen.snapshotTo(w);
        core.snapshotTo(w);
        hier.snapshotTo(w);
        w.endSection();
        return w.bytes();
    }

    void restore(std::string blob)
    {
        sim::CheckpointReader r(std::move(blob));
        r.beginSection("split");
        gen.restoreFrom(r);
        core.restoreFrom(r);
        hier.restoreFrom(r);
        r.endSection();
        EXPECT_TRUE(r.atEnd());
    }

    std::string statTree() const
    {
        std::ostringstream os;
        root.dump(os);
        return os.str();
    }

    stats::StatGroup root;
    Hierarchy hier;
    OooCore core;
    TraceGenerator gen;
};

void
expectSameSystem(const CoreSystem &a, const CoreSystem &b)
{
    EXPECT_EQ(a.core.cycles(), b.core.cycles());
    EXPECT_EQ(a.core.committed(), b.core.committed());
    EXPECT_EQ(a.statTree(), b.statTree());
}

/**
 * Step @p bench one instruction at a time (past a warm-up) until
 * @p live holds at the run boundary, snapshot there, and require
 * both the continued run and a fresh system restored from the
 * snapshot to match an uninterrupted run bit for bit.
 */
template <typename Live>
void
expectLiveSplitExact(const std::string &bench,
                     const HierarchyParams &hp, Live &&live)
{
    constexpr InstCount kWarmup = 2000;
    constexpr InstCount kLastSplit = 40 * 1000;
    constexpr InstCount kTotal = 60 * 1000;

    CoreSystem split(bench, hp);
    split.core.run(split.gen, kWarmup);
    InstCount at = kWarmup;
    while (at < kLastSplit && !live(split)) {
        split.core.run(split.gen, 1);
        ++at;
    }
    ASSERT_TRUE(live(split)) << "no split point with live state";
    const std::string blob = split.snapshot();
    split.core.run(split.gen, kTotal - at);

    CoreSystem restored(bench, hp);
    restored.restore(blob);
    restored.core.run(restored.gen, kTotal - at);

    CoreSystem plain(bench, hp);
    plain.core.run(plain.gen, kTotal);

    EXPECT_EQ(plain.core.committed(), kTotal);
    expectSameSystem(plain, split);
    expectSameSystem(plain, restored);
}

TEST(CheckpointedCore, SplitWithLoadWaitingOnInFlightStoreIsExact)
{
    expectLiveSplitExact("compress", HierarchyParams{},
                         [](const CoreSystem &s) {
        return s.core.schedulerOccupancy().loadsOnStore > 0;
    });
}

TEST(CheckpointedCore, SplitWithTimedFpMulChainsIsExact)
{
    expectLiveSplitExact("swim", HierarchyParams{},
                         [](const CoreSystem &s) {
        const OooCore::SchedulerOccupancy occ =
            s.core.schedulerOccupancy();
        return occ.timedFpMul > 1 && occ.waiting > 0;
    });
}

TEST(CheckpointedCore, SplitWithOutstandingMshrMissesIsExact)
{
    expectLiveSplitExact("compress", bankedConfig().hier,
                         [](CoreSystem &s) {
        const MshrFile &m = s.hier.l1d().mshrFile();
        return m.occupancy() > 1 &&
               m.earliestFillAt() > s.core.cycles() &&
               s.core.schedulerOccupancy().waiting > 0;
    });
}

/**
 * The run tests/data/checkpoint_v3 snapshots: swim, 40960
 * instructions, 4 KB L1s, a 16 KB L2, banked DRAM and MSHRs. Its
 * midpoint (instruction 20480) has dozens of entries waiting on
 * producers, FP entries timed for later and four live L1D misses.
 */
RunConfig
fixtureConfig()
{
    RunConfig c;
    c.maxInstrs = 40960;
    c.hier.l1i.sizeBytes = 4 * 1024;
    c.hier.l1d.sizeBytes = 4 * 1024;
    c.hier.l2.sizeBytes = 16 * 1024;
    c.hier.dram.banked = true;
    c.hier.l1i.mshrs = 4;
    c.hier.l1d.mshrs = 4;
    c.hier.l2.mshrs = 8;
    return c;
}

TEST(CheckpointedRun, V3FixtureFromScanningCoreRestoresExactly)
{
    // The fixture was written by the build whose core rescanned the
    // ROB each cycle; it stores no scheduler state, so restoring it
    // rebuilds the wakeup lists, ready set and timing wheel from the
    // ROB.
    TempDir dir;
    const std::filesystem::path fixture =
        std::filesystem::path(DRISIM_TEST_DATA_DIR) / "checkpoint_v3";
    for (const auto &f : std::filesystem::directory_iterator(fixture))
        std::filesystem::copy_file(
            f.path(), std::filesystem::path(dir.path) / f.path().filename());

    const BenchmarkInfo &b = findBenchmark("swim");
    RunConfig cfg = fixtureConfig();
    EXPECT_EQ(runKeyConventional(b, cfg).hashHex(), "37f2a814163a9621");
    const RunOutput plain = runConventional(b, cfg);
    // The cycle count the scanning core produced for this run.
    EXPECT_EQ(plain.meas.cycles, 121644u);

    cfg.checkpointDir = dir.path;
    const sim::CheckpointCounters before = sim::checkpointCounters();
    const RunOutput restored = runConventional(b, cfg);
    const sim::CheckpointCounters after = sim::checkpointCounters();
    EXPECT_EQ(after.restores, before.restores + 1);
    EXPECT_EQ(after.saves, before.saves);
    expectSameRun(plain, restored);
}

} // namespace
} // namespace drisim
