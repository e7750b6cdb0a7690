/**
 * @file
 * Result-cache tests: canonical config hashing (order-invariance,
 * default-vs-explicit equality, single-knob sensitivity), sidecar
 * persistence and tamper resistance (corruption, truncation,
 * hash-collision protection, JSON escaping), and the runner-level
 * guarantee that a cached result is byte-identical to a recomputed
 * one and a damaged entry is recomputed, never served.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "harness/runner.hh"
#include "sim/result_cache.hh"
#include "workload/spec_suite.hh"

namespace drisim
{
namespace
{

using sim::ConfigKey;
using sim::ResultCache;

/** Self-deleting scratch directory for sidecar files. */
class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/drisim_rc_XXXXXX";
        path_ = mkdtemp(tmpl);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    std::string file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::string &contents)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
}

// --- ConfigKey hashing ------------------------------------------------

TEST(ConfigKeyTest, InsertionOrderIsIrrelevant)
{
    ConfigKey a;
    a.add("bench", "compress").add("instrs", std::uint64_t{1000});
    a.addDouble("bound", 0.25);
    ConfigKey b;
    b.addDouble("bound", 0.25);
    b.add("instrs", std::uint64_t{1000}).add("bench", "compress");
    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(a.hashHex(), b.hashHex());
}

TEST(ConfigKeyTest, DefaultAndExplicitConfigsHashEqual)
{
    const auto &b = findBenchmark("compress");
    const RunConfig defaults;
    RunConfig explicitCfg;
    explicitCfg.maxInstrs = defaults.maxInstrs;
    explicitCfg.hier = HierarchyParams{};
    explicitCfg.core = OooParams{};
    // jobs/checkpointDir/resultCache/shard cannot change results
    // and must not change the identity either (a unit computes the
    // same answer whichever farm shard runs it).
    explicitCfg.jobs = 7;
    explicitCfg.checkpointDir = "/nonexistent";
    explicitCfg.shard = farm::ShardPlan{1, 3};
    EXPECT_EQ(runKeyConventional(b, defaults).hashHex(),
              runKeyConventional(b, explicitCfg).hashHex());
}

TEST(ConfigKeyTest, FlippingAnySingleKnobChangesTheHash)
{
    const auto &b = findBenchmark("compress");
    const RunConfig base;
    std::vector<std::string> hashes;
    hashes.push_back(runKeyConventional(b, base).hashHex());

    {
        RunConfig c = base;
        c.maxInstrs += 1;
        hashes.push_back(runKeyConventional(b, c).hashHex());
    }
    {
        RunConfig c = base;
        c.hier.l2Dri = true;
        hashes.push_back(runKeyConventional(b, c).hashHex());
    }
    {
        RunConfig c = base;
        c.core.commitWidth += 1;
        hashes.push_back(runKeyConventional(b, c).hashHex());
    }
    {
        RunConfig c = base;
        c.core.bpred.historyBits += 1;
        hashes.push_back(runKeyConventional(b, c).hashHex());
    }
    {
        RunConfig c = base;
        c.sampling.enabled = true;
        hashes.push_back(runKeyConventional(b, c).hashHex());
    }
    hashes.push_back(runKeyConventional(findBenchmark("li"), base)
                         .hashHex());
    {
        DriParams d;
        hashes.push_back(runKeyDri(b, base, d).hashHex());
        DriParams d2 = d;
        d2.senseInterval += 1;
        hashes.push_back(runKeyDri(b, base, d2).hashHex());
        DriParams d3 = d;
        d3.missBound += 1;
        hashes.push_back(runKeyDri(b, base, d3).hashHex());
        DriParams d4 = d;
        d4.sizeBoundBytes *= 2;
        hashes.push_back(runKeyDri(b, base, d4).hashHex());
    }

    for (std::size_t i = 0; i < hashes.size(); ++i)
        for (std::size_t j = i + 1; j < hashes.size(); ++j)
            EXPECT_NE(hashes[i], hashes[j])
                << "knobs " << i << " and " << j << " alias";
}

// --- store / lookup / persistence -------------------------------------

TEST(ResultCacheTest, StoreThenLookupRoundTrips)
{
    TempDir dir;
    ResultCache cache(dir.file("rc.json"));
    ConfigKey key;
    key.add("bench", "compress").add("instrs", std::uint64_t{42});

    ResultCache::Fields miss;
    EXPECT_FALSE(cache.lookup(key, miss));
    EXPECT_EQ(cache.counters().misses, 1u);

    ResultCache::Fields f{{"ipc", "1.5"}, {"cycles", "28"}};
    cache.store(key, f);
    EXPECT_EQ(cache.counters().stores, 1u);

    ResultCache::Fields got;
    ASSERT_TRUE(cache.lookup(key, got));
    EXPECT_EQ(got, f);
    EXPECT_EQ(cache.counters().hits, 1u);
}

TEST(ResultCacheTest, PersistsAcrossInstances)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    ConfigKey key;
    key.add("k", "v");
    const ResultCache::Fields f{{"cycles", "123"}};
    {
        ResultCache cache(path);
        cache.store(key, f);
        cache.flush();
    }
    ResultCache reopened(path);
    ResultCache::Fields got;
    ASSERT_TRUE(reopened.lookup(key, got));
    EXPECT_EQ(got, f);
}

TEST(ResultCacheTest, JsonEscapesRoundTrip)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    ConfigKey key;
    key.add("path", "a\"b\\c\nd\te");
    ResultCache::Fields f{{"note", "line1\nline2 \"quoted\" \\slash"},
                          {"ctrl", std::string("\x01\x1f", 2)}};
    {
        ResultCache cache(path);
        cache.store(key, f);
    } // flush on destruction
    ResultCache reopened(path);
    ResultCache::Fields got;
    ASSERT_TRUE(reopened.lookup(key, got));
    EXPECT_EQ(got, f);
}

// --- tamper resistance ------------------------------------------------

TEST(ResultCacheTest, CorruptedSidecarIsRecomputedNotServed)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    ConfigKey key;
    key.add("k", "v");
    {
        ResultCache cache(path);
        cache.store(key, {{"cycles", "1"}});
    }
    spit(path, "this is not json {{{");
    ResultCache cache(path);
    ResultCache::Fields got;
    EXPECT_FALSE(cache.lookup(key, got)); // parse fail -> empty cache
    cache.store(key, {{"cycles", "2"}});
    cache.flush();
    ResultCache again(path);
    ASSERT_TRUE(again.lookup(key, got));
    EXPECT_EQ(got.at("cycles"), "2");
}

TEST(ResultCacheTest, TruncatedSidecarIsAMiss)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    ConfigKey key;
    key.add("k", "v");
    {
        ResultCache cache(path);
        cache.store(key, {{"cycles", "1"}});
    }
    const std::string full = slurp(path);
    ASSERT_GT(full.size(), 4u);
    spit(path, full.substr(0, full.size() / 2));
    ResultCache cache(path);
    ResultCache::Fields got;
    EXPECT_FALSE(cache.lookup(key, got));
}

TEST(ResultCacheTest, HashCollisionIsAMissNotAWrongAnswer)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    ConfigKey key;
    key.add("a", "1");
    {
        ResultCache cache(path);
        cache.store(key, {{"cycles", "1"}});
    }
    // Simulate a collision: same hash slot, different config string.
    // The stored full config must be compared, so this entry can
    // never be served for `key`.
    const std::string full = slurp(path);
    const std::string edited =
        std::string(full).replace(full.find("a=1;"), 4, "a=9;");
    ASSERT_NE(full, edited);
    spit(path, edited);
    ResultCache cache(path);
    ResultCache::Fields got;
    EXPECT_FALSE(cache.lookup(key, got));
}

// --- concurrent multi-process writers (sweep farm) --------------------

ConfigKey
numberedKey(const std::string &who, int i)
{
    ConfigKey k;
    k.add("writer", who).add("cell", std::to_string(i));
    return k;
}

/**
 * The farm guarantee: any number of shard processes flushing to one
 * sidecar interleave whole records, never bytes (single O_APPEND
 * write per flush). Two real processes hammer the same file with
 * per-record flushes; afterwards a fresh reader must see every
 * record from both, intact.
 */
TEST(ResultCacheTest, TwoProcessHammerInterleavesWholeRecords)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    constexpr int kRecords = 200;

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: its own cache instance on the same sidecar. A long
        // payload makes a torn interleave overwhelmingly likely if
        // flushes ever split across writes.
        ResultCache cache(path);
        const std::string blob(256, 'c');
        for (int i = 0; i < kRecords; ++i) {
            cache.store(numberedKey("child", i),
                        {{"cycles", std::to_string(i)},
                         {"blob", blob}});
            cache.flush();
        }
        _exit(0);
    }
    {
        ResultCache cache(path);
        const std::string blob(256, 'p');
        for (int i = 0; i < kRecords; ++i) {
            cache.store(numberedKey("parent", i),
                        {{"cycles", std::to_string(i)},
                         {"blob", blob}});
            cache.flush();
        }
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    ResultCache reader(path);
    EXPECT_EQ(reader.size(), 2u * kRecords);
    ResultCache::Fields got;
    for (int i = 0; i < kRecords; ++i) {
        EXPECT_TRUE(reader.lookup(numberedKey("parent", i), got))
            << i;
        EXPECT_TRUE(reader.lookup(numberedKey("child", i), got))
            << i;
        EXPECT_EQ(got.at("cycles"), std::to_string(i));
    }
}

TEST(ResultCacheTest, TornLineInvalidatesOnlyItself)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    ConfigKey first = numberedKey("w", 1);
    ConfigKey second = numberedKey("w", 2);
    {
        ResultCache cache(path);
        cache.store(first, {{"cycles", "1"}});
        cache.flush();
    }
    // A writer killed mid-append leaves a torn line; records around
    // it must survive. Splice junk (newline-terminated) between two
    // valid records.
    std::string contents = slurp(path);
    contents += "{\"hash\":\"torn torn to";
    contents += '\n';
    spit(path, contents);
    {
        ResultCache cache(path);
        cache.store(second, {{"cycles", "2"}});
        cache.flush();
    }
    ResultCache reader(path);
    ResultCache::Fields got;
    EXPECT_TRUE(reader.lookup(first, got));
    EXPECT_TRUE(reader.lookup(second, got));
    EXPECT_EQ(reader.size(), 2u);
}

TEST(ResultCacheTest, AppendAfterUnterminatedTailIsNotLost)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    // Junk tail with no trailing newline (torn final append): the
    // next flush must start on a fresh line or its first record is
    // glued to the junk and lost with it.
    spit(path, "this is not json {{{");
    ConfigKey key = numberedKey("w", 1);
    {
        ResultCache cache(path);
        cache.store(key, {{"cycles", "1"}});
        cache.flush();
    }
    ResultCache reader(path);
    ResultCache::Fields got;
    EXPECT_TRUE(reader.lookup(key, got));
    EXPECT_EQ(got.at("cycles"), "1");
}

TEST(ResultCacheTest, ReloadSeesOtherWritersRecords)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    ConfigKey mine = numberedKey("a", 1);
    ConfigKey theirs = numberedKey("b", 1);

    ResultCache a(path);
    a.store(mine, {{"cycles", "1"}});
    a.flush();
    ResultCache::Fields got;
    EXPECT_FALSE(a.lookup(theirs, got)); // not written yet
    {
        // "Another process": an independent instance on the path.
        ResultCache b(path);
        b.store(theirs, {{"cycles", "2"}});
        b.flush();
    }
    // Without reload the stale in-memory view still misses...
    EXPECT_FALSE(a.lookup(theirs, got));
    // ...and reload (sweep_merge's re-read-on-merge) picks it up
    // without losing unflushed local state.
    a.store(numberedKey("a", 2), {{"cycles", "3"}});
    a.reload();
    EXPECT_TRUE(a.lookup(theirs, got));
    EXPECT_EQ(got.at("cycles"), "2");
    EXPECT_TRUE(a.lookup(numberedKey("a", 2), got));
}

// --- runner integration -----------------------------------------------

TEST(ResultCacheRunnerTest, CachedRunIsByteIdenticalToComputed)
{
    const auto &b = findBenchmark("compress");
    TempDir dir;
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    cfg.resultCache =
        std::make_shared<ResultCache>(dir.file("rc.json"));
    DriParams dp;
    dp.senseInterval = 20 * 1000;
    dp.sizeBoundBytes = 1024;
    dp.missBound = 100;

    const RunOutput computed = runDri(b, cfg, dp);
    EXPECT_EQ(cfg.resultCache->counters().stores, 1u);
    const RunOutput cached = runDri(b, cfg, dp);
    EXPECT_EQ(cfg.resultCache->counters().hits, 1u);

    EXPECT_EQ(computed.meas.cycles, cached.meas.cycles);
    EXPECT_EQ(computed.meas.avgActiveFraction,
              cached.meas.avgActiveFraction);
    EXPECT_EQ(computed.ipc, cached.ipc);
    EXPECT_EQ(computed.l1dMissRate, cached.l1dMissRate);
    EXPECT_EQ(computed.resizes, cached.resizes);
    EXPECT_EQ(computed.l2Misses, cached.l2Misses);
}

TEST(ResultCacheRunnerTest, PartialEntryIsRecomputedNeverServed)
{
    const auto &b = findBenchmark("compress");
    TempDir dir;
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    cfg.resultCache =
        std::make_shared<ResultCache>(dir.file("rc.json"));
    DriParams dp;
    dp.senseInterval = 20 * 1000;
    dp.sizeBoundBytes = 1024;
    dp.missBound = 100;

    // Poison the cache with an entry under the run's own key that
    // is missing most fields (e.g. written by a newer binary with a
    // different schema). Strict parsing must reject and recompute.
    cfg.resultCache->store(runKeyDri(b, cfg, dp),
                           {{"ipc", "9.0"}, {"cycles", "junk"}});

    const RunOutput out = runDri(b, cfg, dp);
    EXPECT_NE(out.ipc, 9.0);
    EXPECT_GT(out.meas.cycles, 0u);

    // The recompute overwrote the poisoned entry with a full one.
    RunConfig cfg2 = cfg;
    const RunOutput again = runDri(b, cfg2, dp);
    EXPECT_EQ(out.ipc, again.ipc);
    EXPECT_EQ(out.meas.cycles, again.meas.cycles);
}

TEST(ResultCacheRunnerTest, NonBlockingMemoryFieldsRoundTrip)
{
    // The payload must carry the non-blocking-memory columns: a
    // banked-DRAM run served from the cache has to reproduce them
    // exactly (they feed the bench tables), not as silent zeros.
    const auto &b = findBenchmark("compress");
    TempDir dir;
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    cfg.hier.dram.banked = true;
    cfg.hier.l1i.mshrs = 2;
    cfg.hier.l1d.mshrs = 2;
    cfg.hier.l2.mshrs = 4;
    cfg.resultCache =
        std::make_shared<ResultCache>(dir.file("rc.json"));

    const RunOutput computed = runConventional(b, cfg);
    EXPECT_GT(computed.mshrPeakOccupancy, 0u);
    EXPECT_GT(computed.dramBusyCycles, 0u);

    const RunOutput cached = runConventional(b, cfg);
    EXPECT_EQ(cfg.resultCache->counters().hits, 1u);
    EXPECT_EQ(cached.mshrFullStallCycles,
              computed.mshrFullStallCycles);
    EXPECT_EQ(cached.mshrPeakOccupancy, computed.mshrPeakOccupancy);
    EXPECT_EQ(cached.dramQueueFullEvents,
              computed.dramQueueFullEvents);
    EXPECT_EQ(cached.dramBusyCycles, computed.dramBusyCycles);
}

TEST(ResultCacheRunnerTest, StalePayloadVersionIsAMissNotServed)
{
    // An entry written under the previous payload layout (before
    // the non-blocking-memory columns) carries payload_v=1 — or no
    // marker at all. Either must miss cleanly and be recomputed,
    // never served with the missing columns zeroed.
    const auto &b = findBenchmark("compress");
    TempDir dir;
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    cfg.resultCache =
        std::make_shared<ResultCache>(dir.file("rc.json"));

    const RunOutput computed = runConventional(b, cfg);
    const sim::ConfigKey key = runKeyConventional(b, cfg);
    sim::ResultCache::Fields f;
    ASSERT_TRUE(cfg.resultCache->lookup(key, f));
    ASSERT_EQ(f.at("payload_v"), "2");

    // Rewrite the entry as an older binary would have left it.
    f["payload_v"] = "1";
    cfg.resultCache->store(key, f);
    const auto before = cfg.resultCache->counters();
    const RunOutput out = runConventional(b, cfg);
    EXPECT_EQ(cfg.resultCache->counters().stores,
              before.stores + 1);
    EXPECT_EQ(out.meas.cycles, computed.meas.cycles);

    // Same for an entry with the marker stripped entirely.
    f.erase("payload_v");
    cfg.resultCache->store(key, f);
    const auto before2 = cfg.resultCache->counters();
    const RunOutput again = runConventional(b, cfg);
    EXPECT_EQ(cfg.resultCache->counters().stores,
              before2.stores + 1);
    EXPECT_EQ(again.meas.cycles, computed.meas.cycles);
}

// --- pinned sidecar ---------------------------------------------------

/** Every RunOutput field, exactly. */
void
expectSameOutput(const RunOutput &a, const RunOutput &b)
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
    EXPECT_EQ(a.mshrFullStallCycles, b.mshrFullStallCycles);
    EXPECT_EQ(a.mshrPeakOccupancy, b.mshrPeakOccupancy);
    EXPECT_EQ(a.dramRowHits, b.dramRowHits);
    EXPECT_EQ(a.dramRowMisses, b.dramRowMisses);
    EXPECT_EQ(a.dramQueueFullEvents, b.dramQueueFullEvents);
    EXPECT_EQ(a.dramBusyCycles, b.dramBusyCycles);
    EXPECT_EQ(a.l2SizeBytes, b.l2SizeBytes);
    EXPECT_EQ(a.l2AvgActiveFraction, b.l2AvgActiveFraction);
    EXPECT_EQ(a.l2ResizingTagBits, b.l2ResizingTagBits);
    EXPECT_EQ(a.l2Resizes, b.l2Resizes);
    EXPECT_EQ(a.l1DrowsyFraction, b.l1DrowsyFraction);
    EXPECT_EQ(a.wakeTransitions, b.wakeTransitions);
    EXPECT_EQ(a.wakeStallCycles, b.wakeStallCycles);
    EXPECT_EQ(a.policyBlocksLost, b.policyBlocksLost);
}

/** What runEveryEntryPoint produced: one output per run, plus the
 *  calibration the fast runs used. */
struct EntryPointRuns
{
    std::vector<RunOutput> outputs;
    FastCalibration cal;
};

/**
 * One small run of every runner entry point (conv, dri, policy with
 * a DRI and a drowsy L1I, calibrate, conv_fast, dri_fast and
 * policy_fast) on non-default knobs: L1 MSHRs, banked DRAM, a DRI
 * L2 and a sampled detailed run. tests/data/result_cache_v2 holds
 * these runs as an earlier build stored them.
 */
EntryPointRuns
runEveryEntryPoint(const std::shared_ptr<ResultCache> &cache)
{
    const BenchmarkInfo &b = findBenchmark("compress");
    RunConfig cfg;
    cfg.maxInstrs = 128 * 1024;
    cfg.hier.l1i.mshrs = 2;
    cfg.hier.l1d.mshrs = 2;
    cfg.hier.l2.mshrs = 4;
    cfg.hier.dram.banked = true;
    cfg.resultCache = cache;
    RunConfig l2dri = cfg;
    l2dri.hier.l2Dri = true;
    l2dri.hier.l2DriParams.senseInterval = 16 * 1024;
    RunConfig sampled = l2dri;
    sampled.sampling.enabled = true;
    sampled.sampling.detailedWindow = 16 * 1024;
    sampled.sampling.period = 48 * 1024;

    DriParams dri;
    dri.senseInterval = 16 * 1024;
    dri.sizeBoundBytes = 2048;
    dri.missBound = 64;
    PolicyConfig driPolicy;
    driPolicy.dri = dri;
    PolicyConfig drowsy = driPolicy;
    drowsy.kind = PolicyKind::Drowsy;
    drowsy.drowsy.drowsyInterval = 16 * 1024;
    PolicyConfig decay = driPolicy;
    decay.kind = PolicyKind::Decay;
    decay.decay.decayInterval = 8 * 1024;

    EntryPointRuns r;
    r.outputs.push_back(runConventional(b, cfg));
    r.outputs.push_back(runDri(b, sampled, dri));
    r.outputs.push_back(runPolicy(b, l2dri, driPolicy));
    r.outputs.push_back(runPolicy(b, cfg, drowsy));
    r.cal = calibrateFast(b, cfg, r.outputs[0]);
    r.outputs.push_back(runConventionalFast(b, l2dri, r.cal));
    r.outputs.push_back(runDriFast(b, cfg, dri, r.cal));
    r.outputs.push_back(runPolicyFast(b, l2dri, decay, r.cal));
    return r;
}

TEST(ResultCacheRunnerTest, PinnedSidecarIsServedEntirelyAsHits)
{
    TempDir dir;
    // Regeneration: point this at a new, empty file to write the
    // fixture with the build under test instead of checking it.
    if (const char *out = std::getenv("DRISIM_WRITE_RESULT_CACHE")) {
        runEveryEntryPoint(std::make_shared<ResultCache>(out));
        GTEST_SKIP() << "wrote " << out;
    }
    const std::filesystem::path fixture =
        std::filesystem::path(DRISIM_TEST_DATA_DIR) /
        "result_cache_v2" / "results.jsonl";
    std::filesystem::copy_file(fixture, dir.file("results.jsonl"));

    const auto cache =
        std::make_shared<ResultCache>(dir.file("results.jsonl"));
    const EntryPointRuns served = runEveryEntryPoint(cache);
    const ResultCache::Counters c = cache->counters();
    EXPECT_EQ(c.hits, served.outputs.size() + 1); // + calibrate
    EXPECT_EQ(c.misses, 0u);
    EXPECT_EQ(c.stores, 0u);

    const EntryPointRuns fresh = runEveryEntryPoint(nullptr);
    EXPECT_EQ(served.cal.baseCpi, fresh.cal.baseCpi);
    EXPECT_EQ(served.cal.missOverlap, fresh.cal.missOverlap);
    ASSERT_EQ(served.outputs.size(), fresh.outputs.size());
    for (std::size_t i = 0; i < fresh.outputs.size(); ++i) {
        SCOPED_TRACE("run " + std::to_string(i));
        expectSameOutput(served.outputs[i], fresh.outputs[i]);
    }
}

TEST(ConfigKeyTest, CoherentCmpKeyHashIsPinned)
{
    RunConfig cfg;
    cfg.maxInstrs = 64 * 1024;
    cfg.hier.l1d.mshrs = 2;
    cfg.hier.dram.banked = true;
    CmpConfig cmp;
    cmp.cores = 2;
    cmp.coherence.enabled = true;
    CmpCoreConfig drowsyCore;
    drowsyCore.bench = "li";
    drowsyCore.dri = true;
    drowsyCore.policyKind = PolicyKind::Drowsy;
    cmp.coreConfigs = {CmpCoreConfig{}, drowsyCore};
    EXPECT_EQ(runKeyCmp(cfg, cmp, "compress").hashHex(), "ee660fdcff8c4352");
}

} // namespace
} // namespace drisim
