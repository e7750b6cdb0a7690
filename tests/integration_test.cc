/**
 * @file
 * End-to-end behavioural tests reproducing the paper's qualitative
 * claims on the full stack (workload -> OoO core -> hierarchy ->
 * DRI -> energy accounting).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "energy/accounting.hh"
#include "harness/executor.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"

namespace drisim
{
namespace
{

RunConfig
config(InstCount instrs = 2 * 1000 * 1000)
{
    RunConfig c;
    c.maxInstrs = instrs;
    return c;
}

DriParams
driFor(const RunOutput &conv, const RunConfig &cfg,
       std::uint64_t sizeBound, double missFactor)
{
    DriParams p;
    p.sizeBoundBytes = sizeBound;
    p.senseInterval = 100000;
    const double intervals = static_cast<double>(cfg.maxInstrs) /
                             static_cast<double>(p.senseInterval);
    p.missBound = std::max<std::uint64_t>(
        16, static_cast<std::uint64_t>(
                missFactor *
                static_cast<double>(conv.meas.l1iMisses) /
                intervals));
    return p;
}

TEST(Integration, ConventionalMissRatesAreLowAcrossTheSuite)
{
    // Paper Section 5.3: conventional i-cache miss rates < 1% for
    // all benchmarks. Our short runs over-weight cold misses, so
    // run a longer horizon here and allow a modest margin. The
    // runs are independent, so they go through the executor.
    const auto &suite = specSuite();
    std::vector<double> missRates(suite.size());
    Executor exec(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    exec.forEachIndex("miss-rate", suite.size(),
                      [&](std::size_t i, const JobContext &) {
                          missRates[i] =
                              runConventional(suite[i],
                                              config(4 * 1000 * 1000))
                                  .meas.missRate();
                      });
    for (std::size_t i = 0; i < suite.size(); ++i)
        EXPECT_LT(missRates[i], 0.012) << suite[i].name;
}

TEST(Integration, Class1ShrinksToTheBoundWithTinySlowdown)
{
    // Paper: applu/compress/li/mgrid/swim "primarily stay at the
    // minimum size allowed by the size-bound". Size-bounds are the
    // benchmark's best-case values (>= the tight-loop footprint).
    const std::pair<const char *, std::uint64_t> cases[] = {
        {"applu", 2048}, {"li", 4096}, {"mgrid", 2048}};
    for (const auto &[name, size_bound] : cases) {
        const auto &b = findBenchmark(name);
        const RunConfig cfg = config();
        const auto conv = runConventional(b, cfg);
        const auto dri =
            runDri(b, cfg, driFor(conv, cfg, size_bound, 8.0));
        const auto cmp = compareRuns(EnergyConstants::paper(),
                                     conv.meas, dri.meas);
        EXPECT_LT(cmp.averageSizeFraction(), 0.35) << name;
        EXPECT_LT(cmp.slowdownPercent(), 5.0) << name;
        EXPECT_LT(cmp.relativeEnergyDelay(), 0.5) << name;
    }
}

TEST(Integration, FppppCannotDownsizeWithoutPain)
{
    // Paper: "fpppp requires the full-sized i-cache, so reducing
    // the size dramatically increases the miss rate."
    const auto &b = findBenchmark("fpppp");
    const RunConfig cfg = config();
    const auto conv = runConventional(b, cfg);

    // Forced downsizing (high miss-bound): large slowdown.
    const auto forced =
        runDri(b, cfg, driFor(conv, cfg, 1024, 200.0));
    const auto cmp_forced = compareRuns(EnergyConstants::paper(),
                                        conv.meas, forced.meas);
    EXPECT_GT(cmp_forced.slowdownPercent(), 5.0);

    // With the size-bound at 64K (the paper's fpppp setting),
    // behaviour is identical to conventional.
    const auto fixed =
        runDri(b, cfg, driFor(conv, cfg, 64 * 1024, 2.0));
    const auto cmp_fixed = compareRuns(EnergyConstants::paper(),
                                       conv.meas, fixed.meas);
    EXPECT_NEAR(cmp_fixed.averageSizeFraction(), 1.0, 1e-9);
    EXPECT_NEAR(cmp_fixed.slowdownPercent(), 0.0, 0.1);
}

TEST(Integration, PhasedBenchmarkTracksItsPhases)
{
    // hydro2d: big init phase then tiny loops; the DRI cache must
    // end small but have spent time large (fraction between the
    // extremes, well below 1).
    const auto &b = findBenchmark("hydro2d");
    const RunConfig cfg = config(3 * 1000 * 1000);
    const auto conv = runConventional(b, cfg);
    const auto dri = runDri(b, cfg, driFor(conv, cfg, 1024, 8.0));
    EXPECT_LT(dri.meas.avgActiveFraction, 0.8);
    EXPECT_GT(dri.resizes, 4u);
}

TEST(Integration, HigherAssociativityEncouragesDownsizing)
{
    // Paper Section 5.5 / Figure 6: 4-way DRI absorbs conflict
    // misses and reaches smaller sizes on conflict-prone programs.
    // Size-bound above the loop footprint so conflicts (not
    // capacity) dominate the residual misses.
    const auto &b = findBenchmark("swim");
    RunConfig cfg = config();
    const auto conv_dm = runConventional(b, cfg);

    DriParams dm = driFor(conv_dm, cfg, 4096, 8.0);
    const auto dri_dm = runDri(b, cfg, dm);

    RunConfig cfg4 = cfg;
    cfg4.hier.l1i.assoc = 4;
    // Warm comparison baseline for the 4-way geometry.
    const auto conv_4w = runConventional(b, cfg4);
    EXPECT_LE(conv_4w.meas.missRate(), conv_dm.meas.missRate());
    DriParams fourway = dm;
    fourway.assoc = 4;
    const auto dri_4w = runDri(b, cfg4, fourway);

    EXPECT_LE(dri_4w.meas.avgActiveFraction,
              dri_dm.meas.avgActiveFraction + 0.02);
    EXPECT_LT(dri_4w.meas.missRate(),
              dri_dm.meas.missRate() + 0.0005);
}

TEST(Integration, LargerCacheGivesLargerRelativeReduction)
{
    // Paper Section 5.5: the 128K cache downsizes to the same
    // absolute magnitude, halving the *fraction*.
    const auto &b = findBenchmark("compress");
    RunConfig cfg64 = config();
    const auto conv64 = runConventional(b, cfg64);
    DriParams p64 = driFor(conv64, cfg64, 1024, 8.0);
    const auto dri64 = runDri(b, cfg64, p64);

    RunConfig cfg128 = cfg64;
    cfg128.hier.l1i.sizeBytes = 128 * 1024;
    const auto conv128 = runConventional(b, cfg128);
    EXPECT_LE(conv128.meas.missRate(), conv64.meas.missRate() + 1e-4);
    DriParams p128 = p64;
    p128.sizeBytes = 128 * 1024;
    const auto dri128 = runDri(b, cfg128, p128);

    EXPECT_LT(dri128.meas.avgActiveFraction,
              dri64.meas.avgActiveFraction);
}

TEST(Integration, MissRateStaysNearMissBound)
{
    // Paper: "tight control over the miss rate ... close to a
    // preset value". The effective DRI miss rate must stay within
    // the same order as the bound, not explode past it.
    const auto &b = findBenchmark("ijpeg");
    const RunConfig cfg = config();
    const auto conv = runConventional(b, cfg);
    DriParams p = driFor(conv, cfg, 1024, 8.0);
    const auto dri = runDri(b, cfg, p);

    const double intervals =
        static_cast<double>(cfg.maxInstrs) /
        static_cast<double>(p.senseInterval);
    const double bound_rate =
        static_cast<double>(p.missBound) * intervals /
        static_cast<double>(dri.meas.l1iAccesses);
    // Effective rate within ~4x of the configured bound's rate.
    EXPECT_LT(dri.meas.missRate(), 4.0 * bound_rate + 0.002);
}

TEST(Integration, ExtraDynamicEnergyIsSmall)
{
    // Paper Section 5.3: "the energy-delay products' dynamic
    // component is small for all the benchmarks".
    for (const char *name : {"applu", "ijpeg"}) {
        const auto &b = findBenchmark(name);
        const RunConfig cfg = config();
        const auto conv = runConventional(b, cfg);
        const auto dri =
            runDri(b, cfg, driFor(conv, cfg, 1024, 8.0));
        const auto cmp = compareRuns(EnergyConstants::paper(),
                                     conv.meas, dri.meas);
        EXPECT_LT(cmp.relativeEdDynamic(),
                  0.35 * cmp.relativeEnergyDelay())
            << name;
    }
}

TEST(Integration, PairedRunsSeeIdenticalInstructionStreams)
{
    const auto &b = findBenchmark("m88ksim");
    const RunConfig cfg = config(500 * 1000);
    const auto conv = runConventional(b, cfg);
    DriParams p;
    const auto dri = runDri(b, cfg, p);
    EXPECT_EQ(conv.meas.instructions, dri.meas.instructions);
    // Same fetch stream: access counts match when no resizing
    // splits fetch groups differently... accesses are per block
    // transition, independent of the cache, so they must be equal.
    EXPECT_EQ(conv.meas.l1iAccesses, dri.meas.l1iAccesses);
}

} // namespace
} // namespace drisim
