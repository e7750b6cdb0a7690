/**
 * @file
 * Harness tests: runner determinism, fast-model calibration,
 * best-case search, table printing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"

namespace drisim
{
namespace
{

RunConfig
quickConfig()
{
    RunConfig c;
    c.maxInstrs = 400 * 1000;
    return c;
}

TEST(Runner, ConventionalRunsAreDeterministic)
{
    const auto &b = findBenchmark("compress");
    const RunConfig cfg = quickConfig();
    const auto r1 = runConventional(b, cfg);
    const auto r2 = runConventional(b, cfg);
    EXPECT_EQ(r1.meas.cycles, r2.meas.cycles);
    EXPECT_EQ(r1.meas.l1iMisses, r2.meas.l1iMisses);
    EXPECT_EQ(r1.meas.l1iAccesses, r2.meas.l1iAccesses);
}

TEST(Runner, ConventionalMeasurementSanity)
{
    const auto &b = findBenchmark("li");
    const auto r = runConventional(b, quickConfig());
    EXPECT_EQ(r.meas.instructions, 400000u);
    EXPECT_GT(r.meas.cycles, 400000u / 8);
    EXPECT_GT(r.meas.l1iAccesses, 0u);
    EXPECT_DOUBLE_EQ(r.meas.avgActiveFraction, 1.0);
    EXPECT_EQ(r.meas.resizingTagBits, 0u);
    EXPECT_GT(r.ipc, 0.5);
    EXPECT_LT(r.ipc, 8.0);
}

TEST(Runner, DriRunPopulatesResizingState)
{
    const auto &b = findBenchmark("compress");
    DriParams dp;
    dp.missBound = 1000;
    dp.sizeBoundBytes = 1024;
    dp.senseInterval = 50000;
    const auto r = runDri(b, quickConfig(), dp);
    EXPECT_EQ(r.meas.resizingTagBits, 6u);
    EXPECT_LE(r.meas.avgActiveFraction, 1.0);
    EXPECT_GT(r.meas.avgActiveFraction, 0.0);
    // compress's tiny loops let it shrink.
    EXPECT_GT(r.resizes, 0u);
}

TEST(Runner, FastCalibrationReproducesDetailedCycles)
{
    const auto &b = findBenchmark("mgrid");
    const RunConfig cfg = quickConfig();
    const auto conv = runConventional(b, cfg);
    const auto cal = calibrateFast(b, cfg, conv);
    const auto fast = runConventionalFast(b, cfg, cal);
    const double err =
        std::abs(static_cast<double>(fast.meas.cycles) -
                 static_cast<double>(conv.meas.cycles)) /
        static_cast<double>(conv.meas.cycles);
    EXPECT_LT(err, 0.02);
    // Cache behaviour is exact, not approximated.
    EXPECT_EQ(fast.meas.l1iMisses, conv.meas.l1iMisses);
}

TEST(Runner, DefaultRunInstrsHonoursScaleEnv)
{
    unsetenv("DRISIM_SCALE");
    EXPECT_EQ(defaultRunInstrs(), 10u * 1000 * 1000);
    setenv("DRISIM_SCALE", "0.5", 1);
    EXPECT_EQ(defaultRunInstrs(), 5u * 1000 * 1000);
    setenv("DRISIM_SCALE", "bogus", 1);
    EXPECT_EQ(defaultRunInstrs(), 10u * 1000 * 1000);
    unsetenv("DRISIM_SCALE");
}

TEST(Runner, SameSpecTwiceSharesOneImage)
{
    const BenchmarkInfo &li = findBenchmark("li");
    const BenchmarkInfo copy = li;
    EXPECT_EQ(&programImageFor(li), &programImageFor(copy));
    EXPECT_EQ(runKeyConventional(li, RunConfig{}).hashHex(),
              runKeyConventional(copy, RunConfig{}).hashHex());
}

TEST(Runner, SecondSpecUnderOneNameThrows)
{
    const BenchmarkInfo &li = findBenchmark("li");
    ASSERT_EQ(li.spec.seed, 103u);
    programImageFor(li);
    BenchmarkInfo other = li;
    other.spec.seed = 999;
    // Images and run keys are keyed on the name: a second spec
    // under it must not silently reuse the first one's image or
    // result-cache entries.
    EXPECT_THROW(programImageFor(other), ProgramSpecCollision);
    EXPECT_THROW(runKeyConventional(other, RunConfig{}),
                 ProgramSpecCollision);
    EXPECT_THROW(runConventional(other, RunConfig{}),
                 ProgramSpecCollision);
}

TEST(Sweep, FindsFeasibleConfigForClass1)
{
    const auto &b = findBenchmark("applu");
    const RunConfig cfg = quickConfig();
    const auto conv = runConventional(b, cfg);

    SearchSpace space;
    space.sizeBounds = {1024, 4096, 65536};
    space.missBoundFactors = {4.0, 32.0};

    DriParams tmpl;
    tmpl.senseInterval = 50000;
    const auto sr = searchBestEnergyDelay(
        b, cfg, tmpl, space, EnergyConstants::paper(), 4.0, conv);

    EXPECT_EQ(sr.evaluated.size(), 6u);
    EXPECT_TRUE(sr.best.feasible);
    EXPECT_LE(sr.best.cmp.slowdownPercent(), 4.0 + 0.5);
    // applu must find substantial savings.
    EXPECT_LT(sr.best.cmp.relativeEnergyDelay(), 0.6);
}

TEST(Sweep, UnconstrainedNeverWorseThanConstrained)
{
    const auto &b = findBenchmark("ijpeg");
    const RunConfig cfg = quickConfig();
    const auto conv = runConventional(b, cfg);

    SearchSpace space;
    space.sizeBounds = {1024, 8192, 65536};
    space.missBoundFactors = {4.0, 64.0};
    DriParams tmpl;
    tmpl.senseInterval = 50000;

    const auto constrained = searchBestEnergyDelay(
        b, cfg, tmpl, space, EnergyConstants::paper(), 4.0, conv);
    const auto unconstrained = searchBestEnergyDelay(
        b, cfg, tmpl, space, EnergyConstants::paper(), -1.0, conv);
    // Compare on the fast-model candidates (shared baseline).
    double best_c = 1e9;
    double best_u = 1e9;
    for (const auto &cand : constrained.evaluated)
        if (cand.feasible)
            best_c =
                std::min(best_c, cand.cmp.relativeEnergyDelay());
    for (const auto &cand : unconstrained.evaluated)
        best_u = std::min(best_u, cand.cmp.relativeEnergyDelay());
    EXPECT_LE(best_u, best_c + 1e-12);
}

TEST(Table, AlignsAndCounts)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, SetRowFillsSlotsInOrderIndependentOfWriteOrder)
{
    Table t({"a", "b"});
    t.reserveRows(3);
    EXPECT_EQ(t.rows(), 3u);
    // Filled out of order — rendered in slot order.
    t.setRow(2, {"3", "z"});
    t.setRow(0, {"1", "x"});
    t.setRow(1, {"2", "y"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,x\n2,y\n3,z\n");
}

TEST(Table, ReserveRowsAppendsToExistingRows)
{
    Table t({"h"});
    t.addRow({"first"});
    t.reserveRows(1);
    t.setRow(1, {"second"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "h\nfirst\nsecond\n");
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtPercent(0.5, 1), "50.0%");
    EXPECT_EQ(asciiBar(0.5, 10), "#####     ");
    EXPECT_EQ(asciiBar(2.0, 4), "####");
    EXPECT_EQ(asciiBar(-1.0, 4), "    ");
}

} // namespace
} // namespace drisim
