/**
 * @file
 * Synthetic SPEC95 suite tests: the 15 paper benchmarks plus the
 * class-4 sharing workloads exist, class properties hold, images
 * build with the right footprints.
 */

#include <gtest/gtest.h>

#include <set>

#include "workload/generator.hh"
#include "workload/spec_suite.hh"

namespace drisim
{
namespace
{

TEST(SpecSuite, PaperBenchmarksThenSharingWorkloadsInOrder)
{
    const auto &suite = specSuite();
    ASSERT_EQ(suite.size(), 18u);
    const std::vector<std::string> expected = {
        "applu", "compress", "li", "mgrid", "swim",
        "apsi", "fpppp", "go", "m88ksim", "perl",
        "gcc", "hydro2d", "ijpeg", "su2cor", "tomcatv",
        "shared_image", "producer", "consumer"};
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(suite[i].name, expected[i]);
}

TEST(SpecSuite, PaperSuiteIsTheFifteenPaperBenchmarks)
{
    const auto &suite = specSuite();
    const auto &paper = paperSuite();
    ASSERT_EQ(paper.size(), 15u);
    for (size_t i = 0; i < paper.size(); ++i) {
        EXPECT_EQ(paper[i].name, suite[i].name);
        EXPECT_LE(paper[i].benchClass, 3) << paper[i].name;
    }
}

TEST(SpecSuite, ClassAssignmentsMatchSection53)
{
    const std::set<std::string> class1 = {"applu", "compress", "li",
                                          "mgrid", "swim"};
    const std::set<std::string> class2 = {"apsi", "fpppp", "go",
                                          "m88ksim", "perl"};
    const std::set<std::string> class4 = {"shared_image", "producer",
                                          "consumer"};
    for (const auto &b : specSuite()) {
        if (class1.count(b.name))
            EXPECT_EQ(b.benchClass, 1) << b.name;
        else if (class2.count(b.name))
            EXPECT_EQ(b.benchClass, 2) << b.name;
        else if (class4.count(b.name))
            EXPECT_EQ(b.benchClass, 4) << b.name;
        else
            EXPECT_EQ(b.benchClass, 3) << b.name;
    }
}

TEST(SpecSuite, SeedsAreUnique)
{
    std::set<std::uint64_t> seeds;
    for (const auto &b : specSuite())
        EXPECT_TRUE(seeds.insert(b.spec.seed).second) << b.name;
}

TEST(SpecSuite, Class1HasSmallMainFootprint)
{
    for (const auto &b : specSuite()) {
        if (b.benchClass != 1)
            continue;
        // The dominant (longest) phase must have a small footprint.
        const PhaseSpec *longest = &b.spec.phases[0];
        for (const auto &p : b.spec.phases)
            if (p.dynInstrs > longest->dynInstrs)
                longest = &p;
        EXPECT_LE(longest->codeBytes, 4u * 1024) << b.name;
    }
}

TEST(SpecSuite, Class2HasLargeFootprint)
{
    for (const auto &b : specSuite()) {
        if (b.benchClass != 2)
            continue;
        std::uint64_t max_code = 0;
        for (const auto &p : b.spec.phases)
            max_code = std::max(max_code, p.codeBytes);
        EXPECT_GE(max_code, 20u * 1024) << b.name;
    }
}

TEST(SpecSuite, Class3HasMultiplePhases)
{
    for (const auto &b : specSuite()) {
        if (b.benchClass != 3)
            continue;
        EXPECT_GE(b.spec.phases.size(), 2u) << b.name;
    }
}

TEST(SpecSuite, FppppNearlyFillsTheCache)
{
    const auto &fpppp = findBenchmark("fpppp");
    EXPECT_GE(fpppp.spec.phases[0].codeBytes, 56u * 1024);
    EXPECT_LE(fpppp.spec.phases[0].codeBytes, 64u * 1024);
}

TEST(SpecSuite, ConflictBenchmarksUseBanks)
{
    // Figure 6's conflict set: gcc, go, hydro2d, su2cor, swim,
    // tomcatv place code in 64 KB-strided banks.
    for (const char *name :
         {"gcc", "go", "hydro2d", "su2cor", "swim", "tomcatv"}) {
        const auto &b = findBenchmark(name);
        bool banked = false;
        for (const auto &p : b.spec.phases)
            banked |= p.conflictBanks > 1;
        EXPECT_TRUE(banked) << name;
    }
}

TEST(SpecSuite, AllImagesBuildWithSaneFootprints)
{
    for (const auto &b : specSuite()) {
        const ProgramImage img = buildProgram(b.spec);
        ASSERT_EQ(img.phases.size(), b.spec.phases.size()) << b.name;
        for (size_t p = 0; p < img.phases.size(); ++p) {
            const double actual =
                static_cast<double>(img.phaseCodeBytes(p));
            const double target =
                static_cast<double>(b.spec.phases[p].codeBytes);
            EXPECT_NEAR(actual / target, 1.0, 0.2)
                << b.name << " phase " << p;
        }
    }
}

TEST(SpecSuite, AllStreamsGenerate)
{
    for (const auto &b : specSuite()) {
        const ProgramImage img = buildProgram(b.spec);
        TraceGenerator gen(img);
        Instr ins;
        for (int i = 0; i < 2000; ++i)
            ASSERT_TRUE(gen.next(ins)) << b.name;
    }
}

TEST(SpecSuite, SharingWorkloadsShareOneWindowOthersNone)
{
    // Class-4 benchmarks draw part of their data stream from one
    // cross-core shared window (same base on every core); every
    // paper benchmark keeps sharedBytes == 0, which also pins the
    // generator's sharing-free RNG sequence (workload/generator.cc).
    for (const auto &b : specSuite()) {
        bool shares = false;
        for (const auto &p : b.spec.phases) {
            if (p.sharedBytes == 0)
                continue;
            shares = true;
            EXPECT_GT(p.sharedFraction, 0.0) << b.name;
            EXPECT_LT(p.sharedFraction, 1.0) << b.name;
            EXPECT_EQ(p.sharedBase, 0x2000'0000u) << b.name;
        }
        EXPECT_EQ(shares, b.benchClass == 4) << b.name;
    }
}

TEST(SpecSuite, FindBenchmarkDiesOnUnknown)
{
    EXPECT_DEATH(
        { findBenchmark("doom"); }, "");
}

} // namespace
} // namespace drisim
