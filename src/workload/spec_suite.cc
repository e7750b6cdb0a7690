/**
 * @file
 * The fifteen synthetic SPEC95 benchmark specs and their classes,
 * plus the class-4 sharing workloads that drive the CMP coherence
 * protocol (shared_image, producer, consumer).
 */

#include "workload/spec_suite.hh"

#include "util/logging.hh"

namespace drisim
{

namespace
{

constexpr std::uint64_t kKiB = 1024;
constexpr InstCount kM = 1000 * 1000;
constexpr InstCount kK = 1000;

PhaseSpec
phase(const std::string &name, std::uint64_t codeBytes,
      InstCount dynInstrs)
{
    PhaseSpec p;
    p.name = name;
    p.codeBytes = codeBytes;
    p.dynInstrs = dynInstrs;
    return p;
}

OpMix
fpMix(double fp)
{
    OpMix m;
    m.loadFrac = 0.24;
    m.storeFrac = 0.08;
    m.fpFrac = fp;
    m.mulFrac = 0.02;
    return m;
}

OpMix
intMix()
{
    OpMix m;
    m.loadFrac = 0.22;
    m.storeFrac = 0.11;
    m.fpFrac = 0.0;
    m.mulFrac = 0.03;
    return m;
}

std::vector<BenchmarkInfo>
buildSuite()
{
    std::vector<BenchmarkInfo> suite;

    auto add = [&](const std::string &name, int cls,
                   std::uint64_t seed,
                   std::vector<PhaseSpec> phases) {
        BenchmarkInfo info;
        info.name = name;
        info.benchClass = cls;
        info.spec.name = name;
        info.spec.seed = seed;
        info.spec.phases = std::move(phases);
        suite.push_back(std::move(info));
    };

    // ----- Class 1: small working sets in tight loops -------------
    {
        PhaseSpec init = phase("init", 24 * kKiB, 200 * kK);
        init.mix = fpMix(0.15);
        PhaseSpec main = phase("main", 2 * kKiB, 9800 * kK);
        main.mix = fpMix(0.30);
        main.meanInnerTrips = 24;
        main.dataBytes = 512 * kKiB;
        add("applu", 1, 101, {init, main});
    }
    {
        PhaseSpec init = phase("init", 16 * kKiB, 150 * kK);
        init.mix = intMix();
        PhaseSpec main = phase("main", 3 * kKiB, 9850 * kK);
        main.mix = intMix();
        main.meanInnerTrips = 20;
        main.dataBytes = 256 * kKiB;
        add("compress", 1, 102, {init, main});
    }
    {
        PhaseSpec init = phase("init", 16 * kKiB, 150 * kK);
        init.mix = intMix();
        PhaseSpec main = phase("main", 2 * kKiB, 9850 * kK);
        main.mix = intMix();
        main.callIrregularity = 0.5;
        main.meanInnerTrips = 12;
        main.dataBytes = 64 * kKiB;
        add("li", 1, 103, {init, main});
    }
    {
        PhaseSpec init = phase("init", 20 * kKiB, 150 * kK);
        init.mix = fpMix(0.2);
        PhaseSpec main = phase("main", 3 * kKiB / 2, 9850 * kK);
        main.mix = fpMix(0.35);
        main.meanInnerTrips = 32;
        main.dataBytes = 1024 * kKiB;
        add("mgrid", 1, 104, {init, main});
    }
    {
        // swim: tiny loops, but hot code split across two banks
        // 64 KB apart -> direct-mapped conflict misses (Figure 6).
        PhaseSpec init = phase("init", 20 * kKiB, 150 * kK);
        init.mix = fpMix(0.2);
        PhaseSpec main = phase("main", 5 * kKiB / 2, 9850 * kK);
        main.mix = fpMix(0.30);
        main.meanInnerTrips = 28;
        main.conflictBanks = 2;
        main.dataBytes = 1024 * kKiB;
        add("swim", 1, 105, {init, main});
    }

    // ----- Class 2: large working sets throughout -----------------
    {
        PhaseSpec main = phase("main", 20 * kKiB, 10 * kM);
        main.mix = fpMix(0.25);
        main.meanInnerTrips = 10;
        main.dataBytes = 512 * kKiB;
        add("apsi", 2, 201, {main});
    }
    {
        // fpppp: needs the whole 64 KB; long straight-line blocks.
        PhaseSpec main = phase("main", 60 * kKiB, 10 * kM);
        main.mix = fpMix(0.35);
        main.avgBlockInstrs = 20;
        main.meanInnerTrips = 6;
        main.dataBytes = 256 * kKiB;
        add("fpppp", 2, 202, {main});
    }
    {
        // go: big, irregular, poorly predictable, conflict-prone.
        PhaseSpec main = phase("main", 54 * kKiB, 10 * kM);
        main.mix = intMix();
        main.branchBias = 0.62;
        main.callIrregularity = 1.0;
        main.meanInnerTrips = 12;
        main.conflictBanks = 2;
        main.conflictFraction = 0.12;
        main.minFnInstrs = 256;
        main.maxFnInstrs = 768;
        main.dataBytes = 128 * kKiB;
        add("go", 2, 203, {main});
    }
    {
        PhaseSpec main = phase("main", 24 * kKiB, 10 * kM);
        main.mix = intMix();
        main.meanInnerTrips = 10;
        main.dataBytes = 128 * kKiB;
        add("m88ksim", 2, 204, {main});
    }
    {
        PhaseSpec main = phase("main", 32 * kKiB, 10 * kM);
        main.mix = intMix();
        main.callIrregularity = 0.8;
        main.meanInnerTrips = 8;
        main.dataBytes = 192 * kKiB;
        add("perl", 2, 205, {main});
    }

    // ----- Class 3: distinct phases --------------------------------
    {
        // gcc: many phases, murky boundaries, conflict-prone.
        PhaseSpec p0 = phase("parse", 48 * kKiB, 1500 * kK);
        p0.mix = intMix();
        p0.callIrregularity = 0.8;
        p0.branchBias = 0.75;
        p0.conflictBanks = 2;
        p0.conflictFraction = 0.08;
        p0.minFnInstrs = 192;
        p0.maxFnInstrs = 640;
        p0.meanInnerTrips = 16;
        PhaseSpec p1 = phase("expand", 28 * kKiB, 1000 * kK);
        p1.mix = intMix();
        PhaseSpec p2 = phase("optimize", 56 * kKiB, 1500 * kK);
        p2.mix = intMix();
        p2.callIrregularity = 0.8;
        p2.conflictBanks = 2;
        p2.conflictFraction = 0.08;
        p2.minFnInstrs = 192;
        p2.maxFnInstrs = 640;
        p2.meanInnerTrips = 16;
        PhaseSpec p3 = phase("regalloc", 20 * kKiB, 800 * kK);
        p3.mix = intMix();
        PhaseSpec p4 = phase("emit", 36 * kKiB, 1200 * kK);
        p4.mix = intMix();
        p4.callIrregularity = 0.6;
        add("gcc", 3, 301, {p0, p1, p2, p3, p4});
    }
    {
        // hydro2d: full-size init, then tiny loops (clear phases).
        PhaseSpec init = phase("init", 48 * kKiB, 1200 * kK);
        init.mix = fpMix(0.2);
        PhaseSpec main = phase("main", 2 * kKiB, 8800 * kK);
        main.mix = fpMix(0.35);
        main.meanInnerTrips = 24;
        main.conflictBanks = 2;
        main.dataBytes = 1024 * kKiB;
        add("hydro2d", 3, 302, {init, main});
    }
    {
        PhaseSpec init = phase("init", 32 * kKiB, 1000 * kK);
        init.mix = intMix();
        PhaseSpec main = phase("main", 2 * kKiB, 9000 * kK);
        main.mix = intMix();
        main.meanInnerTrips = 28;
        main.dataBytes = 512 * kKiB;
        add("ijpeg", 3, 303, {init, main});
    }
    {
        PhaseSpec p0 = phase("sweep", 32 * kKiB, 1500 * kK);
        p0.mix = fpMix(0.3);
        p0.conflictBanks = 2;
        p0.conflictFraction = 0.15;
        p0.minFnInstrs = 192;
        p0.maxFnInstrs = 512;
        p0.meanInnerTrips = 12;
        PhaseSpec p1 = phase("update", 6 * kKiB, 1500 * kK);
        p1.mix = fpMix(0.3);
        PhaseSpec p2 = phase("measure", 24 * kKiB, 1500 * kK);
        p2.mix = fpMix(0.25);
        PhaseSpec p3 = phase("adjust", 4 * kKiB, 1500 * kK);
        p3.mix = fpMix(0.3);
        add("su2cor", 3, 304, {p0, p1, p2, p3});
    }
    {
        // tomcatv: short phases, boundaries hard to track.
        PhaseSpec p0 = phase("mesh", 36 * kKiB, 1000 * kK);
        p0.mix = fpMix(0.3);
        p0.conflictBanks = 2;
        p0.conflictFraction = 0.12;
        p0.minFnInstrs = 192;
        p0.maxFnInstrs = 512;
        p0.meanInnerTrips = 14;
        PhaseSpec p1 = phase("residual", 16 * kKiB, 750 * kK);
        p1.mix = fpMix(0.3);
        p1.meanInnerTrips = 14;
        PhaseSpec p2 = phase("solve", 28 * kKiB, 750 * kK);
        p2.mix = fpMix(0.3);
        p2.conflictBanks = 2;
        p2.conflictFraction = 0.12;
        p2.meanInnerTrips = 14;
        PhaseSpec p3 = phase("smooth", 12 * kKiB, 600 * kK);
        p3.mix = fpMix(0.3);
        add("tomcatv", 3, 305, {p0, p1, p2, p3});
    }

    // ----- Class 4: cross-core sharing (coherence workloads) -------
    // Every core of a CMP runs the same image, so a phase's shared
    // window is genuinely common: stores from one core invalidate
    // (or downgrade) the copies the others cached. Appended after
    // the classic fifteen so all existing mixes and indices are
    // unchanged.
    {
        // shared_image: all cores read and moderately update one
        // shared image (read-mostly sharing, invalidations from the
        // update stores).
        PhaseSpec main = phase("main", 8 * kKiB, 10 * kM);
        main.mix = intMix();
        main.meanInnerTrips = 16;
        main.dataBytes = 64 * kKiB;
        main.sharedBytes = 64 * kKiB;
        main.sharedFraction = 0.4;
        add("shared_image", 4, 401, {main});
    }
    {
        // producer: store-heavy walker over a small shared buffer —
        // the invalidation source in producer/consumer pairs.
        PhaseSpec main = phase("main", 6 * kKiB, 10 * kM);
        OpMix m = intMix();
        m.storeFrac = 0.24;
        m.loadFrac = 0.14;
        main.mix = m;
        main.meanInnerTrips = 12;
        main.dataBytes = 32 * kKiB;
        main.sharedBytes = 32 * kKiB;
        main.sharedFraction = 0.5;
        add("producer", 4, 402, {main});
    }
    {
        // consumer: load-heavy walker over the same shared buffer —
        // refetches what the producer keeps invalidating.
        PhaseSpec main = phase("main", 6 * kKiB, 10 * kM);
        OpMix m = intMix();
        m.loadFrac = 0.32;
        m.storeFrac = 0.04;
        main.mix = m;
        main.meanInnerTrips = 12;
        main.dataBytes = 32 * kKiB;
        main.sharedBytes = 32 * kKiB;
        main.sharedFraction = 0.5;
        add("consumer", 4, 403, {main});
    }

    return suite;
}

} // namespace

const std::vector<BenchmarkInfo> &
specSuite()
{
    static const std::vector<BenchmarkInfo> suite = buildSuite();
    return suite;
}

const std::vector<BenchmarkInfo> &
paperSuite()
{
    static const std::vector<BenchmarkInfo> suite = [] {
        std::vector<BenchmarkInfo> paper;
        for (const BenchmarkInfo &b : specSuite())
            if (b.benchClass <= 3)
                paper.push_back(b);
        return paper;
    }();
    return suite;
}

const BenchmarkInfo &
findBenchmark(const std::string &name)
{
    for (const auto &b : specSuite()) {
        if (b.name == name)
            return b;
    }
    drisim_fatal("unknown benchmark '%s'", name.c_str());
}

} // namespace drisim
