/**
 * @file
 * The three workloads: the figure-4 sweep as users run it, the fast
 * grid alone, and the memory system under stores, MSHRs, banked DRAM
 * and coherence.
 */

#include <algorithm>
#include <stdexcept>

#include "bench.hh"
#include "harness/executor.hh"
#include "mem/hierarchy.hh"
#include "system/cmp.hh"
#include "util/bitops.hh"
#include "workload/program.hh"

namespace perfbench
{

namespace
{

/** The paper's performance constraint (Section 5.3). */
constexpr double kMaxSlowdownPct = 4.0;

unsigned
cappedWorkers()
{
    return std::min(hardwareJobCount(), 4u);
}

/** Shared plumbing: config, seeded programs, set-up repetitions. */
class BaseWorkload : public Workload
{
  public:
    BaseWorkload(std::uint64_t seed, const std::vector<std::string> &names)
        : programs_(seededPrograms(names, seed))
    {
        cfg_.maxInstrs = kRunInstrs;
    }

    const RunConfig &config() const override { return cfg_; }
    const std::vector<BenchmarkInfo> &programs() const override
    {
        return programs_;
    }

    /** The first four programs, multiprogrammed, conventional L1Is. */
    CmpConfig cmpProbe(
        std::vector<const ProgramImage *> &images) const override
    {
        CmpConfig cmp;
        cmp.cores = 4;
        for (unsigned k = 0; k < cmp.cores; ++k) {
            CmpCoreConfig cc;
            cc.bench = programs_[k].name;
            cmp.coreConfigs.push_back(cc);
            images.push_back(&programImageFor(programs_[k]));
        }
        return cmp;
    }

  protected:
    /**
     * Build every program image: into the image cache, or, for a
     * timing repetition, with buildProgram and dropped.
     */
    void buildImages(bool repeat) const
    {
        for (const BenchmarkInfo &b : programs_) {
            if (repeat)
                buildProgram(b.spec);
            else
                programImageFor(b);
        }
    }

    /** One independent operation's outcome. */
    struct Slot
    {
        Checker check{""};
        std::uint64_t digest = 0;
        std::uint64_t instrs = 0;
        /** Cycles of its conventional baseline run (0 = none). */
        Cycles baseCycles = 0;
    };

    /**
     * Run @p n independent operations on @p workers workers and fold
     * them, in index order, into one round. Operation i's baseline
     * cycles land in @p cycles[i] where the vector has that slot.
     */
    RoundResult runOps(unsigned workers, std::size_t n,
                       const std::function<Slot(std::size_t)> &op,
                       std::vector<Cycles> &cycles) const
    {
        std::vector<Slot> slots(n);
        Executor exec(workers);
        exec.forEachIndex(name(), n,
                          [&](std::size_t i, const JobContext &) {
                              slots[i] = op(i);
                          });
        RoundResult rr;
        Digest d;
        for (std::size_t i = 0; i < n; ++i) {
            rr.instrs += slots[i].instrs;
            d.add(slots[i].digest);
            if (i < cycles.size())
                cycles[i] = slots[i].baseCycles;
            rr.ops.record(slots[i].check);
        }
        rr.digest = d.value();
        return rr;
    }

    std::vector<BenchmarkInfo> programs_;
    RunConfig cfg_;
};

// ------------------------------------------------------------------
// figure4_sweep
// ------------------------------------------------------------------

class Figure4Sweep : public BaseWorkload
{
  public:
    explicit Figure4Sweep(std::uint64_t seed)
        : BaseWorkload(seed, paperPrograms()),
          convCycles_(programs_.size(), 0)
    {
        cfg_.jobs = cappedWorkers();
    }

    const char *name() const override { return "figure4_sweep"; }
    unsigned workers() const override { return cfg_.jobs; }

    void setup(bool repeat, OpCount &) override { buildImages(repeat); }

    RoundResult round(const RoundOptions &opts) override
    {
        RunConfig cfg = cfg_;
        cfg.jobs = opts.workers;
        cfg.resultCache = opts.resultCache;
        const EnergyConstants constants = EnergyConstants::paper();
        Executor exec(opts.workers);
        RoundResult rr;
        Digest d;
        for (std::size_t i = 0; i < programs_.size(); ++i) {
            const BenchmarkInfo &b = programs_[i];
            Checker c(std::string(name()) + "/" + b.name);

            const RunOutput conv = runConventional(b, cfg);
            const SearchResult sr = searchBestEnergyDelay(
                b, cfg, tmpl_, SearchSpace{}, constants,
                kMaxSlowdownPct, conv);
            std::vector<DriParams> variants;
            for (const double f : {0.5, 2.0}) {
                DriParams p = sr.best.dri;
                p.missBound = std::max<std::uint64_t>(
                    1, static_cast<std::uint64_t>(
                           f * static_cast<double>(p.missBound)));
                variants.push_back(p);
            }
            const std::vector<ComparisonResult> batch =
                evaluateDetailedBatch(b, cfg, variants, constants,
                                      conv, &exec);

            checkBudget(c, conv.meas, cfg.maxInstrs, "conventional");
            c.expect(sr.evaluated.size() == 28, "28 fast grid cells");
            for (const SearchCandidate &cand : sr.evaluated) {
                checkComparison(c, cand.cmp, "fast cell");
                checkBudget(c, cand.cmp.driRun, cfg.maxInstrs,
                            "fast cell");
                c.expect(cand.cmp.driRun.resizingTagBits ==
                             exactLog2(tmpl_.sizeBytes /
                                       cand.dri.sizeBoundBytes),
                         "resizing tag bits are log2(size/bound)");
            }
            checkSearchWinner(c, sr, tmpl_, kMaxSlowdownPct);
            checkComparison(c, sr.best.cmp, "detailed winner");
            checkBudget(c, sr.best.cmp.driRun, cfg.maxInstrs, "winner");
            for (const ComparisonResult &r : batch) {
                checkComparison(c, r, "miss-bound variant");
                checkBudget(c, r.driRun, cfg.maxInstrs, "variant");
                c.expect(r.convRun.cycles == conv.meas.cycles,
                         "variant compared against the baseline");
            }

            d.add(conv);
            for (const SearchCandidate &cand : sr.evaluated) {
                d.add(cand.cmp.driRun);
                d.add(cand.cmp.convRun);
            }
            d.add(sr.best.dri.sizeBoundBytes);
            d.add(sr.best.dri.missBound);
            d.add(sr.best.cmp.driRun);
            for (const ComparisonResult &r : batch)
                d.add(r.driRun);

            // Detailed: conventional, winner, two variants. Fast:
            // calibration, conventional baseline, 28 cells.
            rr.instrs += conv.meas.instructions +
                         sr.best.cmp.driRun.instructions +
                         cfg.maxInstrs +
                         sr.evaluated.front().cmp.convRun.instructions;
            for (const SearchCandidate &cand : sr.evaluated)
                rr.instrs += cand.cmp.driRun.instructions;
            for (const ComparisonResult &r : batch)
                rr.instrs += r.driRun.instructions;
            convCycles_[i] = conv.meas.cycles;
            rr.ops.record(c);
        }
        rr.digest = d.value();
        return rr;
    }

    StreamRefs refs(std::size_t i) const override
    {
        StreamRefs r;
        r.convDetailedCycles = convCycles_[i];
        return r;
    }

    std::vector<sim::ConfigKey> cachedKeys() const override
    {
        std::vector<sim::ConfigKey> keys;
        for (const BenchmarkInfo &b : programs_)
            keys.push_back(runKeyConventional(b, cfg_));
        return keys;
    }

  private:
    DriParams tmpl_{};
    std::vector<Cycles> convCycles_;
};

// ------------------------------------------------------------------
// fast_grid
// ------------------------------------------------------------------

class FastGrid : public BaseWorkload
{
  public:
    explicit FastGrid(std::uint64_t seed)
        : BaseWorkload(seed, paperPrograms()),
          conv_(programs_.size()), cal_(programs_.size()),
          fastCycles_(programs_.size(), 0)
    {
        cfg_.jobs = 1;
    }

    const char *name() const override { return "fast_grid"; }
    unsigned workers() const override { return 1; }

    /** Images plus each program's calibration (a detailed
     *  conventional run and calibrateFast). */
    void setup(bool repeat, OpCount &ops) override
    {
        buildImages(repeat);
        for (std::size_t i = 0; i < programs_.size(); ++i) {
            Checker c(std::string(name()) + "/setup/" + programs_[i].name);
            const RunOutput conv = runConventional(programs_[i], cfg_);
            const FastCalibration cal =
                calibrateFast(programs_[i], cfg_, conv);
            checkBudget(c, conv.meas, cfg_.maxInstrs, "calibration run");
            if (repeat) {
                c.expect(conv.meas.cycles == conv_[i].meas.cycles &&
                             cal.baseCpi == cal_[i].baseCpi &&
                             cal.missOverlap == cal_[i].missOverlap,
                         "calibration repeats exactly");
            } else {
                conv_[i] = conv;
                cal_[i] = cal;
            }
            ops.record(c);
        }
    }

    RoundResult round(const RoundOptions &opts) override
    {
        RunConfig cfg = cfg_;
        cfg.resultCache = opts.resultCache;
        return runOps(
            opts.workers, programs_.size(),
            [&](std::size_t i) { return runProgram(i, cfg); },
            fastCycles_);
    }

    StreamRefs refs(std::size_t i) const override
    {
        StreamRefs r;
        r.convDetailedCycles = conv_[i].meas.cycles;
        r.convFastCycles = fastCycles_[i];
        r.cal = cal_[i];
        return r;
    }

    std::vector<sim::ConfigKey> cachedKeys() const override
    {
        std::vector<sim::ConfigKey> keys;
        for (std::size_t i = 0; i < programs_.size(); ++i)
            keys.push_back(
                runKeyConventionalFast(programs_[i], cfg_, cal_[i]));
        return keys;
    }

  private:
    Slot runProgram(std::size_t i, const RunConfig &cfg) const
    {
        const BenchmarkInfo &b = programs_[i];
        const FastCalibration &cal = cal_[i];
        const EnergyConstants constants = EnergyConstants::paper();
        Slot s;
        s.check = Checker(std::string(name()) + "/" + b.name);
        Checker &c = s.check;
        Digest d;

        const RunOutput cf = runConventionalFast(b, cfg, cal);
        checkBudget(c, cf.meas, cfg.maxInstrs, "fast conventional");
        d.add(cf);
        s.instrs += cf.meas.instructions;
        s.baseCycles = cf.meas.cycles;

        // The paper's grid, as searchBestEnergyDelay builds it.
        const DriParams tmpl{};
        const SearchSpace space;
        const double intervals =
            static_cast<double>(cfg.maxInstrs) /
            static_cast<double>(tmpl.senseInterval);
        const double mpi =
            static_cast<double>(cf.meas.l1iMisses) / intervals;
        unsigned cells = 0;
        for (const std::uint64_t sb : space.sizeBounds) {
            if (sb > tmpl.sizeBytes ||
                sb < static_cast<std::uint64_t>(tmpl.blockBytes) *
                         tmpl.assoc)
                continue;
            for (const double f : space.missBoundFactors) {
                DriParams p = tmpl;
                p.sizeBoundBytes = sb;
                p.missBound = std::max<std::uint64_t>(
                    space.missBoundFloor,
                    static_cast<std::uint64_t>(f * mpi));
                const RunOutput o = runDriFast(b, cfg, p, cal);
                const ComparisonResult r =
                    compareRuns(constants, cf.meas, o.meas);
                checkComparison(c, r, "grid cell");
                checkBudget(c, o.meas, cfg.maxInstrs, "grid cell");
                c.expect(o.meas.resizingTagBits ==
                             exactLog2(tmpl.sizeBytes / sb),
                         "resizing tag bits are log2(size/bound)");
                d.add(o);
                s.instrs += o.meas.instructions;
                ++cells;
            }
        }
        c.expect(cells == 28, "28 grid cells");

        for (const PolicyConfig &pc : policies()) {
            const RunOutput o = runPolicyFast(b, cfg, pc, cal);
            const std::string what =
                std::string(policyKindName(pc.kind)) + " " +
                pc.paramSummary();
            checkBudget(c, o.meas, cfg.maxInstrs, what);
            const double active = o.meas.avgActiveFraction;
            const double drowsy = o.l1DrowsyFraction;
            c.expect(active >= 0.0 && drowsy >= 0.0 &&
                         active + drowsy <= 1.0 + 1e-9,
                     what + ": power-state fractions in [0, 1]");
            if (pc.kind == PolicyKind::StaticWays)
                c.expect(std::abs(active -
                                  static_cast<double>(
                                      pc.ways.activeWays) /
                                      pc.dri.assoc) < 1e-9,
                         what + ": active fraction is ways/assoc");
            d.add(o);
            s.instrs += o.meas.instructions;
        }
        s.digest = d.value();
        return s;
    }

    /** Decay, drowsy and static-ways at two settings each. */
    static std::vector<PolicyConfig> policies()
    {
        std::vector<PolicyConfig> out;
        for (const InstCount interval : {50 * 1000, 100 * 1000}) {
            PolicyConfig decay;
            decay.kind = PolicyKind::Decay;
            decay.decay.decayInterval = interval;
            out.push_back(decay);
            PolicyConfig drowsy;
            drowsy.kind = PolicyKind::Drowsy;
            drowsy.drowsy.drowsyInterval = interval;
            out.push_back(drowsy);
        }
        for (const unsigned ways : {1u, 2u}) {
            PolicyConfig w;
            w.kind = PolicyKind::StaticWays;
            w.dri.assoc = 4;
            w.ways.activeWays = ways;
            out.push_back(w);
        }
        return out;
    }

    std::vector<RunOutput> conv_;
    std::vector<FastCalibration> cal_;
    std::vector<Cycles> fastCycles_;
};

// ------------------------------------------------------------------
// memory_system
// ------------------------------------------------------------------

/** Large-footprint class-2/3 programs, then the class-4 sharers. */
const std::vector<std::string> &
memoryPrograms()
{
    static const std::vector<std::string> names{
        "gcc", "tomcatv", "fpppp", "go",
        "shared_image", "producer", "consumer"};
    return names;
}
constexpr std::size_t kSingleCorePrograms = 4;

class MemorySystem : public BaseWorkload
{
  public:
    explicit MemorySystem(std::uint64_t seed)
        : BaseWorkload(seed, memoryPrograms()),
          convCycles_(programs_.size(), 0)
    {
        // The --dram-banked memory system, with a DRI L2.
        cfg_.jobs = 1;
        cfg_.hier.dram.banked = true;
        cfg_.hier.l1i.mshrs = 4;
        cfg_.hier.l1d.mshrs = 4;
        cfg_.hier.l2.mshrs = 8;
        cfg_.hier.l2Dri = true;
        l1Policy_.dri = driParamsForLevel(cfg_.hier.l1i, DriParams{});
        l1Policy_.dri.mshrs = 4;
    }

    const char *name() const override { return "memory_system"; }
    unsigned workers() const override { return 1; }

    void setup(bool repeat, OpCount &) override { buildImages(repeat); }

    RoundResult round(const RoundOptions &opts) override
    {
        RunConfig cfg = cfg_;
        cfg.resultCache = opts.resultCache;
        return runOps(
            opts.workers, kSingleCorePrograms + 4,
            [&](std::size_t i) {
                return i < kSingleCorePrograms
                           ? runProgram(i, cfg)
                           : runMix(i - kSingleCorePrograms, cfg);
            },
            convCycles_);
    }

    StreamRefs refs(std::size_t i) const override
    {
        StreamRefs r;
        r.convDetailedCycles = convCycles_[i];
        return r;
    }

    std::vector<sim::ConfigKey> cachedKeys() const override
    {
        std::vector<sim::ConfigKey> keys;
        for (std::size_t i = 0; i < kSingleCorePrograms; ++i)
            keys.push_back(runKeyConventional(programs_[i], cfg_));
        return keys;
    }

    /** The shared_image x4 mix with drowsy and decay L1Is. */
    CmpConfig cmpProbe(
        std::vector<const ProgramImage *> &images) const override
    {
        return mix(0, images);
    }

  private:
    Slot runProgram(std::size_t i, const RunConfig &cfg) const
    {
        const BenchmarkInfo &b = programs_[i];
        Slot s;
        s.check = Checker(std::string(name()) + "/" + b.name);
        Checker &c = s.check;
        Digest d;
        const RunOutput conv = runConventional(b, cfg);
        checkBudget(c, conv.meas, cfg.maxInstrs, "conventional");
        c.expect(conv.l2SizeBytes == cfg.hier.l2.sizeBytes &&
                     conv.l2AvgActiveFraction > 0.0 &&
                     conv.l2AvgActiveFraction <= 1.0,
                 "DRI L2 active fraction in (0, 1]");
        c.expect(conv.memReads + conv.memWritebacks == conv.memAccesses,
                 "memory traffic splits into reads and writebacks");
        c.expect(conv.dramRowHits + conv.dramRowMisses > 0,
                 "banked DRAM served the misses");
        d.add(conv);
        s.instrs += conv.meas.instructions;
        s.baseCycles = conv.meas.cycles;
        for (const PolicyKind kind :
             {PolicyKind::Drowsy, PolicyKind::Decay}) {
            PolicyConfig pc = l1Policy_;
            pc.kind = kind;
            const RunOutput o = runPolicy(b, cfg, pc);
            const std::string what = policyKindName(kind);
            checkBudget(c, o.meas, cfg.maxInstrs, what);
            c.expect(o.meas.avgActiveFraction >= 0.0 &&
                         o.l1DrowsyFraction >= 0.0 &&
                         o.meas.avgActiveFraction + o.l1DrowsyFraction <=
                             1.0 + 1e-9,
                     what + ": power-state fractions in [0, 1]");
            d.add(o);
            s.instrs += o.meas.instructions;
        }
        s.digest = d.value();
        return s;
    }

    /**
     * Mix @p m: 0/1 = shared_image x4 with policy / conventional
     * L1Is, 2/3 = producer+consumer x2 likewise. Policy mixes
     * alternate drowsy and decay L1Is across cores.
     */
    CmpConfig mix(std::size_t m,
                  std::vector<const ProgramImage *> &images) const
    {
        const bool policy = m % 2 == 0;
        const bool pairs = m >= 2;
        CmpConfig cmp;
        cmp.cores = 4;
        cmp.coherence.enabled = true;
        for (unsigned k = 0; k < cmp.cores; ++k) {
            const BenchmarkInfo &b =
                programs_[pairs ? kSingleCorePrograms + 1 + k % 2
                                : kSingleCorePrograms];
            CmpCoreConfig cc;
            cc.bench = b.name;
            if (policy) {
                cc.dri = true;
                cc.policyKind =
                    k % 2 == 0 ? PolicyKind::Drowsy : PolicyKind::Decay;
                cc.driParams = l1Policy_.dri;
            }
            cmp.coreConfigs.push_back(cc);
            images.push_back(&programImageFor(b));
        }
        return cmp;
    }

    Slot runMix(std::size_t m, const RunConfig &cfg) const
    {
        std::vector<const ProgramImage *> images;
        const CmpConfig cmp = mix(m, images);
        // CmpSystem directly: runCmp resolves core programs by suite
        // name and so cannot run re-seeded specs.
        stats::StatGroup root("cmp");
        CmpSystem sys(cmp, cfg.hier, cfg.core, images, &root);
        CmpRunOutput out = sys.run(cfg.maxInstrs);

        Slot s;
        s.check = Checker(std::string(name()) + "/mix" +
                          std::to_string(m));
        Checker &c = s.check;
        checkCmp(c, out, cfg.maxInstrs);
        c.expect(out.coherenceInvalidations > 0,
                 "sharing mix produced invalidations");
        Digest d;
        for (const CmpCoreOutput &k : out.cores) {
            d.add(k.meas);
            d.add(k.l2Accesses);
            d.add(k.l2Misses);
            d.add(k.coherenceInvalidationsReceived);
            d.add(k.coherenceInvalidationsCaused);
            d.add(k.coherenceDowngrades);
            d.add(k.wakeTransitions);
            d.add(k.l1DrowsyFraction);
            s.instrs += k.meas.instructions;
        }
        d.add(static_cast<std::uint64_t>(out.systemCycles));
        d.add(out.mshrCoalesced);
        d.add(out.dramRowHits);
        d.add(out.coherenceMsgCycles);
        s.digest = d.value();
        return s;
    }

    PolicyConfig l1Policy_;
    std::vector<Cycles> convCycles_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "figure4_sweep", "fast_grid", "memory_system"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "figure4_sweep")
        return std::make_unique<Figure4Sweep>(seed);
    if (name == "fast_grid")
        return std::make_unique<FastGrid>(seed);
    if (name == "memory_system")
        return std::make_unique<MemorySystem>(seed);
    return nullptr;
}

} // namespace perfbench
