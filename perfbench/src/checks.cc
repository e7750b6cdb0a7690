/**
 * @file
 * Independent correctness checks. Nothing here compares against a
 * stored output: each check recomputes a result from its inputs
 * (Section 5.2 energy accounting), runs a reference model written
 * here (LRU), or tests a property the method guarantees (winner
 * selection, instruction budgets, coherence conservation,
 * recorded-vs-live equality).
 */

#include <algorithm>
#include <cmath>
#include <sstream>

#include "cpu/ooo_core.hh"
#include "cpu/simple_core.hh"
#include "harness/sweep.hh"
#include "mem/hierarchy.hh"
#include "streams.hh"
#include "workload/generator.hh"

namespace perfbench
{

namespace
{

/** Section 5.2 constants, as published. */
constexpr double kL1LeakPerCycleNJ = 0.91;     // 64 KB L1, per cycle
constexpr double kL1BaseBytes = 64.0 * 1024.0;
constexpr double kBitlinePerAccessNJ = 0.0022; // per resizing bit
constexpr double kL2PerAccessNJ = 3.6;

/** Fetch-ahead margin past the budget in a recorded stream. */
constexpr InstCount kStreamSlack = 4096;

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

std::string
gotWant(double got, double want)
{
    std::ostringstream os;
    os.precision(17);
    os << "got " << got << ", want " << want;
    return os.str();
}

} // namespace

void
checkComparison(Checker &c, const ComparisonResult &r,
                const std::string &what)
{
    const RunMeasurement &conv = r.convRun;
    const RunMeasurement &dri = r.driRun;
    const double convCycles = static_cast<double>(conv.cycles);
    const double driCycles = static_cast<double>(dri.cycles);

    // Conventional: the full array leaks every cycle.
    const double convLeak = kL1LeakPerCycleNJ *
                            static_cast<double>(conv.l1iBytes) /
                            kL1BaseBytes * convCycles;
    // DRI: leakage scales with the powered fraction; the resizing
    // tag bits add bitline energy per access; misses beyond the
    // conventional cache's add L2 accesses.
    const double driLeak = dri.avgActiveFraction * kL1LeakPerCycleNJ *
                           static_cast<double>(dri.l1iBytes) /
                           kL1BaseBytes * driCycles;
    const double l1Dyn = static_cast<double>(dri.resizingTagBits) *
                         kBitlinePerAccessNJ *
                         static_cast<double>(dri.l1iAccesses);
    const double extraMisses =
        dri.l1iMisses > conv.l1iMisses
            ? static_cast<double>(dri.l1iMisses - conv.l1iMisses)
            : 0.0;
    const double l2Dyn = kL2PerAccessNJ * extraMisses;
    const double convEd = convLeak * convCycles;

    c.expect(convEd > 0.0, what + ": conventional energy-delay > 0");
    if (convEd <= 0.0)
        return;
    const double relEd = (driLeak + l1Dyn + l2Dyn) * driCycles / convEd;
    const double relLeak = driLeak * driCycles / convEd;
    const double relDyn = (l1Dyn + l2Dyn) * driCycles / convEd;
    const double slow = 100.0 * (driCycles / convCycles - 1.0);

    c.expect(near(r.relativeEnergyDelay(), relEd),
             what + ": relative energy-delay " +
                 gotWant(r.relativeEnergyDelay(), relEd));
    c.expect(near(r.relativeEdLeakage(), relLeak),
             what + ": leakage part " +
                 gotWant(r.relativeEdLeakage(), relLeak));
    c.expect(near(r.relativeEdDynamic(), relDyn),
             what + ": dynamic part " +
                 gotWant(r.relativeEdDynamic(), relDyn));
    c.expect(near(r.slowdownPercent(), slow),
             what + ": slowdown " + gotWant(r.slowdownPercent(), slow));
    c.expect(dri.avgActiveFraction > 0.0 &&
                 dri.avgActiveFraction <= 1.0 + 1e-12,
             what + ": active fraction in (0, 1]");
}

void
checkBudget(Checker &c, const RunMeasurement &m, InstCount budget,
            const std::string &what)
{
    c.expect(m.instructions == budget,
             what + ": retired " + std::to_string(m.instructions) +
                 " of " + std::to_string(budget));
}

void
checkSearchWinner(Checker &c, const SearchResult &sr,
                  const DriParams &tmpl, double maxSlowdownPct)
{
    const SearchCandidate *argmin = nullptr;
    for (const SearchCandidate &cand : sr.evaluated) {
        const double slow =
            100.0 * (static_cast<double>(cand.cmp.driRun.cycles) /
                         static_cast<double>(cand.cmp.convRun.cycles) -
                     1.0);
        c.expect(cand.feasible == (slow <= maxSlowdownPct),
                 "cell feasibility matches its slowdown");
        if (slow <= maxSlowdownPct &&
            (!argmin || cand.cmp.relativeEnergyDelay() <
                            argmin->cmp.relativeEnergyDelay()))
            argmin = &cand;
    }
    const DriParams &best = sr.best.dri;
    if (argmin) {
        c.expect(best.sizeBoundBytes == argmin->dri.sizeBoundBytes &&
                     best.missBound == argmin->dri.missBound,
                 "winner is the argmin of the feasible fast cells");
    } else {
        c.expect(best.sizeBoundBytes == tmpl.sizeBytes,
                 "no feasible cell: winner is the full-size fallback");
    }
    c.expect(sr.best.feasible ==
                 (sr.best.cmp.slowdownPercent() <= maxSlowdownPct),
             "detailed winner's feasibility matches its slowdown " +
                 std::to_string(sr.best.cmp.slowdownPercent()) + "%");
    c.expect(sr.best.cmp.convRun.cycles == sr.convDetailed.meas.cycles,
             "winner is compared against the detailed baseline");
}

void
checkCmp(Checker &c, const CmpRunOutput &out, InstCount budget)
{
    std::uint64_t received = 0, caused = 0, l2a = 0, l2m = 0;
    Cycles slowest = 0;
    for (const CmpCoreOutput &k : out.cores) {
        checkBudget(c, k.meas, budget, "core " + k.bench);
        received += k.coherenceInvalidationsReceived;
        caused += k.coherenceInvalidationsCaused;
        l2a += k.l2Accesses;
        l2m += k.l2Misses;
        slowest = std::max(slowest, k.meas.cycles);
    }
    c.expect(received == caused,
             "invalidations received " + std::to_string(received) +
                 " == caused " + std::to_string(caused));
    c.expect(l2a == out.l2Accesses, "per-core L2 accesses sum to total");
    c.expect(l2m == out.l2Misses, "per-core L2 misses sum to total");
    c.expect(slowest == out.systemCycles,
             "system time is the slowest core's clock");
}

// ------------------------------------------------------------------
// Reference LRU and stream checks
// ------------------------------------------------------------------

ReferenceLru::ReferenceLru(const CacheParams &p)
    : blockBytes_(p.blockBytes), assoc_(p.assoc),
      sets_(p.sizeBytes / (static_cast<std::uint64_t>(p.blockBytes) *
                           p.assoc))
{
}

bool
ReferenceLru::access(Addr addr)
{
    const Addr block = addr / blockBytes_;
    std::list<Addr> &set = sets_[block % sets_.size()];
    const auto it = std::find(set.begin(), set.end(), block);
    if (it != set.end()) {
        set.splice(set.begin(), set, it);
        return true;
    }
    set.push_front(block);
    if (set.size() > assoc_)
        set.pop_back();
    return false;
}

void
ReferenceLru::clear()
{
    for (std::list<Addr> &set : sets_)
        set.clear();
}

StreamCapture
captureStreams(const BenchmarkInfo &bench, const RunConfig &config,
               const StreamRefs &refs, bool keepRefs)
{
    StreamCapture cap;
    const ProgramImage &img = programImageFor(bench);
    const InstCount budget = config.maxInstrs;

    {
        TraceGenerator gen(img);
        cap.instrs.resize(budget + kStreamSlack);
        const auto t0 = Clock::now();
        for (Instr &in : cap.instrs)
            gen.next(in);
        cap.genSeconds = secondsSince(t0);
    }

    // Detailed core, live generator, behind recording levels (the
    // wiring of runConventional).
    {
        stats::StatGroup root("live");
        Hierarchy hier(config.hier, &root, true);
        ReferenceLru ref(config.hier.l1i);
        RecordingLevel recI(hier.l1i(), &ref,
                            keepRefs ? &cap.iRefs : nullptr);
        RecordingLevel recD(&hier.l1d(), nullptr,
                            keepRefs ? &cap.dRefs : nullptr);
        OooCore core(config.core, &recI, &recD, &root);
        core.addResizable(hier.driL2());
        TraceGenerator gen(img);
        cap.oooLive = core.run(gen, budget);
        cap.refAccesses = recI.accesses();
        cap.refMismatches = recI.mismatches();
        cap.l1iAccesses = hier.convL1i()->accesses();
        cap.l1iMisses = hier.convL1i()->misses();
    }
    // Detailed core on the recorded stream.
    {
        stats::StatGroup root("recorded");
        Hierarchy hier(config.hier, &root, true);
        OooCore core(config.core, hier.l1i(), &hier.l1d(), &root);
        core.addResizable(hier.driL2());
        VectorStream stream(cap.instrs);
        const auto t0 = Clock::now();
        cap.oooRecorded = core.run(stream, budget);
        cap.oooRecordedSeconds = secondsSince(t0);
    }

    // Fast core (the wiring of runConventionalFast), live and
    // recorded.
    SimpleCoreParams scp;
    scp.baseCpi = refs.cal.baseCpi;
    scp.missOverlap = refs.cal.missOverlap;
    scp.fetchBlockBytes = config.hier.l1i.blockBytes;
    {
        stats::StatGroup root("fast-live");
        Hierarchy hier(config.hier, &root, true);
        ReferenceLru ref(config.hier.l1i);
        RecordingLevel recI(hier.l1i(), &ref, nullptr);
        SimpleCore fast(scp, &recI);
        fast.addResizable(hier.driL2());
        TraceGenerator gen(img);
        cap.simpleLive = fast.run(gen, budget);
        cap.fastRefAccesses = recI.accesses();
        cap.fastRefMismatches = recI.mismatches();
    }
    {
        stats::StatGroup root("fast-recorded");
        Hierarchy hier(config.hier, &root, true);
        SimpleCore fast(scp, hier.l1i());
        fast.addResizable(hier.driL2());
        VectorStream stream(cap.instrs);
        const auto t0 = Clock::now();
        cap.simpleRecorded = fast.run(stream, budget);
        cap.simpleRecordedSeconds = secondsSince(t0);
    }
    return cap;
}

void
checkCapture(Checker &c, const StreamCapture &cap,
             const RunConfig &config, const StreamRefs &refs)
{
    const InstCount budget = config.maxInstrs;
    c.expect(cap.oooLive.instructions == budget,
             "detailed run retires its budget");
    c.expect(cap.oooLive.cycles == cap.oooRecorded.cycles &&
                 cap.oooLive.instructions ==
                     cap.oooRecorded.instructions,
             "detailed: recorded-stream CoreStats equal live " +
                 gotWant(static_cast<double>(cap.oooRecorded.cycles),
                      static_cast<double>(cap.oooLive.cycles)));
    c.expect(cap.refAccesses > 0 && cap.refAccesses == cap.l1iAccesses,
             "reference LRU saw every L1I access");
    c.expect(cap.refMismatches == 0,
             "reference LRU agrees hit for hit with the L1I (" +
                 std::to_string(cap.refMismatches) + " mismatches)");
    if (refs.convDetailedCycles != 0)
        c.expect(cap.oooLive.cycles == refs.convDetailedCycles,
                 "benchmark-wired detailed run equals runConventional " +
                     gotWant(static_cast<double>(cap.oooLive.cycles),
                          static_cast<double>(refs.convDetailedCycles)));

    c.expect(cap.simpleLive.instructions == budget,
             "fast run retires its budget");
    c.expect(cap.simpleLive.cycles == cap.simpleRecorded.cycles &&
                 cap.simpleLive.instructions ==
                     cap.simpleRecorded.instructions,
             "fast: recorded-stream CoreStats equal live");
    c.expect(cap.fastRefAccesses > 0 && cap.fastRefMismatches == 0,
             "reference LRU agrees hit for hit with the fast L1I (" +
                 std::to_string(cap.fastRefMismatches) +
                 " mismatches)");
    if (refs.convFastCycles != 0)
        c.expect(cap.simpleLive.cycles == refs.convFastCycles,
                 "benchmark-wired fast run equals runConventionalFast " +
                     gotWant(static_cast<double>(cap.simpleLive.cycles),
                          static_cast<double>(refs.convFastCycles)));
}

} // namespace perfbench
