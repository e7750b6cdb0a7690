/**
 * @file
 * The traced run and its per-layer table.
 *
 * End-to-end numbers never come from here. This pass runs the
 * workload untraced (a warm-up round, then a measured one) and once
 * traced (the difference is the tracing overhead), reads the program's own run and job spans, then
 * times calls into each layer's public functions on the workload's
 * own inputs: the recorded instruction streams and the L1I/L1D
 * reference streams captured through recording levels. Every probe
 * sits inside a benchmark span (category "perfbench"), and the whole
 * trace is written once, at the end, as one Perfetto-loadable file.
 */

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iostream>

#include "core/dri_icache.hh"
#include "cpu/branch_pred.hh"
#include "energy/accounting.hh"
#include "harness/executor.hh"
#include "mem/hierarchy.hh"
#include "obs/trace.hh"
#include "policy/leakage_policy.hh"
#include "streams.hh"
#include "system/cmp.hh"
#include "workload/program.hh"

namespace perfbench
{

namespace
{

/** Repetitions of the cheap probes, for timer resolution. */
constexpr int kBuildReps = 20;
constexpr int kCompareCalls = 2000;
constexpr int kCacheReps = 50;

/** Accumulates seconds and work items for one ns-per-item metric. */
struct Timer
{
    double seconds = 0.0;
    double items = 0.0;

    double nsPerItem() const
    {
        return items > 0.0 ? seconds / items * 1e9 : 0.0;
    }
};

/** One fetch of a new block, after @p retired further instructions. */
struct FetchEvent
{
    Addr pc = 0;
    InstCount retired = 0;
};

/** The fetch stream of @p instrs, one event per new block. */
std::vector<FetchEvent>
fetchEvents(const std::vector<Instr> &instrs, InstCount n,
            unsigned blockBytes)
{
    std::vector<FetchEvent> out;
    Addr lastBlock = kInvalidAddr;
    InstCount retired = 0;
    for (InstCount k = 0; k < n; ++k) {
        const Addr block = instrs[k].pc / blockBytes;
        if (block != lastBlock) {
            out.push_back({instrs[k].pc, retired});
            lastBlock = block;
            retired = 0;
        }
        ++retired;
    }
    return out;
}

/** Replay @p events into @p level, retiring into @p sink. */
void
replayFetch(const std::vector<FetchEvent> &events, MemoryLevel &level,
            RetireSink &sink)
{
    for (const FetchEvent &e : events) {
        if (e.retired) {
            sink.onRetire(e.retired);
            sink.onCycles(e.retired);
        }
        level.access(e.pc, AccessType::InstFetch);
    }
}

/** Sum of the durations (s) of spans in @p cat named @p name. */
double
spanSeconds(const std::vector<obs::TraceSpan> &spans,
            const std::string &cat, const std::string &name)
{
    double us = 0.0;
    for (const obs::TraceSpan &s : spans)
        if (s.cat == cat && s.name == name)
            us += static_cast<double>(s.dur);
    return us * 1e-6;
}

bool
isFastRun(const std::string &name)
{
    return name.find("-fast#") != std::string::npos ||
           name.find("/calibrate") != std::string::npos;
}

/** The layer probes over every program of @p w. */
void
probeLayers(Workload &w, LayerTable &t, OpCount &ops)
{
    const RunConfig &cfg = w.config();
    const InstCount n = cfg.maxInstrs;
    obs::TraceWriter *tw = obs::trace();
    Timer build, gen, ooo, simple, bpred, l1i, l1d, dri, compare;
    Timer decay, drowsy, ways;
    double l1iMisses = 0, coalesced = 0, resizes = 0;
    volatile double sink = 0.0;

    for (std::size_t i = 0; i < w.programs().size(); ++i) {
        const BenchmarkInfo &b = w.programs()[i];
        const auto span = [&](const char *layer) {
            return std::make_unique<obs::ScopedSpan>(
                tw, "perfbench", std::string("layer/") + layer + "/" +
                                     b.name);
        };

        {
            auto s = span("workload.build");
            const auto t0 = Clock::now();
            for (int r = 0; r < kBuildReps; ++r)
                sink = sink + static_cast<double>(
                                  buildProgram(b.spec).functions.size());
            build.seconds += secondsSince(t0);
            build.items += kBuildReps;
        }

        const StreamRefs refs = w.refs(i);
        StreamCapture cap;
        {
            auto s = span("capture");
            cap = captureStreams(b, cfg, refs, true);
        }
        Checker c(std::string(w.name()) + "/layers/" + b.name);
        checkCapture(c, cap, cfg, refs);
        ops.record(c);
        gen.seconds += cap.genSeconds;
        gen.items += static_cast<double>(cap.instrs.size());
        ooo.seconds += cap.oooRecordedSeconds;
        ooo.items += static_cast<double>(n);
        simple.seconds += cap.simpleRecordedSeconds;
        simple.items += static_cast<double>(n);

        {
            auto s = span("cpu.bpred");
            stats::StatGroup root("bpred");
            BranchPredictor bp(cfg.core.bpred, &root);
            std::vector<Instr> control;
            for (InstCount k = 0; k < n; ++k)
                if (isControl(cap.instrs[k].op))
                    control.push_back(cap.instrs[k]);
            std::uint64_t taken = 0;
            const auto t0 = Clock::now();
            for (const Instr &in : control) {
                taken += bp.predict(in.pc, in.op).taken;
                bp.update(in.pc, in.op, in.taken, in.nextPc);
            }
            bpred.seconds += secondsSince(t0);
            bpred.items += static_cast<double>(control.size());
            sink = sink + static_cast<double>(taken);
        }

        {
            auto s = span("mem.l1i");
            stats::StatGroup root("l1i");
            MainMemory mem(cfg.hier.l1i.blockBytes, &root);
            Cache cache(cfg.hier.l1i, &mem, &root);
            const auto t0 = Clock::now();
            for (const MemRef &r : cap.iRefs)
                cache.access(r.addr, r.type);
            l1i.seconds += secondsSince(t0);
            l1i.items += static_cast<double>(cap.iRefs.size());
            l1iMisses += static_cast<double>(cache.misses());
        }

        {
            // The d-side stream into the --dram-banked memory system.
            auto s = span("mem.l1d");
            stats::StatGroup root("l1d");
            HierarchyParams hp = cfg.hier;
            hp.dram.banked = true;
            hp.l1i.mshrs = 4;
            hp.l1d.mshrs = 4;
            hp.l2.mshrs = 8;
            Hierarchy hier(hp, &root, true);
            const auto t0 = Clock::now();
            for (const MemRef &r : cap.dRefs)
                hier.l1d().accessAt(r.addr, r.type, r.now);
            l1d.seconds += secondsSince(t0);
            l1d.items += static_cast<double>(cap.dRefs.size());
            coalesced += static_cast<double>(
                hier.l1d().mshrCoalesced() +
                (hier.driL2() ? hier.driL2()->mshrCoalesced()
                              : hier.l2().mshrCoalesced()));
        }

        // DRI and the leakage policies over the fetch stream.
        const std::vector<FetchEvent> fetches =
            fetchEvents(cap.instrs, n, cfg.hier.l1i.blockBytes);
        const double intervals =
            static_cast<double>(n) /
            static_cast<double>(DriParams{}.senseInterval);
        {
            auto s = span("core.dri");
            stats::StatGroup root("dri");
            MainMemory mem(cfg.hier.l1i.blockBytes, &root);
            DriParams p;
            p.sizeBoundBytes = 2048;
            p.missBound = std::max<std::uint64_t>(
                16, static_cast<std::uint64_t>(
                        8.0 * static_cast<double>(cap.l1iMisses) /
                        intervals));
            DriICache cache(p, &mem, &root);
            const auto t0 = Clock::now();
            replayFetch(fetches, cache, cache);
            dri.seconds += secondsSince(t0);
            dri.items += static_cast<double>(fetches.size());
            resizes +=
                static_cast<double>(cache.upsizes() + cache.downsizes());
        }
        for (const PolicyKind kind :
             {PolicyKind::Decay, PolicyKind::Drowsy,
              PolicyKind::StaticWays}) {
            auto s = span(policyKindName(kind));
            stats::StatGroup root("policy");
            MainMemory mem(cfg.hier.l1i.blockBytes, &root);
            PolicyConfig pc;
            pc.kind = kind;
            pc.decay.decayInterval = 50 * 1000;
            pc.drowsy.drowsyInterval = 50 * 1000;
            if (kind == PolicyKind::StaticWays) {
                pc.dri.assoc = 4;
                pc.ways.activeWays = 2;
            }
            std::unique_ptr<LeakagePolicy> pol =
                makeLeakagePolicy(pc, &mem, &root);
            Timer &tm = kind == PolicyKind::Decay    ? decay
                        : kind == PolicyKind::Drowsy ? drowsy
                                                     : ways;
            const auto t0 = Clock::now();
            replayFetch(fetches, *pol->level(), *pol);
            tm.seconds += secondsSince(t0);
            tm.items += static_cast<double>(fetches.size());
        }

        {
            auto s = span("energy.compare");
            const EnergyConstants k = EnergyConstants::paper();
            RunMeasurement conv;
            conv.cycles = cap.oooLive.cycles;
            conv.instructions = cap.oooLive.instructions;
            conv.l1iAccesses = cap.l1iAccesses;
            conv.l1iMisses = cap.l1iMisses;
            RunMeasurement d = conv;
            d.avgActiveFraction = 0.5;
            d.resizingTagBits = 5;
            const auto t0 = Clock::now();
            for (int r = 0; r < kCompareCalls; ++r) {
                d.l1iMisses = conv.l1iMisses + static_cast<unsigned>(r);
                sink = sink + compareRuns(k, conv, d).relativeEnergyDelay();
            }
            compare.seconds += secondsSince(t0);
            compare.items += kCompareCalls;
        }
    }

    t["workload.build_ms"] = {build.nsPerItem() * 1e-6, "ms"};
    t["workload.gen_ns_per_instr"] = {gen.nsPerItem(), "ns"};
    t["cpu.ooo_ns_per_instr"] = {ooo.nsPerItem(), "ns"};
    t["cpu.simple_ns_per_instr"] = {simple.nsPerItem(), "ns"};
    t["cpu.bpred_ns_per_branch"] = {bpred.nsPerItem(), "ns"};
    t["mem.l1i_ns_per_access"] = {l1i.nsPerItem(), "ns"};
    t["mem.l1i_misses"] = {l1iMisses, "count"};
    t["mem.l1d_ns_per_access"] = {l1d.nsPerItem(), "ns"};
    t["mem.mshr_coalesced"] = {coalesced, "count"};
    t["core.dri_ns_per_access"] = {dri.nsPerItem(), "ns"};
    t["core.resizes"] = {resizes, "count"};
    t["policy.decay_ns_per_access"] = {decay.nsPerItem(), "ns"};
    t["policy.drowsy_ns_per_access"] = {drowsy.nsPerItem(), "ns"};
    t["policy.ways_ns_per_access"] = {ways.nsPerItem(), "ns"};
    t["energy.compare_ns"] = {compare.nsPerItem(), "ns"};

    // The workload's 4-core mix.
    {
        obs::ScopedSpan s(tw, "perfbench", "layer/system.cmp");
        std::vector<const ProgramImage *> images;
        const CmpConfig cmp = w.cmpProbe(images);
        stats::StatGroup root("cmp");
        CmpSystem sys(cmp, cfg.hier, cfg.core, images, &root);
        const auto t0 = Clock::now();
        const CmpRunOutput out = sys.run(n);
        const double sec = secondsSince(t0);
        Checker c(std::string(w.name()) + "/layers/cmp");
        checkCmp(c, out, n);
        ops.record(c);
        t["system.cmp_ns_per_instr"] = {
            sec * 1e9 / (static_cast<double>(n) * cmp.cores), "ns"};
        t["system.coherence_msgs"] = {
            static_cast<double>(out.coherenceInvalidations +
                                out.coherenceDowngrades +
                                out.coherenceWritebacks),
            "count"};
    }
}

/** sim.*: cold rerun on a fresh sidecar, warm rerun, raw costs. */
void
probeResultCache(Workload &w, const std::string &workDir,
                 std::uint64_t digest, LayerTable &t, OpCount &ops)
{
    obs::ScopedSpan span(obs::trace(), "perfbench", "layer/sim.cache");
    const std::string pid = std::to_string(getpid());
    const std::string path = workDir + "/result-cache-" + pid;
    const std::string path2 = path + "-store";
    std::filesystem::remove(path);
    std::filesystem::remove(path2);
    // The cold rerun also checks the worker count: it runs on one
    // worker where the workload runs on several, and vice versa.
    const unsigned other =
        w.workers() > 1 ? 1 : std::min(hardwareJobCount(), 4u);
    {
        auto rc = std::make_shared<sim::ResultCache>(path);
        const RoundResult cold = w.round({other, rc});
        ops.add(cold.ops);
        const auto t0 = Clock::now();
        const RoundResult warm = w.round({w.workers(), rc});
        t["sim.warm_rerun_s"] = {secondsSince(t0), "s"};
        ops.add(warm.ops);
        Checker c(std::string(w.name()) + "/reruns");
        c.expect(cold.digest == digest,
                 "digest at " + std::to_string(other) +
                     " workers equals the measured round's");
        c.expect(warm.digest == digest,
                 "warm result-cache rerun equals the measured round");

        const std::vector<sim::ConfigKey> keys = w.cachedKeys();
        std::vector<sim::ResultCache::Fields> fields(keys.size());
        bool found = true;
        auto t1 = Clock::now();
        for (int r = 0; r < kCacheReps; ++r)
            for (std::size_t k = 0; k < keys.size(); ++k)
                found = rc->lookup(keys[k], fields[k]) && found;
        const double lookups =
            static_cast<double>(kCacheReps * keys.size());
        t["sim.result_cache_lookup_us"] = {
            secondsSince(t1) / lookups * 1e6, "us"};
        c.expect(found, "every cached run is found by its key");
        ops.record(c);

        sim::ResultCache fresh(path2);
        t1 = Clock::now();
        for (int r = 0; r < kCacheReps; ++r)
            for (std::size_t k = 0; k < keys.size(); ++k) {
                sim::ConfigKey key = keys[k];
                key.add("perfbench.rep", static_cast<std::uint64_t>(r));
                fresh.store(key, fields[k]);
            }
        fresh.flush();
        t["sim.result_cache_store_us"] = {
            secondsSince(t1) / lookups * 1e6, "us"};
    }
    std::filesystem::remove(path);
    std::filesystem::remove(path2);
}

/** sim.checkpoint_*: midpoint save, then restore, of one run. */
void
probeCheckpoint(Workload &w, const std::string &workDir, LayerTable &t,
                OpCount &ops)
{
    obs::TraceWriter *tw = obs::trace();
    RunConfig cfg = w.config();
    cfg.resultCache = nullptr;
    cfg.checkpointDir =
        workDir + "/checkpoints-" + std::to_string(getpid());
    std::filesystem::remove_all(cfg.checkpointDir);
    const BenchmarkInfo &b = w.programs().front();
    RunOutput saved, restored;
    {
        obs::ScopedSpan span(tw, "perfbench", "layer/sim.checkpoint");
        saved = runConventional(b, cfg);
        restored = runConventional(b, cfg);
    }
    std::filesystem::remove_all(cfg.checkpointDir);
    Checker c(std::string(w.name()) + "/checkpoint");
    Digest a, r;
    a.add(saved);
    r.add(restored);
    c.expect(a.value() == r.value(),
             "restored run equals the uninterrupted one");
    const Cycles want = w.refs(0).convDetailedCycles;
    c.expect(want == 0 || saved.meas.cycles == want,
             "checkpointed run equals the plain run");
    const std::vector<obs::TraceSpan> spans = tw->spans();
    const auto count = [&](const char *name) {
        return std::count_if(spans.begin(), spans.end(),
                             [&](const obs::TraceSpan &s) {
                                 return s.cat == "checkpoint" &&
                                        s.name == name;
                             });
    };
    c.expect(count("save") == 1 && count("restore") == 1,
             "the first run saved, the second restored");
    ops.record(c);
    t["sim.checkpoint_save_ms"] = {
        spanSeconds(spans, "checkpoint", "save") * 1e3, "ms"};
    t["sim.checkpoint_restore_ms"] = {
        spanSeconds(spans, "checkpoint", "restore") * 1e3, "ms"};
}

} // namespace

LayerTable
tracedRun(Workload &w, const std::string &workDir,
          const std::string &tracePath, OpCount &ops)
{
    LayerTable t;
    const unsigned workers = w.workers();

    // A warm-up round, then an untraced and a traced one: the
    // overhead compares two warm rounds.
    const RoundResult base = w.round({workers, nullptr});
    ops.add(base.ops);
    auto t0 = Clock::now();
    const RoundResult warm = w.round({workers, nullptr});
    const double untraced = secondsSince(t0);
    ops.add(warm.ops);

    obs::TraceWriter *tw = obs::initTrace(tracePath);
    t0 = Clock::now();
    RoundResult traced;
    {
        obs::ScopedSpan s(tw, "perfbench", "round");
        traced = w.round({workers, nullptr});
    }
    const double tracedWall = secondsSince(t0);
    ops.add(traced.ops);
    {
        Checker c(std::string(w.name()) + "/traced");
        c.expect(warm.digest == base.digest &&
                     traced.digest == base.digest,
                 "untraced and traced rounds repeat the first");
        ops.record(c);
    }
    t["obs.trace_overhead_s"] = {tracedWall - untraced, "s"};

    // The program's own spans from the traced round.
    double detailed = 0, fast = 0, runs = 0, busy = 0;
    for (const obs::TraceSpan &s : tw->spans()) {
        const double sec = static_cast<double>(s.dur) * 1e-6;
        if (s.cat == "run") {
            ++runs;
            (isFastRun(s.name) ? fast : detailed) += sec;
        } else if (s.cat == "job") {
            busy += sec;
        }
    }
    t["harness.detailed_run_s"] = {detailed, "s"};
    t["harness.fast_run_s"] = {fast, "s"};
    t["harness.runs"] = {runs, "count"};
    t["harness.executor_busy_s"] = {busy, "s"};
    t["harness.executor_idle_s"] = {workers * tracedWall - busy, "s"};

    probeLayers(w, t, ops);
    probeResultCache(w, workDir, base.digest, t, ops);
    probeCheckpoint(w, workDir, t, ops);

    std::string error;
    if (!tw->write(error))
        std::cerr << "perfbench: trace not written: " << error << "\n";
    obs::resetTrace();
    return t;
}

} // namespace perfbench
