/**
 * @file
 * Run orchestration: one run path for every single-core entry point.
 * A run is a benchmark, a RunConfig, an L1I spec (a conventional
 * Cache, a DRI i-cache or a leakage policy) and a core model (the
 * detailed OooCore, or the calibrated SimpleCore). A flavour's key
 * fields and series name live in one table (kFlavours); its probes
 * and L1I outputs come from system/l1i.hh, which the CMP shares;
 * memoization, sampling, metering, the checkpoint seam and the
 * L2/memory outputs are common to every run.
 */

#include "harness/runner.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <type_traits>

#include "cpu/simple_core.hh"
#include "obs/metrics.hh"
#include "obs/probe.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"
#include "system/l1i.hh"
#include "util/logging.hh"
#include "workload/generator.hh"

namespace drisim
{

namespace
{

/**
 * Program images are deterministic; build each benchmark once and
 * share it. Executor workers construct a TraceGenerator per run, so
 * the lookup is the harness's hottest synchronization point: reads
 * take a shared lock and proceed in parallel (the serial-era
 * exclusive mutex made every worker queue up here). A cache miss
 * builds outside any lock — two workers racing on a cold benchmark
 * do redundant deterministic work and the first insert wins.
 *
 * Images and run keys are keyed on the benchmark name, so the cache
 * also records the first spec seen under each name and throws
 * ProgramSpecCollision when a different spec claims it.
 */
class ProgramImageCache
{
  public:
    /** Bind @p bench's name to its spec (first claim wins). */
    void claim(const BenchmarkInfo &bench)
    {
        {
            std::shared_lock<std::shared_mutex> lock(mu_);
            auto it = specs_.find(bench.name);
            if (it != specs_.end()) {
                expectSameSpec(it->second, bench);
                return;
            }
        }
        std::unique_lock<std::shared_mutex> lock(mu_);
        auto [it, inserted] = specs_.try_emplace(bench.name, bench.spec);
        if (!inserted)
            expectSameSpec(it->second, bench);
    }

    const ProgramImage &get(const BenchmarkInfo &bench)
    {
        claim(bench);
        {
            std::shared_lock<std::shared_mutex> lock(mu_);
            auto it = cache_.find(bench.name);
            if (it != cache_.end())
                return *it->second;
        }
        auto img =
            std::make_unique<ProgramImage>(buildProgram(bench.spec));
        std::unique_lock<std::shared_mutex> lock(mu_);
        auto [it, inserted] =
            cache_.try_emplace(bench.name, std::move(img));
        (void)inserted;
        return *it->second;
    }

  private:
    static void expectSameSpec(const ProgramSpec &bound,
                               const BenchmarkInfo &bench)
    {
        if (!(bound == bench.spec))
            throw ProgramSpecCollision(
                "benchmark '" + bench.name +
                "' already names a different program spec");
    }

    std::shared_mutex mu_;
    std::map<std::string, ProgramSpec> specs_;
    std::map<std::string, std::unique_ptr<ProgramImage>> cache_;
};

ProgramImageCache &
imageCache()
{
    static ProgramImageCache cache;
    return cache;
}

const ProgramImage &
imageFor(const BenchmarkInfo &bench)
{
    return imageCache().get(bench);
}

/**
 * Copy the L2 view of a finished run into @p out, whatever flavour
 * of L2 the hierarchy was built with.
 */
void
fillL2Outputs(Hierarchy &hier, RunOutput &out)
{
    // MSHR activity sums over the L2, the L1D and a conventional L1I
    // (a policy-managed or DRI L1I's MSHRs are left out); the peak is
    // the max.
    const auto addMshrs = [&out](const auto &c) {
        out.mshrCoalesced += c.mshrCoalesced();
        out.mshrFullStalls += c.mshrFullStalls();
        out.mshrFullStallCycles += c.mshrFullStallCycles();
        out.mshrPeakOccupancy =
            std::max(out.mshrPeakOccupancy, c.mshrPeakOccupancy());
    };
    out.l2MissRate = hier.l2MissRate();
    out.l2Accesses = hier.l2Accesses();
    out.l2Misses = hier.l2Misses();
    out.memAccesses = hier.memAccesses();
    out.memReads = hier.memReads();
    out.memWritebacks = hier.memWritebacks();
    if (Dram *d = hier.dram()) {
        out.dramRowHits = d->rowHits();
        out.dramRowMisses = d->rowMisses();
        out.dramQueueFullEvents = d->queueFullEvents();
        out.dramBusyCycles = d->busyCycles();
    }
    if (ResizableCache *l2 = hier.driL2()) {
        out.l2SizeBytes = l2->params().sizeBytes;
        out.l2AvgActiveFraction = l2->averageActiveFraction();
        out.l2ResizingTagBits = l2->params().resizingTagBits();
        out.l2Resizes = l2->upsizes() + l2->downsizes();
        addMshrs(*l2);
    } else {
        out.l2SizeBytes = hier.params().l2.sizeBytes;
        addMshrs(hier.l2());
    }
    addMshrs(hier.l1d());
    if (Cache *l1i = hier.convL1i())
        addMshrs(*l1i);
}

// ------------------------------------------------------------------
// Canonical run keys (see runner.hh: every result-bearing knob, no
// execution-strategy knobs)
// ------------------------------------------------------------------

/** Size, associativity, block, latency, replacement and MSHRs of a
 *  cache (CacheParams) or a resizable one (DriParams). */
template <typename Params>
void
addGeometryKey(sim::ConfigKey &k, const std::string &p, const Params &c)
{
    k.add(p + ".size", c.sizeBytes);
    k.add(p + ".assoc", static_cast<std::uint64_t>(c.assoc));
    k.add(p + ".block", static_cast<std::uint64_t>(c.blockBytes));
    k.add(p + ".lat", static_cast<std::uint64_t>(c.hitLatency));
    k.add(p + ".repl", static_cast<std::uint64_t>(c.repl));
    // Conditional so every pre-MSHR key (and hash) is unchanged.
    if (c.mshrs != 0)
        k.add(p + ".mshrs", static_cast<std::uint64_t>(c.mshrs));
}

void
addDriKey(sim::ConfigKey &k, const std::string &p, const DriParams &d)
{
    addGeometryKey(k, p, d);
    k.add(p + ".size_bound", d.sizeBoundBytes);
    k.add(p + ".miss_bound", d.missBound);
    k.add(p + ".sense_interval", d.senseInterval);
    k.add(p + ".divisibility",
          static_cast<std::uint64_t>(d.divisibility));
    k.add(p + ".throttle_bits",
          static_cast<std::uint64_t>(d.throttleBits));
    k.add(p + ".throttle_hold",
          static_cast<std::uint64_t>(d.throttleHoldIntervals));
    k.add(p + ".adaptive", d.adaptive);
}

/** A leakage policy's knobs under @p p; its kind is "<p>.<kindName>". */
void
addPolicyKey(sim::ConfigKey &k, const std::string &p,
             const char *kindName, const PolicyConfig &c)
{
    k.add(p + "." + kindName, static_cast<std::uint64_t>(c.kind));
    addDriKey(k, p + ".dri", c.dri);
    k.add(p + ".decay_interval", c.decay.decayInterval);
    k.add(p + ".counter_limit",
          static_cast<std::uint64_t>(c.decay.counterLimit));
    k.add(p + ".drowsy_interval", c.drowsy.drowsyInterval);
    k.add(p + ".wake_latency",
          static_cast<std::uint64_t>(c.drowsy.wakeLatency));
    k.add(p + ".active_ways",
          static_cast<std::uint64_t>(c.ways.activeWays));
}

void
addCalKey(sim::ConfigKey &k, const FastCalibration &cal)
{
    k.addDouble("cal.base_cpi", cal.baseCpi);
    k.addDouble("cal.miss_overlap", cal.missOverlap);
}

/**
 * Cache geometries, the DRI L2 and banked DRAM: the memory-system
 * fields single-core and CMP keys share.
 */
void
addMemoryKey(sim::ConfigKey &k, const HierarchyParams &h)
{
    addGeometryKey(k, "l1i", h.l1i);
    addGeometryKey(k, "l1d", h.l1d);
    addGeometryKey(k, "l2", h.l2);
    k.add("l2_dri", h.l2Dri);
    if (h.l2Dri)
        addDriKey(k, "l2dri", h.l2DriParams);
    // Conditional, like sample: flat-memory hashes stay stable.
    if (h.dram.banked) {
        const DramParams &d = h.dram;
        k.add("dram.banked", true);
        k.add("dram.banks", static_cast<std::uint64_t>(d.banks));
        k.add("dram.row_hit", d.rowHitLatency);
        k.add("dram.row_miss", d.rowMissLatency);
        k.add("dram.queue", static_cast<std::uint64_t>(d.queueDepth));
        k.add("dram.row_bytes",
              static_cast<std::uint64_t>(d.rowBytes));
    }
}

// ------------------------------------------------------------------
// RunOutput <-> result-cache fields (exact string round-trip)
// ------------------------------------------------------------------

/**
 * Payload layout version: bumped when fields are added so
 * pre-existing sidecar entries (which lack the new columns) miss
 * cleanly instead of being served with silent zeros.
 */
constexpr const char *kPayloadVersion = "2";

/**
 * The result-cache payload: every RunOutput field under its stored
 * name. Integers are stored in decimal, doubles with %.17g; this one
 * list drives both directions of the codec.
 */
template <typename Out, typename Visit>
void
forEachPayloadField(Out &o, Visit &&visit)
{
    visit("cycles", o.meas.cycles);
    visit("instructions", o.meas.instructions);
    visit("l1i_accesses", o.meas.l1iAccesses);
    visit("l1i_misses", o.meas.l1iMisses);
    visit("l1i_active_fraction", o.meas.avgActiveFraction);
    visit("l1i_tag_bits", o.meas.resizingTagBits);
    visit("l1i_bytes", o.meas.l1iBytes);
    visit("ipc", o.ipc);
    visit("l1d_miss_rate", o.l1dMissRate);
    visit("l2_miss_rate", o.l2MissRate);
    visit("l2_accesses", o.l2Accesses);
    visit("l2_misses", o.l2Misses);
    visit("mem_accesses", o.memAccesses);
    visit("mem_reads", o.memReads);
    visit("mem_writebacks", o.memWritebacks);
    visit("mshr_coalesced", o.mshrCoalesced);
    visit("mshr_full_stalls", o.mshrFullStalls);
    visit("mshr_full_stall_cycles", o.mshrFullStallCycles);
    visit("mshr_peak_occupancy", o.mshrPeakOccupancy);
    visit("dram_row_hits", o.dramRowHits);
    visit("dram_row_misses", o.dramRowMisses);
    visit("dram_queue_full", o.dramQueueFullEvents);
    visit("dram_busy_cycles", o.dramBusyCycles);
    visit("resizes", o.resizes);
    visit("throttle_events", o.throttleEvents);
    visit("l2_size_bytes", o.l2SizeBytes);
    visit("l2_active_fraction", o.l2AvgActiveFraction);
    visit("l2_tag_bits", o.l2ResizingTagBits);
    visit("l2_resizes", o.l2Resizes);
    visit("l1_drowsy_fraction", o.l1DrowsyFraction);
    visit("wake_transitions", o.wakeTransitions);
    visit("wake_stall_cycles", o.wakeStallCycles);
    visit("policy_blocks_lost", o.policyBlocksLost);
}

std::string
doubleField(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Parse field @p name exactly (decimal integer or %.17g double);
 *  false when it is absent or malformed. */
template <typename T>
bool
parseField(const sim::ResultCache::Fields &f, const char *name, T &out)
{
    const auto it = f.find(name);
    if (it == f.end() || it->second.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const char *text = it->second.c_str();
    if constexpr (std::is_floating_point_v<T>)
        out = std::strtod(text, &end);
    else
        out = static_cast<T>(std::strtoull(text, &end, 10));
    return errno == 0 && end != nullptr && *end == '\0';
}

sim::ResultCache::Fields
runOutputToFields(const RunOutput &out)
{
    sim::ResultCache::Fields f;
    f["payload_v"] = kPayloadVersion;
    forEachPayloadField(out, [&f](const char *name, const auto &v) {
        if constexpr (std::is_floating_point_v<
                          std::decay_t<decltype(v)>>)
            f[name] = doubleField(v);
        else
            f[name] = std::to_string(v);
    });
    return f;
}

/** Strict: any absent or malformed field rejects the entry, and the
 *  payload layout version must match exactly — entries written by a
 *  binary with a different column set miss and are recomputed. */
bool
runOutputFromFields(const sim::ResultCache::Fields &f, RunOutput &out)
{
    const auto pv = f.find("payload_v");
    if (pv == f.end() || pv->second != kPayloadVersion)
        return false;
    bool ok = true;
    forEachPayloadField(out, [&](const char *name, auto &v) {
        ok = ok && parseField(f, name, v);
    });
    return ok;
}

/** Instant ("dur":0) cache-lookup event on the trace timeline. */
void
cacheEvent(const char *name, const sim::ConfigKey &key)
{
    obs::TraceWriter *tw = obs::trace();
    if (!tw)
        return;
    obs::TraceSpan s;
    s.cat = "cache";
    s.name = name;
    s.ts = tw->nowMicros();
    s.args.emplace_back("key", key.hashHex());
    tw->complete(std::move(s));
}

/**
 * Serve @p key from the result cache when possible, else compute via
 * @p impl and store. A hit whose payload fails strict field parsing
 * is recomputed and overwritten, never served.
 */
template <typename Impl>
RunOutput
memoizedRun(const RunConfig &config, const sim::ConfigKey &key,
            Impl &&impl)
{
    if (!config.resultCache)
        return impl();
    sim::ResultCache::Fields f;
    if (config.resultCache->lookup(key, f)) {
        RunOutput out;
        if (runOutputFromFields(f, out)) {
            cacheEvent("hit", key);
            return out;
        }
    }
    cacheEvent("miss", key);
    const RunOutput out = impl();
    config.resultCache->store(key, runOutputToFields(out));
    return out;
}

/**
 * Run @p core to config.maxInstrs through the midpoint checkpoint
 * seam: restore and simulate only the second half when a snapshot of
 * this exact key exists, else simulate the first half, snapshot, and
 * continue. The snapshot holds the generator, the core, the
 * hierarchy and, when the L1I is policy-managed, @p policy. The
 * split is aligned to the fast model's retire batch (64) so both
 * core models continue bit-identically. Disabled (plain full run)
 * when no checkpoint directory is configured or the run is too
 * short to split.
 */
CoreStats
runCheckpointed(const RunConfig &config, const sim::ConfigKey &key,
                Core &core, TraceGenerator &gen, Hierarchy &hier,
                LeakagePolicy *policy)
{
    const InstCount total = config.maxInstrs;
    const InstCount split = (total / 2) & ~InstCount{63};
    if (config.checkpointDir.empty() || split == 0 || split >= total)
        return core.run(gen, total);

    const sim::CheckpointStore store(config.checkpointDir);
    // v3: the coherence layer added per-block MSI state to every
    // tag store (plus a layout magic the reader verifies); stale
    // v1/v2 snapshots must miss, not crash.
    const std::string storeKey = "v3|" + key.canonical() + "|ckpt@" +
                                 std::to_string(split);
    std::string blob;
    if (store.load(storeKey, blob)) {
        {
            obs::ScopedSpan span(obs::trace(), "checkpoint",
                                 "restore");
            sim::CheckpointReader r(std::move(blob));
            r.beginSection("run");
            gen.restoreFrom(r);
            core.restoreFrom(r);
            hier.restoreFrom(r);
            if (policy)
                policy->restoreFrom(r);
            r.endSection();
        }
        return core.run(gen, total - split);
    }

    core.run(gen, split);
    {
        obs::ScopedSpan span(obs::trace(), "checkpoint", "save");
        sim::CheckpointWriter w;
        w.beginSection("run");
        gen.snapshotTo(w);
        core.snapshotTo(w);
        hier.snapshotTo(w);
        if (policy)
            policy->snapshotTo(w);
        w.endSection();
        store.save(storeKey, w.bytes());
    }
    return core.run(gen, total - split);
}

/** The hierarchy's own probes: L1D/L2 counters, MSHR peak, DRAM. */
void
addHierProbes(obs::MetricRegistry &reg, Hierarchy *hier)
{
    reg.add("l1d_accesses", [hier] {
        return static_cast<double>(hier->l1d().accesses());
    });
    reg.add("l1d_misses", [hier] {
        return static_cast<double>(hier->l1d().misses());
    });
    reg.add("l2_accesses", [hier] {
        return static_cast<double>(hier->l2Accesses());
    });
    reg.add("l2_misses", [hier] {
        return static_cast<double>(hier->l2Misses());
    });
    reg.add("mshr_peak_occupancy", [hier] {
        return static_cast<double>(hier->l1d().mshrPeakOccupancy());
    });
    if (Dram *d = hier->dram())
        reg.add("dram_busy_cycles", [d] {
            return static_cast<double>(d->busyCycles());
        });
}

/**
 * Interval-metered alternative to runCheckpointed: chunk the run at
 * the recorder's interval (a multiple of the fast model's
 * 64-instruction retire batch, so chunked execution is bit-identical
 * to one call) and sample after every chunk. Only reached when a
 * metrics sink is installed; checkpoints are skipped for the run —
 * observability is execution-only, so results are unchanged either
 * way.
 */
CoreStats
runMetered(Core &core, TraceGenerator &gen, InstCount total,
           obs::IntervalSampler &sampler)
{
    const InstCount interval = obs::metrics()->interval();
    CoreStats cs = core.stats();
    InstCount done = 0;
    while (done < total) {
        const InstCount chunk = std::min(interval, total - done);
        const InstCount before = core.stats().instructions;
        cs = core.run(gen, chunk);
        const InstCount ran = cs.instructions - before;
        done += ran;
        sampler.sample(cs.instructions);
        if (ran < chunk)
            break; // stream drained
    }
    return cs;
}

// ------------------------------------------------------------------
// The one run path
// ------------------------------------------------------------------

/**
 * A run's L1 i-cache. Dri and Policy runs build `policy` through
 * makeLeakagePolicy, so a DRI L1I is the zero-logic DriPolicy
 * adapter over DriICache; Conv runs build the hierarchy's own Cache
 * and ignore `policy`.
 */
struct L1Spec
{
    L1Flavour flavour = L1Flavour::Conv;
    PolicyConfig policy{};
};

L1Spec
driSpec(const DriParams &dri)
{
    L1Spec s{L1Flavour::Dri, {}};
    s.policy.dri = dri;
    return s;
}

/**
 * What differs between L1I flavours in a run's key and series name.
 * A new flavour is one row here, its probe set and output fill in
 * system/l1i.{hh,cc}, and its cache's checkpoint state in
 * sim/state_io.cc.
 */
struct FlavourRow
{
    /** Run-key `mode` and trace/metrics series name; fast runs add
     *  "_fast" to the mode and "-fast" to the series. */
    const char *mode;
    /** The L1I's own run-key fields. */
    void (*addKey)(sim::ConfigKey &k, const PolicyConfig &policy);
};

const FlavourRow kFlavours[] = {
    {"conv", [](sim::ConfigKey &, const PolicyConfig &) {}},
    {"dri",
     [](sim::ConfigKey &k, const PolicyConfig &p) {
         addDriKey(k, "dri", p.dri);
     }},
    {"policy",
     [](sim::ConfigKey &k, const PolicyConfig &p) {
         addPolicyKey(k, "pol", "kind", p);
     }},
};

const FlavourRow &
flavourRow(L1Flavour f)
{
    return kFlavours[static_cast<int>(f)];
}

/**
 * The one run-key builder (see runner.hh: every result-bearing knob,
 * no execution-strategy knobs). @p mode overrides the flavour's mode
 * for keys that name no run of their own (calibrate).
 */
sim::ConfigKey
runKey(const BenchmarkInfo &bench, const RunConfig &config,
       const L1Spec &l1, const FastCalibration *cal,
       const char *mode = nullptr)
{
    // The key names the program, not its spec: refuse a second spec
    // under a name already in use.
    imageCache().claim(bench);
    sim::ConfigKey k;
    k.add("bench", bench.name);
    k.add("instrs", config.maxInstrs);
    addMemoryKey(k, config.hier);

    const OooParams &c = config.core;
    k.add("core.fetch", static_cast<std::uint64_t>(c.fetchWidth));
    k.add("core.issue", static_cast<std::uint64_t>(c.issueWidth));
    k.add("core.commit", static_cast<std::uint64_t>(c.commitWidth));
    k.add("core.rob", static_cast<std::uint64_t>(c.robSize));
    k.add("core.lsq", static_cast<std::uint64_t>(c.lsqSize));
    k.add("core.fq", static_cast<std::uint64_t>(c.fetchQueueSize));
    k.add("core.redirect",
          static_cast<std::uint64_t>(c.redirectPenalty));
    k.add("core.fetch_block",
          static_cast<std::uint64_t>(c.fetchBlockBytes));
    k.add("core.mem_ports", static_cast<std::uint64_t>(c.memPorts));
    k.add("core.fp_ports", static_cast<std::uint64_t>(c.fpPorts));
    k.add("core.mul_ports", static_cast<std::uint64_t>(c.mulPorts));
    k.add("bp.bimodal",
          static_cast<std::uint64_t>(c.bpred.bimodalEntries));
    k.add("bp.gshare",
          static_cast<std::uint64_t>(c.bpred.gshareEntries));
    k.add("bp.chooser",
          static_cast<std::uint64_t>(c.bpred.chooserEntries));
    k.add("bp.history",
          static_cast<std::uint64_t>(c.bpred.historyBits));
    k.add("bp.btb_sets", static_cast<std::uint64_t>(c.bpred.btbSets));
    k.add("bp.btb_assoc",
          static_cast<std::uint64_t>(c.bpred.btbAssoc));
    k.add("bp.ras", static_cast<std::uint64_t>(c.bpred.rasDepth));

    k.add("sample", config.sampling.enabled);
    if (config.sampling.enabled) {
        k.add("sample.window", config.sampling.detailedWindow);
        k.add("sample.period", config.sampling.period);
    }

    const FlavourRow &row = flavourRow(l1.flavour);
    k.add("mode", mode ? std::string(mode)
                       : std::string(row.mode) + (cal ? "_fast" : ""));
    row.addKey(k, l1.policy);
    if (cal)
        addCalKey(k, *cal);
    return k;
}

/**
 * The one run body. Builds the hierarchy with @p l1's L1I and the
 * detailed OooCore (@p cal null) or the calibrated SimpleCore, then
 * runs config.maxInstrs instructions sampled (detailed runs only),
 * metered (a metrics sink is installed) or through the checkpoint
 * seam. Memoized under the run key.
 */
RunOutput
runL1(const BenchmarkInfo &bench, const RunConfig &config,
      const L1Spec &l1, const FastCalibration *cal)
{
    const sim::ConfigKey key = runKey(bench, config, l1, cal);
    return memoizedRun(config, key, [&] {
        const FlavourRow &row = flavourRow(l1.flavour);
        const std::string series = bench.name + "/" + row.mode +
                                   (cal ? "-fast" : "") + "#" +
                                   key.hashHex();
        obs::ScopedSpan runSpan(obs::trace(), "run", series);
        stats::StatGroup root(cal ? "fast" : "sim");
        const bool conv = l1.flavour == L1Flavour::Conv;
        Hierarchy hier(config.hier, &root, conv);
        std::unique_ptr<LeakagePolicy> policy;
        if (!conv) {
            policy = makeLeakagePolicy(l1.policy, hier.l2Level(), &root);
            hier.setL1I(policy->level());
        }
        const L1iView l1i{l1.flavour, hier.convL1i(), policy.get(),
                          conv ? config.hier.l1i.sizeBytes
                               : l1.policy.dri.sizeBytes};
        std::unique_ptr<Core> core;
        if (cal) {
            SimpleCoreParams scp;
            scp.baseCpi = cal->baseCpi;
            scp.missOverlap = cal->missOverlap;
            scp.fetchBlockBytes = conv ? config.hier.l1i.blockBytes
                                       : l1.policy.dri.blockBytes;
            core = std::make_unique<SimpleCore>(scp, hier.l1i());
        } else {
            core = std::make_unique<OooCore>(config.core, hier.l1i(),
                                             &hier.l1d(), &root);
        }
        // Retire-sink order: the L1I, then the DRI L2.
        core->addRetireSink(policy.get());
        core->addResizable(hier.driL2());

        TraceGenerator gen(imageFor(bench));
        CoreStats cs;
        if (!cal && config.sampling.enabled) {
            cs = sim::runSampled(*core, hier.l1i(), &hier.l1d(), gen,
                                 config.maxInstrs, config.sampling,
                                 config.core.fetchBlockBytes);
        } else if (obs::metrics()) {
            obs::IntervalSampler sampler(series);
            addL1iProbes(sampler.registry(), l1i, *core);
            addHierProbes(sampler.registry(), &hier);
            cs = runMetered(*core, gen, config.maxInstrs, sampler);
        } else {
            cs = runCheckpointed(config, key, *core, gen, hier,
                                 policy.get());
        }

        RunOutput out;
        out.meas.cycles = cs.cycles;
        out.meas.instructions = cs.instructions;
        fillL1iOutputs(l1i, out);
        out.ipc = cs.ipc();
        // The fast model never touches the L1D, so this stays 0 there.
        out.l1dMissRate = hier.l1d().missRate();
        fillL2Outputs(hier, out);
        return out;
    });
}

/**
 * Measure the conventional fetch-miss stall with the fast model
 * (independent of CPI), then solve baseCpi so the fast model
 * reproduces the detailed conventional cycle count.
 */
FastCalibration
measureCalibration(const BenchmarkInfo &bench, const RunConfig &config,
                   const RunOutput &convDetailed)
{
    FastCalibration cal;
    obs::ScopedSpan runSpan(obs::trace(), "run",
                            bench.name + "/calibrate");
    stats::StatGroup root("cal");
    Hierarchy hier(config.hier, &root, true);
    SimpleCoreParams scp;
    scp.baseCpi = 1.0; // irrelevant to stall measurement
    scp.fetchBlockBytes = config.hier.l1i.blockBytes;
    SimpleCore fast(scp, hier.l1i());
    TraceGenerator gen(imageFor(bench));
    fast.run(gen, config.maxInstrs);
    const double stall =
        static_cast<double>(fast.missStallCycles());

    const double instrs =
        static_cast<double>(convDetailed.meas.instructions);
    const double cycles =
        static_cast<double>(convDetailed.meas.cycles);
    drisim_assert(instrs > 0, "calibration needs a non-empty run");
    double base = (cycles - cal.missOverlap * stall) / instrs;
    if (base < 0.125)
        base = 0.125; // cannot beat the 8-wide ideal
    cal.baseCpi = base;
    return cal;
}

} // namespace

const ProgramImage &
programImageFor(const BenchmarkInfo &bench)
{
    return imageFor(bench);
}

InstCount
defaultRunInstrs()
{
    const char *scale = std::getenv("DRISIM_SCALE");
    double mult = 1.0;
    if (scale && *scale) {
        mult = std::atof(scale);
        if (mult <= 0.0)
            mult = 1.0;
    }
    return static_cast<InstCount>(10.0e6 * mult);
}

sim::ConfigKey
runKeyConventional(const BenchmarkInfo &bench, const RunConfig &config)
{
    return runKey(bench, config, L1Spec{}, nullptr);
}

sim::ConfigKey
runKeyDri(const BenchmarkInfo &bench, const RunConfig &config,
          const DriParams &dri)
{
    return runKey(bench, config, driSpec(dri), nullptr);
}

sim::ConfigKey
runKeyPolicy(const BenchmarkInfo &bench, const RunConfig &config,
             const PolicyConfig &policy)
{
    return runKey(bench, config, {L1Flavour::Policy, policy}, nullptr);
}

sim::ConfigKey
runKeyConventionalFast(const BenchmarkInfo &bench,
                       const RunConfig &config,
                       const FastCalibration &cal)
{
    return runKey(bench, config, L1Spec{}, &cal);
}

RunOutput
runConventional(const BenchmarkInfo &bench, const RunConfig &config)
{
    return runL1(bench, config, L1Spec{}, nullptr);
}

RunOutput
runDri(const BenchmarkInfo &bench, const RunConfig &config,
       const DriParams &dri)
{
    return runL1(bench, config, driSpec(dri), nullptr);
}

RunOutput
runPolicy(const BenchmarkInfo &bench, const RunConfig &config,
          const PolicyConfig &policy)
{
    return runL1(bench, config, {L1Flavour::Policy, policy}, nullptr);
}

RunOutput
runConventionalFast(const BenchmarkInfo &bench, const RunConfig &config,
                    const FastCalibration &cal)
{
    return runL1(bench, config, L1Spec{}, &cal);
}

RunOutput
runDriFast(const BenchmarkInfo &bench, const RunConfig &config,
           const DriParams &dri, const FastCalibration &cal)
{
    return runL1(bench, config, driSpec(dri), &cal);
}

RunOutput
runPolicyFast(const BenchmarkInfo &bench, const RunConfig &config,
              const PolicyConfig &policy, const FastCalibration &cal)
{
    return runL1(bench, config, {L1Flavour::Policy, policy}, &cal);
}

FastCalibration
calibrateFast(const BenchmarkInfo &bench, const RunConfig &config,
              const RunOutput &convDetailed)
{
    if (!config.resultCache)
        return measureCalibration(bench, config, convDetailed);

    const sim::ConfigKey key =
        runKey(bench, config, L1Spec{}, nullptr, "calibrate");
    sim::ResultCache::Fields f;
    FastCalibration cal;
    if (config.resultCache->lookup(key, f) &&
        parseField(f, "base_cpi", cal.baseCpi) &&
        parseField(f, "miss_overlap", cal.missOverlap))
        return cal;

    cal = measureCalibration(bench, config, convDetailed);
    sim::ResultCache::Fields out;
    out["base_cpi"] = doubleField(cal.baseCpi);
    out["miss_overlap"] = doubleField(cal.missOverlap);
    config.resultCache->store(key, out);
    return cal;
}

std::vector<std::string>
cmpBenchNames(const CmpConfig &cmp, const std::string &defaultBench)
{
    std::vector<std::string> names;
    names.reserve(cmp.cores);
    for (unsigned k = 0; k < cmp.cores; ++k) {
        const CmpCoreConfig cfg = cmp.coreConfig(k);
        names.push_back(cfg.bench.empty() ? defaultBench
                                          : cfg.bench);
    }
    return names;
}

sim::ConfigKey
runKeyCmp(const RunConfig &config, const CmpConfig &cmp,
          const std::string &defaultBench)
{
    sim::ConfigKey k;
    k.add("mode", "cmp");
    k.add("instrs", config.maxInstrs);
    k.add("cores", static_cast<std::uint64_t>(cmp.cores));
    k.add("quantum", cmp.quantum);
    k.add("bus.banks", static_cast<std::uint64_t>(cmp.l2Banks));
    k.add("bus.penalty",
          static_cast<std::uint64_t>(cmp.l2ContentionPenalty));
    addMemoryKey(k, config.hier);
    const std::vector<std::string> names =
        cmpBenchNames(cmp, defaultBench);
    for (unsigned c = 0; c < cmp.cores; ++c) {
        const CmpCoreConfig cc = cmp.coreConfig(c);
        const std::string p = "core" + std::to_string(c);
        k.add(p + ".bench", names[c]);
        k.add(p + ".dri", cc.dri);
        if (cc.dri)
            addPolicyKey(k, p, "policy",
                         {cc.policyKind, cc.driParams, cc.decay,
                          cc.drowsy, cc.ways});
    }
    // Conditional like dram.banked: non-coherent keys carry no
    // coherence columns, but a coherent run can never collide with
    // a non-coherent one (or with a differently-sized directory).
    if (cmp.coherence.enabled) {
        k.add("coh.enabled", true);
        k.add("coh.entries", cmp.coherence.directoryEntries);
        k.add("coh.msg_latency",
              static_cast<std::uint64_t>(cmp.coherence.msgLatency));
    }
    return k;
}

CmpRunOutput
runCmp(const RunConfig &config, const CmpConfig &cmp,
       const std::string &defaultBench)
{
    const std::vector<std::string> names =
        cmpBenchNames(cmp, defaultBench);
    std::vector<const ProgramImage *> images;
    images.reserve(names.size());
    for (const std::string &name : names)
        images.push_back(&imageFor(findBenchmark(name)));

    stats::StatGroup root("cmp");
    CmpSystem sys(cmp, config.hier, config.core, images, &root);
    obs::ScopedSpan runSpan(obs::trace(), "run",
                            defaultBench + "/cmp");
    if (obs::metrics())
        sys.setObsSeries(
            defaultBench + "/cmp#" +
            runKeyCmp(config, cmp, defaultBench).hashHex());
    CmpRunOutput out = sys.run(config.maxInstrs);
    for (std::size_t k = 0; k < out.cores.size(); ++k)
        out.cores[k].bench = names[k];
    return out;
}

} // namespace drisim
