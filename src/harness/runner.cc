/**
 * @file
 * Run orchestration: builds the workload, wires hierarchy and core,
 * runs, and extracts measurements.
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

#include "core/dri_icache.hh"
#include "cpu/simple_core.hh"
#include "obs/metrics.hh"
#include "obs/probe.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"
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

RunMeasurement
measurementFromCounts(Cycles cycles, InstCount instrs,
                      std::uint64_t accesses, std::uint64_t misses,
                      double activeFraction, unsigned resizingBits,
                      std::uint64_t l1iBytes)
{
    RunMeasurement m;
    m.cycles = cycles;
    m.instructions = instrs;
    m.l1iAccesses = accesses;
    m.l1iMisses = misses;
    m.avgActiveFraction = activeFraction;
    m.resizingTagBits = resizingBits;
    m.l1iBytes = l1iBytes;
    return m;
}

/**
 * Copy the L2 view of a finished run into @p out, whatever flavour
 * of L2 the hierarchy was built with.
 */
void
fillL2Outputs(Hierarchy &hier, RunOutput &out)
{
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
        out.mshrCoalesced += l2->mshrCoalesced();
        out.mshrFullStalls += l2->mshrFullStalls();
        out.mshrFullStallCycles += l2->mshrFullStallCycles();
        out.mshrPeakOccupancy = std::max(out.mshrPeakOccupancy,
                                         l2->mshrPeakOccupancy());
    } else {
        out.l2SizeBytes = hier.params().l2.sizeBytes;
        out.mshrCoalesced += hier.l2().mshrCoalesced();
        out.mshrFullStalls += hier.l2().mshrFullStalls();
        out.mshrFullStallCycles += hier.l2().mshrFullStallCycles();
        out.mshrPeakOccupancy = std::max(
            out.mshrPeakOccupancy, hier.l2().mshrPeakOccupancy());
    }
    out.mshrCoalesced += hier.l1d().mshrCoalesced();
    out.mshrFullStalls += hier.l1d().mshrFullStalls();
    out.mshrFullStallCycles += hier.l1d().mshrFullStallCycles();
    out.mshrPeakOccupancy = std::max(out.mshrPeakOccupancy,
                                     hier.l1d().mshrPeakOccupancy());
    if (Cache *l1i = hier.convL1i()) {
        out.mshrCoalesced += l1i->mshrCoalesced();
        out.mshrFullStalls += l1i->mshrFullStalls();
        out.mshrFullStallCycles += l1i->mshrFullStallCycles();
        out.mshrPeakOccupancy = std::max(out.mshrPeakOccupancy,
                                         l1i->mshrPeakOccupancy());
    }
}

// ------------------------------------------------------------------
// Canonical run keys (see runner.hh: every result-bearing knob, no
// execution-strategy knobs)
// ------------------------------------------------------------------

void
addCacheKey(sim::ConfigKey &k, const std::string &p,
            const CacheParams &c)
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
    k.add(p + ".size", d.sizeBytes);
    k.add(p + ".assoc", static_cast<std::uint64_t>(d.assoc));
    k.add(p + ".block", static_cast<std::uint64_t>(d.blockBytes));
    k.add(p + ".lat", static_cast<std::uint64_t>(d.hitLatency));
    k.add(p + ".repl", static_cast<std::uint64_t>(d.repl));
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
    // Conditional so every pre-MSHR key (and hash) is unchanged.
    if (d.mshrs != 0)
        k.add(p + ".mshrs", static_cast<std::uint64_t>(d.mshrs));
}

void
addPolicyKey(sim::ConfigKey &k, const PolicyConfig &p)
{
    k.add("pol.kind", static_cast<std::uint64_t>(p.kind));
    addDriKey(k, "pol.dri", p.dri);
    k.add("pol.decay_interval", p.decay.decayInterval);
    k.add("pol.counter_limit",
          static_cast<std::uint64_t>(p.decay.counterLimit));
    k.add("pol.drowsy_interval", p.drowsy.drowsyInterval);
    k.add("pol.wake_latency",
          static_cast<std::uint64_t>(p.drowsy.wakeLatency));
    k.add("pol.active_ways",
          static_cast<std::uint64_t>(p.ways.activeWays));
}

void
addCalKey(sim::ConfigKey &k, const FastCalibration &cal)
{
    k.addDouble("cal.base_cpi", cal.baseCpi);
    k.addDouble("cal.miss_overlap", cal.missOverlap);
}

sim::ConfigKey
baseRunKey(const BenchmarkInfo &bench, const RunConfig &config)
{
    // The key names the program, not its spec: refuse a second spec
    // under a name already in use.
    imageCache().claim(bench);
    sim::ConfigKey k;
    k.add("bench", bench.name);
    k.add("instrs", config.maxInstrs);
    addCacheKey(k, "l1i", config.hier.l1i);
    addCacheKey(k, "l1d", config.hier.l1d);
    addCacheKey(k, "l2", config.hier.l2);
    k.add("l2_dri", config.hier.l2Dri);
    if (config.hier.l2Dri)
        addDriKey(k, "l2dri", config.hier.l2DriParams);

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
    // Conditional, like sample: flat-memory hashes stay stable.
    if (config.hier.dram.banked) {
        const DramParams &d = config.hier.dram;
        k.add("dram.banked", true);
        k.add("dram.banks", static_cast<std::uint64_t>(d.banks));
        k.add("dram.row_hit", d.rowHitLatency);
        k.add("dram.row_miss", d.rowMissLatency);
        k.add("dram.queue",
              static_cast<std::uint64_t>(d.queueDepth));
        k.add("dram.row_bytes",
              static_cast<std::uint64_t>(d.rowBytes));
    }
    return k;
}

// ------------------------------------------------------------------
// RunOutput <-> result-cache fields (exact string round-trip)
// ------------------------------------------------------------------

std::string
doubleField(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

bool
fieldU64(const sim::ResultCache::Fields &f, const char *name,
         std::uint64_t &out)
{
    const auto it = f.find(name);
    if (it == f.end() || it->second.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(it->second.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
fieldF64(const sim::ResultCache::Fields &f, const char *name,
         double &out)
{
    const auto it = f.find(name);
    if (it == f.end() || it->second.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0')
        return false;
    out = v;
    return true;
}

sim::ResultCache::Fields
runOutputToFields(const RunOutput &out)
{
    sim::ResultCache::Fields f;
    // Payload layout version: bumped when fields are added so
    // pre-existing sidecar entries (which lack the new columns)
    // miss cleanly instead of being served with silent zeros.
    f["payload_v"] = "2";
    f["cycles"] = std::to_string(out.meas.cycles);
    f["instructions"] = std::to_string(out.meas.instructions);
    f["l1i_accesses"] = std::to_string(out.meas.l1iAccesses);
    f["l1i_misses"] = std::to_string(out.meas.l1iMisses);
    f["l1i_active_fraction"] = doubleField(out.meas.avgActiveFraction);
    f["l1i_tag_bits"] = std::to_string(out.meas.resizingTagBits);
    f["l1i_bytes"] = std::to_string(out.meas.l1iBytes);
    f["ipc"] = doubleField(out.ipc);
    f["l1d_miss_rate"] = doubleField(out.l1dMissRate);
    f["l2_miss_rate"] = doubleField(out.l2MissRate);
    f["l2_accesses"] = std::to_string(out.l2Accesses);
    f["l2_misses"] = std::to_string(out.l2Misses);
    f["mem_accesses"] = std::to_string(out.memAccesses);
    f["mem_reads"] = std::to_string(out.memReads);
    f["mem_writebacks"] = std::to_string(out.memWritebacks);
    f["mshr_coalesced"] = std::to_string(out.mshrCoalesced);
    f["mshr_full_stalls"] = std::to_string(out.mshrFullStalls);
    f["mshr_full_stall_cycles"] =
        std::to_string(out.mshrFullStallCycles);
    f["mshr_peak_occupancy"] = std::to_string(out.mshrPeakOccupancy);
    f["dram_row_hits"] = std::to_string(out.dramRowHits);
    f["dram_row_misses"] = std::to_string(out.dramRowMisses);
    f["dram_queue_full"] = std::to_string(out.dramQueueFullEvents);
    f["dram_busy_cycles"] = std::to_string(out.dramBusyCycles);
    f["resizes"] = std::to_string(out.resizes);
    f["throttle_events"] = std::to_string(out.throttleEvents);
    f["l2_size_bytes"] = std::to_string(out.l2SizeBytes);
    f["l2_active_fraction"] = doubleField(out.l2AvgActiveFraction);
    f["l2_tag_bits"] = std::to_string(out.l2ResizingTagBits);
    f["l2_resizes"] = std::to_string(out.l2Resizes);
    f["l1_drowsy_fraction"] = doubleField(out.l1DrowsyFraction);
    f["wake_transitions"] = std::to_string(out.wakeTransitions);
    f["wake_stall_cycles"] = std::to_string(out.wakeStallCycles);
    f["policy_blocks_lost"] = std::to_string(out.policyBlocksLost);
    return f;
}

/** Strict: any absent or malformed field rejects the entry, and the
 *  payload layout version must match exactly — entries written by a
 *  binary with a different column set miss and are recomputed. */
bool
runOutputFromFields(const sim::ResultCache::Fields &f, RunOutput &out)
{
    const auto pv = f.find("payload_v");
    if (pv == f.end() || pv->second != "2")
        return false;
    std::uint64_t u = 0;
    if (!fieldU64(f, "cycles", u))
        return false;
    out.meas.cycles = u;
    if (!fieldU64(f, "instructions", u))
        return false;
    out.meas.instructions = u;
    if (!fieldU64(f, "l1i_accesses", out.meas.l1iAccesses) ||
        !fieldU64(f, "l1i_misses", out.meas.l1iMisses) ||
        !fieldF64(f, "l1i_active_fraction",
                  out.meas.avgActiveFraction))
        return false;
    if (!fieldU64(f, "l1i_tag_bits", u))
        return false;
    out.meas.resizingTagBits = static_cast<unsigned>(u);
    if (!fieldU64(f, "l1i_bytes", out.meas.l1iBytes) ||
        !fieldF64(f, "ipc", out.ipc) ||
        !fieldF64(f, "l1d_miss_rate", out.l1dMissRate) ||
        !fieldF64(f, "l2_miss_rate", out.l2MissRate) ||
        !fieldU64(f, "l2_accesses", out.l2Accesses) ||
        !fieldU64(f, "l2_misses", out.l2Misses) ||
        !fieldU64(f, "mem_accesses", out.memAccesses) ||
        !fieldU64(f, "mem_reads", out.memReads) ||
        !fieldU64(f, "mem_writebacks", out.memWritebacks) ||
        !fieldU64(f, "mshr_coalesced", out.mshrCoalesced) ||
        !fieldU64(f, "mshr_full_stalls", out.mshrFullStalls) ||
        !fieldU64(f, "mshr_full_stall_cycles",
                  out.mshrFullStallCycles) ||
        !fieldU64(f, "mshr_peak_occupancy", out.mshrPeakOccupancy) ||
        !fieldU64(f, "dram_row_hits", out.dramRowHits) ||
        !fieldU64(f, "dram_row_misses", out.dramRowMisses) ||
        !fieldU64(f, "dram_queue_full", out.dramQueueFullEvents) ||
        !fieldU64(f, "dram_busy_cycles", out.dramBusyCycles) ||
        !fieldU64(f, "resizes", out.resizes) ||
        !fieldU64(f, "throttle_events", out.throttleEvents) ||
        !fieldU64(f, "l2_size_bytes", out.l2SizeBytes) ||
        !fieldF64(f, "l2_active_fraction", out.l2AvgActiveFraction))
        return false;
    if (!fieldU64(f, "l2_tag_bits", u))
        return false;
    out.l2ResizingTagBits = static_cast<unsigned>(u);
    if (!fieldU64(f, "l2_resizes", out.l2Resizes) ||
        !fieldF64(f, "l1_drowsy_fraction", out.l1DrowsyFraction) ||
        !fieldU64(f, "wake_transitions", out.wakeTransitions) ||
        !fieldU64(f, "wake_stall_cycles", out.wakeStallCycles) ||
        !fieldU64(f, "policy_blocks_lost", out.policyBlocksLost))
        return false;
    return true;
}

/**
 * Serve @p key from the result cache when possible, else compute via
 * @p impl and store. A hit whose payload fails strict field parsing
 * is recomputed and overwritten, never served.
 */
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
 * continue. The split is aligned to the fast model's retire batch
 * (64) so both core models continue bit-identically. Disabled (plain
 * full run) when no checkpoint directory is configured or the run is
 * too short to split.
 */
template <typename Snap, typename Restore>
CoreStats
runCheckpointed(const RunConfig &config, const sim::ConfigKey &key,
                Core &core, TraceGenerator &gen, Snap &&snapExtra,
                Restore &&restoreExtra)
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
            restoreExtra(r);
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
        snapExtra(w);
        w.endSection();
        store.save(storeKey, w.bytes());
    }
    return core.run(gen, total - split);
}

/** The series a run's trace span and interval samples share. */
std::string
obsSeries(const BenchmarkInfo &bench, const char *mode,
          const sim::ConfigKey &key)
{
    return bench.name + "/" + mode + "#" + key.hashHex();
}

/**
 * Per-interval differencing over a probe registry of *cumulative*
 * readouts (obs/probe.hh). Entry points register probes under the
 * canonical names below; sample() derives the already-differenced
 * interval metrics the CSV carries — interval CPI and miss rates,
 * active/drowsy fractions from the cycle-area integrals, resize and
 * wake deltas, the instantaneous active-byte count.
 */
class IntervalSampler
{
  public:
    explicit IntervalSampler(std::string series)
        : series_(std::move(series))
    {
    }

    obs::MetricRegistry &registry() { return reg_; }

    void sample(const CoreStats &cs)
    {
        obs::TimeSeriesRecorder *m = obs::metrics();
        if (!m)
            return;
        std::map<std::string, double> cur;
        for (auto &[name, value] : reg_.sample())
            cur[name] = value;
        const auto has = [&cur](const char *name) {
            return cur.count(name) > 0;
        };

        const double dc = delta(cur, "cycles");
        const double di =
            static_cast<double>(cs.instructions) - prevInstrs_;

        std::vector<std::pair<std::string, double>> out;
        out.emplace_back("cycles", dc);
        out.emplace_back("cpi", di > 0.0 ? dc / di : 0.0);
        missRate(cur, "l1i", out);
        missRate(cur, "l1d", out);
        missRate(cur, "l2", out);

        const bool hasActive = has("active_cycle_area");
        double activeFraction = 1.0;
        if (hasActive) {
            activeFraction =
                fraction(delta(cur, "active_cycle_area"), dc);
            out.emplace_back("active_fraction", activeFraction);
        }
        if (has("drowsy_cycle_area"))
            out.emplace_back(
                "drowsy_fraction",
                fraction(delta(cur, "drowsy_cycle_area"), dc));
        if (has("active_bytes")) {
            out.emplace_back("active_bytes",
                             cur.at("active_bytes"));
        } else if (has("l1i_size_bytes")) {
            // No instantaneous size probe (time-integrated
            // policies): reconstruct the interval's average active
            // bytes from the fraction.
            out.emplace_back("active_bytes",
                             activeFraction *
                                 cur.at("l1i_size_bytes"));
        }
        for (const char *counter :
             {"resizes", "wakes", "wake_stall_cycles",
              "dram_busy_cycles", "coherence_invalidations",
              "coherence_wakes", "coherence_refetches"})
            if (has(counter))
                out.emplace_back(counter, delta(cur, counter));
        if (has("mshr_peak_occupancy"))
            out.emplace_back("mshr_peak_occupancy",
                             cur.at("mshr_peak_occupancy"));

        m->record(series_, cs.instructions, std::move(out));
        prev_ = std::move(cur);
        prevInstrs_ = static_cast<double>(cs.instructions);
    }

  private:
    double delta(const std::map<std::string, double> &cur,
                 const std::string &name)
    {
        const auto it = cur.find(name);
        if (it == cur.end())
            return 0.0;
        const auto pit = prev_.find(name);
        return it->second -
               (pit == prev_.end() ? 0.0 : pit->second);
    }

    static double fraction(double area, double cycles)
    {
        if (cycles <= 0.0)
            return 0.0;
        return std::min(1.0, std::max(0.0, area / cycles));
    }

    void missRate(const std::map<std::string, double> &cur,
                  const std::string &level,
                  std::vector<std::pair<std::string, double>> &out)
    {
        if (cur.count(level + "_accesses") == 0)
            return;
        const double da = delta(cur, level + "_accesses");
        const double dm = delta(cur, level + "_misses");
        out.emplace_back(level + "_miss_rate",
                         da > 0.0 ? dm / da : 0.0);
    }

    std::string series_;
    obs::MetricRegistry reg_;
    std::map<std::string, double> prev_;
    double prevInstrs_ = 0.0;
};

/** Common probes: core clock, D-side/L2 hierarchy counters. */
void
addHierProbes(obs::MetricRegistry &reg, Core &core, Hierarchy &hier)
{
    reg.add("cycles", [&core] {
        return static_cast<double>(core.stats().cycles);
    });
    reg.add("l1d_accesses", [&hier] {
        return static_cast<double>(hier.l1d().accesses());
    });
    reg.add("l1d_misses", [&hier] {
        return static_cast<double>(hier.l1d().misses());
    });
    reg.add("l2_accesses", [&hier] {
        return static_cast<double>(hier.l2Accesses());
    });
    reg.add("l2_misses", [&hier] {
        return static_cast<double>(hier.l2Misses());
    });
    reg.add("mshr_peak_occupancy", [&hier] {
        return static_cast<double>(
            hier.l1d().mshrPeakOccupancy());
    });
    if (Dram *d = hier.dram())
        reg.add("dram_busy_cycles", [d] {
            return static_cast<double>(d->busyCycles());
        });
}

/** Conventional L1I: full-size, always active. */
void
addConvL1iProbes(obs::MetricRegistry &reg, Cache &l1i,
                 std::uint64_t sizeBytes)
{
    reg.add("l1i_accesses", [&l1i] {
        return static_cast<double>(l1i.accesses());
    });
    reg.add("l1i_misses", [&l1i] {
        return static_cast<double>(l1i.misses());
    });
    reg.add("active_bytes", [sizeBytes] {
        return static_cast<double>(sizeBytes);
    });
}

/** DRI L1I: instantaneous size plus the active-area integral. */
void
addDriL1iProbes(obs::MetricRegistry &reg, DriICache &icache,
                Core &core)
{
    reg.add("l1i_accesses", [&icache] {
        return static_cast<double>(icache.accesses());
    });
    reg.add("l1i_misses", [&icache] {
        return static_cast<double>(icache.misses());
    });
    reg.add("active_cycle_area", [&icache, &core] {
        return icache.averageActiveFraction() *
               static_cast<double>(core.stats().cycles);
    });
    reg.add("active_bytes", [&icache] {
        return static_cast<double>(icache.currentSizeBytes());
    });
    reg.add("resizes", [&icache] {
        return static_cast<double>(icache.upsizes() +
                                   icache.downsizes());
    });
}

/** Leakage-policy L1I: time-integrated activity + wake events. */
void
addPolicyL1iProbes(obs::MetricRegistry &reg, LeakagePolicy &policy,
                   Core &core, std::uint64_t sizeBytes)
{
    reg.add("l1i_accesses", [&policy] {
        return static_cast<double>(policy.l1Accesses());
    });
    reg.add("l1i_misses", [&policy] {
        return static_cast<double>(policy.l1Misses());
    });
    reg.add("l1i_size_bytes", [sizeBytes] {
        return static_cast<double>(sizeBytes);
    });
    reg.add("active_cycle_area", [&policy, &core] {
        return policy.activity().avgActiveFraction *
               static_cast<double>(core.stats().cycles);
    });
    reg.add("drowsy_cycle_area", [&policy, &core] {
        return policy.activity().avgDrowsyFraction *
               static_cast<double>(core.stats().cycles);
    });
    reg.add("resizes", [&policy] {
        return static_cast<double>(policy.activity().resizes);
    });
    reg.add("wakes", [&policy] {
        return static_cast<double>(
            policy.activity().wakeTransitions);
    });
    reg.add("wake_stall_cycles", [&policy] {
        return static_cast<double>(
            policy.activity().wakeStallCycles);
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
template <typename Sampler>
CoreStats
runMetered(Core &core, TraceGenerator &gen, InstCount total,
           Sampler &&sample)
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
        sample(cs);
        if (ran < chunk)
            break; // stream drained
    }
    return cs;
}

} // namespace

sim::ConfigKey
runKeyConventional(const BenchmarkInfo &bench, const RunConfig &config)
{
    sim::ConfigKey k = baseRunKey(bench, config);
    k.add("mode", "conv");
    return k;
}

sim::ConfigKey
runKeyDri(const BenchmarkInfo &bench, const RunConfig &config,
          const DriParams &dri)
{
    sim::ConfigKey k = baseRunKey(bench, config);
    k.add("mode", "dri");
    addDriKey(k, "dri", dri);
    return k;
}

sim::ConfigKey
runKeyPolicy(const BenchmarkInfo &bench, const RunConfig &config,
             const PolicyConfig &policy)
{
    sim::ConfigKey k = baseRunKey(bench, config);
    k.add("mode", "policy");
    addPolicyKey(k, policy);
    return k;
}

sim::ConfigKey
runKeyCalibrate(const BenchmarkInfo &bench, const RunConfig &config)
{
    sim::ConfigKey k = baseRunKey(bench, config);
    k.add("mode", "calibrate");
    return k;
}

sim::ConfigKey
runKeyConventionalFast(const BenchmarkInfo &bench,
                       const RunConfig &config,
                       const FastCalibration &cal)
{
    sim::ConfigKey k = baseRunKey(bench, config);
    k.add("mode", "conv_fast");
    addCalKey(k, cal);
    return k;
}

sim::ConfigKey
runKeyDriFast(const BenchmarkInfo &bench, const RunConfig &config,
              const DriParams &dri, const FastCalibration &cal)
{
    sim::ConfigKey k = baseRunKey(bench, config);
    k.add("mode", "dri_fast");
    addDriKey(k, "dri", dri);
    addCalKey(k, cal);
    return k;
}

sim::ConfigKey
runKeyPolicyFast(const BenchmarkInfo &bench, const RunConfig &config,
                 const PolicyConfig &policy, const FastCalibration &cal)
{
    sim::ConfigKey k = baseRunKey(bench, config);
    k.add("mode", "policy_fast");
    addPolicyKey(k, policy);
    addCalKey(k, cal);
    return k;
}

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

RunOutput
runConventional(const BenchmarkInfo &bench, const RunConfig &config)
{
    const sim::ConfigKey key = runKeyConventional(bench, config);
    return memoizedRun(config, key, [&] {
        const std::string series = obsSeries(bench, "conv", key);
        obs::ScopedSpan runSpan(obs::trace(), "run", series);
        stats::StatGroup root("sim");
        Hierarchy hier(config.hier, &root, true);
        OooCore core(config.core, hier.l1i(), &hier.l1d(), &root);
        core.addResizable(hier.driL2());

        TraceGenerator gen(imageFor(bench));
        CoreStats cs;
        if (config.sampling.enabled) {
            cs = sim::runSampled(core, hier.l1i(), &hier.l1d(), gen,
                                 config.maxInstrs, config.sampling,
                                 config.core.fetchBlockBytes);
        } else if (obs::metrics()) {
            IntervalSampler sampler(series);
            addHierProbes(sampler.registry(), core, hier);
            addConvL1iProbes(sampler.registry(), *hier.convL1i(),
                             config.hier.l1i.sizeBytes);
            cs = runMetered(core, gen, config.maxInstrs,
                            [&](const CoreStats &s) {
                                sampler.sample(s);
                            });
        } else {
            cs = runCheckpointed(
                config, key, core, gen,
                [&](sim::CheckpointWriter &w) {
                    hier.snapshotTo(w);
                },
                [&](sim::CheckpointReader &r) {
                    hier.restoreFrom(r);
                });
        }

        RunOutput out;
        Cache *l1i = hier.convL1i();
        out.meas = measurementFromCounts(
            cs.cycles, cs.instructions, l1i->accesses(),
            l1i->misses(), 1.0, 0, config.hier.l1i.sizeBytes);
        out.ipc = cs.ipc();
        out.l1dMissRate = hier.l1d().missRate();
        fillL2Outputs(hier, out);
        return out;
    });
}

RunOutput
runDri(const BenchmarkInfo &bench, const RunConfig &config,
       const DriParams &dri)
{
    const sim::ConfigKey key = runKeyDri(bench, config, dri);
    return memoizedRun(config, key, [&] {
        const std::string series = obsSeries(bench, "dri", key);
        obs::ScopedSpan runSpan(obs::trace(), "run", series);
        stats::StatGroup root("sim");
        Hierarchy hier(config.hier, &root, false);
        DriICache icache(dri, hier.l2Level(), &root);
        hier.setL1I(&icache);
        OooCore core(config.core, &icache, &hier.l1d(), &root);
        core.setDri(&icache);
        core.addResizable(hier.driL2());

        TraceGenerator gen(imageFor(bench));
        CoreStats cs;
        if (config.sampling.enabled) {
            cs = sim::runSampled(core, &icache, &hier.l1d(), gen,
                                 config.maxInstrs, config.sampling,
                                 config.core.fetchBlockBytes);
        } else if (obs::metrics()) {
            IntervalSampler sampler(series);
            addHierProbes(sampler.registry(), core, hier);
            addDriL1iProbes(sampler.registry(), icache, core);
            cs = runMetered(core, gen, config.maxInstrs,
                            [&](const CoreStats &s) {
                                sampler.sample(s);
                            });
        } else {
            cs = runCheckpointed(
                config, key, core, gen,
                [&](sim::CheckpointWriter &w) {
                    hier.snapshotTo(w);
                    icache.snapshotTo(w);
                },
                [&](sim::CheckpointReader &r) {
                    hier.restoreFrom(r);
                    icache.restoreFrom(r);
                });
        }

        RunOutput out;
        out.meas = measurementFromCounts(
            cs.cycles, cs.instructions, icache.accesses(),
            icache.misses(), icache.averageActiveFraction(),
            dri.resizingTagBits(), dri.sizeBytes);
        out.ipc = cs.ipc();
        out.l1dMissRate = hier.l1d().missRate();
        fillL2Outputs(hier, out);
        out.resizes = icache.upsizes() + icache.downsizes();
        out.throttleEvents = icache.controller().throttleEvents();
        return out;
    });
}

namespace
{

FastCalibration
calibrateFastImpl(const BenchmarkInfo &bench, const RunConfig &config,
                  const RunOutput &convDetailed)
{
    FastCalibration cal;
    obs::ScopedSpan runSpan(obs::trace(), "run",
                            bench.name + "/calibrate");
    // Measure the conventional fetch-miss stall with the fast model
    // (independent of CPI), then solve baseCpi so the fast model
    // reproduces the detailed conventional cycle count.
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

FastCalibration
calibrateFast(const BenchmarkInfo &bench, const RunConfig &config,
              const RunOutput &convDetailed)
{
    if (!config.resultCache)
        return calibrateFastImpl(bench, config, convDetailed);

    const sim::ConfigKey key = runKeyCalibrate(bench, config);
    sim::ResultCache::Fields f;
    FastCalibration cal;
    if (config.resultCache->lookup(key, f) &&
        fieldF64(f, "base_cpi", cal.baseCpi) &&
        fieldF64(f, "miss_overlap", cal.missOverlap))
        return cal;

    cal = calibrateFastImpl(bench, config, convDetailed);
    sim::ResultCache::Fields out;
    out["base_cpi"] = doubleField(cal.baseCpi);
    out["miss_overlap"] = doubleField(cal.missOverlap);
    config.resultCache->store(key, out);
    return cal;
}

RunOutput
runConventionalFast(const BenchmarkInfo &bench, const RunConfig &config,
                    const FastCalibration &cal)
{
    const sim::ConfigKey key =
        runKeyConventionalFast(bench, config, cal);
    return memoizedRun(config, key, [&] {
        const std::string series = obsSeries(bench, "conv-fast", key);
        obs::ScopedSpan runSpan(obs::trace(), "run", series);
        stats::StatGroup root("fast");
        Hierarchy hier(config.hier, &root, true);
        SimpleCoreParams scp;
        scp.baseCpi = cal.baseCpi;
        scp.missOverlap = cal.missOverlap;
        scp.fetchBlockBytes = config.hier.l1i.blockBytes;
        SimpleCore fast(scp, hier.l1i());
        fast.addResizable(hier.driL2());
        TraceGenerator gen(imageFor(bench));
        CoreStats cs;
        if (obs::metrics()) {
            IntervalSampler sampler(series);
            addHierProbes(sampler.registry(), fast, hier);
            addConvL1iProbes(sampler.registry(), *hier.convL1i(),
                             config.hier.l1i.sizeBytes);
            cs = runMetered(fast, gen, config.maxInstrs,
                            [&](const CoreStats &s) {
                                sampler.sample(s);
                            });
        } else {
            cs = runCheckpointed(
                config, key, fast, gen,
                [&](sim::CheckpointWriter &w) {
                    hier.snapshotTo(w);
                },
                [&](sim::CheckpointReader &r) {
                    hier.restoreFrom(r);
                });
        }

        RunOutput out;
        Cache *l1i = hier.convL1i();
        out.meas = measurementFromCounts(
            cs.cycles, cs.instructions, l1i->accesses(),
            l1i->misses(), 1.0, 0, config.hier.l1i.sizeBytes);
        out.ipc = cs.ipc();
        fillL2Outputs(hier, out);
        return out;
    });
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
    addCacheKey(k, "l1i", config.hier.l1i);
    addCacheKey(k, "l1d", config.hier.l1d);
    addCacheKey(k, "l2", config.hier.l2);
    k.add("l2_dri", config.hier.l2Dri);
    if (config.hier.l2Dri)
        addDriKey(k, "l2dri", config.hier.l2DriParams);
    if (config.hier.dram.banked) {
        const DramParams &d = config.hier.dram;
        k.add("dram.banked", true);
        k.add("dram.banks", static_cast<std::uint64_t>(d.banks));
        k.add("dram.row_hit", d.rowHitLatency);
        k.add("dram.row_miss", d.rowMissLatency);
        k.add("dram.queue", static_cast<std::uint64_t>(d.queueDepth));
        k.add("dram.row_bytes",
              static_cast<std::uint64_t>(d.rowBytes));
    }
    const std::vector<std::string> names =
        cmpBenchNames(cmp, defaultBench);
    for (unsigned c = 0; c < cmp.cores; ++c) {
        const CmpCoreConfig cc = cmp.coreConfig(c);
        const std::string p = "core" + std::to_string(c);
        k.add(p + ".bench", names[c]);
        k.add(p + ".dri", cc.dri);
        if (cc.dri) {
            k.add(p + ".policy",
                  static_cast<std::uint64_t>(cc.policyKind));
            addDriKey(k, p + ".dri", cc.driParams);
            k.add(p + ".decay_interval", cc.decay.decayInterval);
            k.add(p + ".counter_limit",
                  static_cast<std::uint64_t>(cc.decay.counterLimit));
            k.add(p + ".drowsy_interval", cc.drowsy.drowsyInterval);
            k.add(p + ".wake_latency",
                  static_cast<std::uint64_t>(cc.drowsy.wakeLatency));
            k.add(p + ".active_ways",
                  static_cast<std::uint64_t>(cc.ways.activeWays));
        }
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

namespace
{

/** Copy a finished policy's activity into @p out. */
void
fillPolicyOutputs(const LeakagePolicy &policy,
                  const PolicyConfig &config, CoreStats cs,
                  RunOutput &out)
{
    const PolicyActivity act = policy.activity();
    out.meas = measurementFromCounts(
        cs.cycles, cs.instructions, policy.l1Accesses(),
        policy.l1Misses(), act.avgActiveFraction,
        act.resizingTagBits, config.dri.sizeBytes);
    out.ipc = cs.ipc();
    out.l1DrowsyFraction = act.avgDrowsyFraction;
    out.wakeTransitions = act.wakeTransitions;
    out.wakeStallCycles = act.wakeStallCycles;
    out.policyBlocksLost = act.blocksLost;
    out.resizes = act.resizes;
    out.throttleEvents = act.throttleEvents;
}

} // namespace

RunOutput
runPolicy(const BenchmarkInfo &bench, const RunConfig &config,
          const PolicyConfig &policy)
{
    const sim::ConfigKey key = runKeyPolicy(bench, config, policy);
    return memoizedRun(config, key, [&] {
        const std::string series = obsSeries(bench, "policy", key);
        obs::ScopedSpan runSpan(obs::trace(), "run", series);
        stats::StatGroup root("sim");
        Hierarchy hier(config.hier, &root, false);
        std::unique_ptr<LeakagePolicy> l1i =
            makeLeakagePolicy(policy, hier.l2Level(), &root);
        hier.setL1I(l1i->level());
        OooCore core(config.core, l1i->level(), &hier.l1d(), &root);
        core.addRetireSink(l1i.get());
        core.addResizable(hier.driL2());

        TraceGenerator gen(imageFor(bench));
        CoreStats cs;
        if (config.sampling.enabled) {
            cs = sim::runSampled(core, l1i->level(), &hier.l1d(),
                                 gen, config.maxInstrs,
                                 config.sampling,
                                 config.core.fetchBlockBytes);
        } else if (obs::metrics()) {
            IntervalSampler sampler(series);
            addHierProbes(sampler.registry(), core, hier);
            addPolicyL1iProbes(sampler.registry(), *l1i, core,
                               policy.dri.sizeBytes);
            cs = runMetered(core, gen, config.maxInstrs,
                            [&](const CoreStats &s) {
                                sampler.sample(s);
                            });
        } else {
            cs = runCheckpointed(
                config, key, core, gen,
                [&](sim::CheckpointWriter &w) {
                    hier.snapshotTo(w);
                    l1i->snapshotTo(w);
                },
                [&](sim::CheckpointReader &r) {
                    hier.restoreFrom(r);
                    l1i->restoreFrom(r);
                });
        }

        RunOutput out;
        fillPolicyOutputs(*l1i, policy, cs, out);
        out.l1dMissRate = hier.l1d().missRate();
        fillL2Outputs(hier, out);
        return out;
    });
}

RunOutput
runPolicyFast(const BenchmarkInfo &bench, const RunConfig &config,
              const PolicyConfig &policy, const FastCalibration &cal)
{
    const sim::ConfigKey key =
        runKeyPolicyFast(bench, config, policy, cal);
    return memoizedRun(config, key, [&] {
        const std::string series =
            obsSeries(bench, "policy-fast", key);
        obs::ScopedSpan runSpan(obs::trace(), "run", series);
        stats::StatGroup root("fast");
        Hierarchy hier(config.hier, &root, false);
        std::unique_ptr<LeakagePolicy> l1i =
            makeLeakagePolicy(policy, hier.l2Level(), &root);
        hier.setL1I(l1i->level());
        SimpleCoreParams scp;
        scp.baseCpi = cal.baseCpi;
        scp.missOverlap = cal.missOverlap;
        scp.fetchBlockBytes = policy.dri.blockBytes;
        SimpleCore fast(scp, l1i->level());
        fast.addRetireSink(l1i.get());
        fast.addResizable(hier.driL2());
        TraceGenerator gen(imageFor(bench));
        CoreStats cs;
        if (obs::metrics()) {
            IntervalSampler sampler(series);
            addHierProbes(sampler.registry(), fast, hier);
            addPolicyL1iProbes(sampler.registry(), *l1i, fast,
                               policy.dri.sizeBytes);
            cs = runMetered(fast, gen, config.maxInstrs,
                            [&](const CoreStats &s) {
                                sampler.sample(s);
                            });
        } else {
            cs = runCheckpointed(
                config, key, fast, gen,
                [&](sim::CheckpointWriter &w) {
                    hier.snapshotTo(w);
                    l1i->snapshotTo(w);
                },
                [&](sim::CheckpointReader &r) {
                    hier.restoreFrom(r);
                    l1i->restoreFrom(r);
                });
        }

        RunOutput out;
        fillPolicyOutputs(*l1i, policy, cs, out);
        fillL2Outputs(hier, out);
        return out;
    });
}

RunOutput
runDriFast(const BenchmarkInfo &bench, const RunConfig &config,
           const DriParams &dri, const FastCalibration &cal)
{
    const sim::ConfigKey key = runKeyDriFast(bench, config, dri, cal);
    return memoizedRun(config, key, [&] {
        const std::string series = obsSeries(bench, "dri-fast", key);
        obs::ScopedSpan runSpan(obs::trace(), "run", series);
        stats::StatGroup root("fast");
        Hierarchy hier(config.hier, &root, false);
        DriICache icache(dri, hier.l2Level(), &root);
        hier.setL1I(&icache);
        SimpleCoreParams scp;
        scp.baseCpi = cal.baseCpi;
        scp.missOverlap = cal.missOverlap;
        scp.fetchBlockBytes = dri.blockBytes;
        SimpleCore fast(scp, &icache);
        fast.setDri(&icache);
        fast.addResizable(hier.driL2());
        TraceGenerator gen(imageFor(bench));
        CoreStats cs;
        if (obs::metrics()) {
            IntervalSampler sampler(series);
            addHierProbes(sampler.registry(), fast, hier);
            addDriL1iProbes(sampler.registry(), icache, fast);
            cs = runMetered(fast, gen, config.maxInstrs,
                            [&](const CoreStats &s) {
                                sampler.sample(s);
                            });
        } else {
            cs = runCheckpointed(
                config, key, fast, gen,
                [&](sim::CheckpointWriter &w) {
                    hier.snapshotTo(w);
                    icache.snapshotTo(w);
                },
                [&](sim::CheckpointReader &r) {
                    hier.restoreFrom(r);
                    icache.restoreFrom(r);
                });
        }

        RunOutput out;
        out.meas = measurementFromCounts(
            cs.cycles, cs.instructions, icache.accesses(),
            icache.misses(), icache.averageActiveFraction(),
            dri.resizingTagBits(), dri.sizeBytes);
        out.ipc = cs.ipc();
        fillL2Outputs(hier, out);
        out.resizes = icache.upsizes() + icache.downsizes();
        out.throttleEvents = icache.controller().throttleEvents();
        return out;
    });
}

} // namespace drisim
