/**
 * @file
 * Run orchestration: builds a benchmark's program image, wires the
 * hierarchy and core, runs, and extracts RunMeasurements. Supports
 * the detailed out-of-order model and the fast fetch-driven model
 * (used only for parameter search; see SimpleCore).
 *
 * Every single-core entry point below forwards to one private run
 * path. A run is the benchmark, the RunConfig, an L1I flavour
 * (conventional, DRI or leakage policy; DRI goes through the
 * DriPolicy adapter) and a core model (detailed, or fast with a
 * FastCalibration). What differs per flavour — its key `mode` and
 * fields, its trace/metrics series name, its probes and the
 * RunOutput fields it fills — is one row of a table in runner.cc;
 * memoization, sampling, metering, the checkpoint seam and the
 * L2/memory outputs are shared by all of them.
 */

#ifndef DRISIM_HARNESS_RUNNER_HH
#define DRISIM_HARNESS_RUNNER_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dri_params.hh"
#include "cpu/ooo_core.hh"
#include "farm/shard_plan.hh"
#include "energy/energy_model.hh"
#include "mem/hierarchy.hh"
#include "policy/leakage_policy.hh"
#include "sim/result_cache.hh"
#include "sim/sampling.hh"
#include "system/cmp.hh"
#include "workload/spec_suite.hh"

namespace drisim
{

struct ProgramImage; // workload/cfg.hh

/** Common knobs for one simulation run. */
struct RunConfig
{
    /**
     * Cache geometries (Table 1 defaults). Setting `hier.l2Dri`
     * turns any run — conventional or DRI L1I, fast or detailed —
     * into a multi-level scenario: the L2 is built resizable and is
     * driven by the core's retire/integrate callbacks alongside any
     * DRI L1I.
     */
    HierarchyParams hier{};
    /** Core shape (Table 1 defaults). */
    OooParams core{};
    /** Instructions to simulate. */
    InstCount maxInstrs = 10 * 1000 * 1000;
    /**
     * Worker count for sweep-shaped work (the --jobs knob): 0 defers
     * to the DRISIM_JOBS environment variable, absent which runs are
     * serial. Results are bit-identical at any value; see
     * harness/executor.hh.
     */
    unsigned jobs = 0;

    /**
     * Phase sampling (sim/sampling.hh): detailed windows separated
     * by functional fast-forward. Applies to the detailed entry
     * points only (the fast model is already an approximation);
     * changes results, so it participates in the run key. When
     * enabled, mid-run checkpointing is skipped.
     */
    sim::SamplingConfig sampling{};

    /**
     * Directory for mid-run architectural snapshots ("" = off).
     * A run first looks for a snapshot of its own key at the
     * midpoint; on a hit it restores and simulates only the second
     * half, bit-identically (locked by tests/checkpoint_test.cc).
     */
    std::string checkpointDir;

    /**
     * Sweep-farm shard assignment (--shard K/N, shard=K/N): a
     * sharded bench runs only the sweep units whose stable config
     * hash lands on this shard (farm/shard_plan.hh). Default =
     * unsharded. Execution-only, like jobs: which process ran a
     * unit cannot change its result, so the plan never enters run
     * keys (locked by tests/options_test.cc).
     */
    farm::ShardPlan shard;

    /**
     * Content-addressed result memoization (null = off). Completed
     * RunOutputs are stored under the canonical config hash and
     * served without simulating on later identical runs — across
     * entry points, binaries and processes (sim/result_cache.hh).
     * jobs/checkpointDir/resultCache never enter the key: they
     * cannot change results.
     */
    std::shared_ptr<sim::ResultCache> resultCache;
};

/** What one run produced. */
struct RunOutput
{
    RunMeasurement meas;
    double ipc = 0.0;
    double l1dMissRate = 0.0;
    double l2MissRate = 0.0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t memAccesses = 0;
    /** Memory traffic split: demand fills vs background drains. */
    std::uint64_t memReads = 0;
    std::uint64_t memWritebacks = 0;
    std::uint64_t resizes = 0;
    std::uint64_t throttleEvents = 0;

    /** Non-blocking memory-system activity (all zero under the
     *  default blocking/flat configuration). */
    std::uint64_t mshrCoalesced = 0;
    std::uint64_t mshrFullStalls = 0;
    std::uint64_t mshrFullStallCycles = 0;
    /** Max in-flight misses observed at any one level. */
    std::uint64_t mshrPeakOccupancy = 0;
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowMisses = 0;
    std::uint64_t dramQueueFullEvents = 0;
    std::uint64_t dramBusyCycles = 0;

    /** L2 activity (defaults describe a fixed, fully-powered L2). */
    std::uint64_t l2SizeBytes = 0;
    double l2AvgActiveFraction = 1.0;
    unsigned l2ResizingTagBits = 0;
    std::uint64_t l2Resizes = 0;

    /** Leakage-policy activity (runPolicy entry points; defaults
     *  describe a fixed, fully-powered L1I). */
    double l1DrowsyFraction = 0.0;
    std::uint64_t wakeTransitions = 0;
    std::uint64_t wakeStallCycles = 0;
    std::uint64_t policyBlocksLost = 0;
};

/**
 * Default run length honouring the DRISIM_SCALE environment
 * variable (a multiplier on 10 M instructions; see docs/DESIGN.md,
 * Scaling methodology).
 */
InstCount defaultRunInstrs();

/**
 * Build (or fetch) the cached deterministic program image for
 * @p bench. Thread-safe and read-mostly: concurrent runs of the same
 * benchmark share one image without serializing on a writer lock.
 * Sweep graphs may call this from a root job to warm the cache
 * before fanning out.
 */
const ProgramImage &programImageFor(const BenchmarkInfo &bench);

/**
 * Thrown when a benchmark name already stands for a different
 * ProgramSpec in this process. Program images and run keys are
 * keyed on the name alone, so two specs under one name would
 * silently share an image and result-cache entries.
 */
class ProgramSpecCollision : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Detailed run with a conventional L1 i-cache. */
RunOutput runConventional(const BenchmarkInfo &bench,
                          const RunConfig &config);

/** Detailed run with a DRI L1 i-cache. */
RunOutput runDri(const BenchmarkInfo &bench, const RunConfig &config,
                 const DriParams &dri);

/** Fast-model calibration from a detailed conventional run. */
struct FastCalibration
{
    /** Base CPI once i-cache stalls are removed. */
    double baseCpi = 0.5;
    /** Stall-to-time transfer fraction. */
    double missOverlap = 0.85;
};

/**
 * Derive the fast-model calibration for a benchmark from its
 * detailed conventional run (see SimpleCore docs).
 */
FastCalibration calibrateFast(const BenchmarkInfo &bench,
                              const RunConfig &config,
                              const RunOutput &convDetailed);

/** Fast conventional run (search baseline). */
RunOutput runConventionalFast(const BenchmarkInfo &bench,
                              const RunConfig &config,
                              const FastCalibration &cal);

/** Fast DRI run (search candidate). */
RunOutput runDriFast(const BenchmarkInfo &bench, const RunConfig &config,
                     const DriParams &dri, const FastCalibration &cal);

/**
 * Detailed run with a leakage-policy-managed L1 i-cache
 * (policy/leakage_policy.hh). With policy.kind == Dri this is the
 * runDri() path through the adapter and produces bit-identical
 * results (locked by tests).
 */
RunOutput runPolicy(const BenchmarkInfo &bench, const RunConfig &config,
                    const PolicyConfig &policy);

/** Fast-model policy run (search candidate). */
RunOutput runPolicyFast(const BenchmarkInfo &bench,
                        const RunConfig &config,
                        const PolicyConfig &policy,
                        const FastCalibration &cal);

/**
 * Canonical configuration keys for the entry points above — every
 * knob that can change the run's result, in sorted-key canonical
 * form (sim/result_cache.hh). The hash of the key names the run in
 * the result cache, in the checkpoint store and in every --json
 * report row (config_hash), so artifacts from different binaries
 * and processes join on it. jobs/checkpointDir/resultCache are
 * deliberately absent: they cannot change results.
 */
sim::ConfigKey runKeyConventional(const BenchmarkInfo &bench,
                                  const RunConfig &config);
sim::ConfigKey runKeyDri(const BenchmarkInfo &bench,
                         const RunConfig &config, const DriParams &dri);
sim::ConfigKey runKeyPolicy(const BenchmarkInfo &bench,
                            const RunConfig &config,
                            const PolicyConfig &policy);
sim::ConfigKey runKeyConventionalFast(const BenchmarkInfo &bench,
                                      const RunConfig &config,
                                      const FastCalibration &cal);

/**
 * The benchmark each CMP core runs: its coreK.bench override, or
 * @p defaultBench where none was given. One entry per configured
 * core.
 */
std::vector<std::string> cmpBenchNames(const CmpConfig &cmp,
                                       const std::string &defaultBench);

/**
 * Canonical key for a CMP run: every per-core flavour plus the
 * sharing model, including the coherence configuration — two runs
 * that differ only in coherence enablement, directory capacity or
 * message latency must never share a snapshot or report identity
 * (locked by tests/checkpoint_test.cc).
 */
sim::ConfigKey runKeyCmp(const RunConfig &config, const CmpConfig &cmp,
                         const std::string &defaultBench);

/**
 * Detailed CMP run (system/cmp.hh): N cores, private L1s
 * (conventional or DRI per cmp.coreConfigs), shared L2 (conventional
 * or resizable per config.hier.l2Dri), each core running
 * config.maxInstrs instructions of its own benchmark. With
 * cmp.cores == 1 this reproduces the single-core entry points
 * bit-for-bit (locked by tests).
 */
CmpRunOutput runCmp(const RunConfig &config, const CmpConfig &cmp,
                    const std::string &defaultBench);

} // namespace drisim

#endif // DRISIM_HARNESS_RUNNER_HH
