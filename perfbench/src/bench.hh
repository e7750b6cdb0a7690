/**
 * @file
 * Shared pieces of the repo benchmark: seeded inputs, the workload
 * interface, output digests, the per-operation check collector and
 * the per-layer metric table.
 *
 * The benchmark drives the simulator only through the public
 * functions of src/. Every modelled result it produces is checked
 * by code written here (checks.cc), never against a stored copy.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "sim/result_cache.hh"
#include "workload/spec_suite.hh"

namespace perfbench
{

using namespace drisim;

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** The paper's fifteen SPEC95 programs, by class (Section 5.3). */
const std::vector<std::string> &paperPrograms();

/**
 * The suite entries @p names, re-seeded for @p seed. Seed 0 keeps
 * the suite's own specs. Any other seed mixes into every
 * ProgramSpec seed and renames the program `<name>.s<seed>`: the
 * harness keys its image cache and run keys on the name alone, so
 * two specs sharing a name would silently share an image.
 */
std::vector<BenchmarkInfo> seededPrograms(
    const std::vector<std::string> &names, std::uint64_t seed);

/** FNV-1a digest over modelled outputs. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    void add(const RunMeasurement &m);
    void add(const RunOutput &o);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Collects the checks of one operation. A failed expectation is
 * reported on stderr with its context; the operation then counts as
 * failed.
 */
class Checker
{
  public:
    explicit Checker(std::string context) : context_(std::move(context))
    {
    }
    void expect(bool ok, const std::string &what);
    bool ok() const { return failures_ == 0; }

  private:
    std::string context_;
    unsigned failures_ = 0;
};

/** Attempted and failed operations. */
struct OpCount
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void record(const Checker &c)
    {
        ++attempted;
        if (!c.ok())
            ++failed;
    }
    void add(const OpCount &o)
    {
        attempted += o.attempted;
        failed += o.failed;
    }
};

/** How one round runs. */
struct RoundOptions
{
    /** Executor workers. */
    unsigned workers = 1;
    /** Result cache for the sim.* rerun (null = off). */
    std::shared_ptr<sim::ResultCache> resultCache;
};

/** What one round produced. */
struct RoundResult
{
    /** Simulated instructions retired, all runs and cores. */
    std::uint64_t instrs = 0;
    /** Digest of every modelled output, in program order. */
    std::uint64_t digest = 0;
    OpCount ops;
};

/** Reference outputs a program's stream checks compare against. */
struct StreamRefs
{
    /** Cycles of the harness's detailed conventional run (0 = none). */
    Cycles convDetailedCycles = 0;
    /** Cycles of the harness's fast conventional run (0 = none). */
    Cycles convFastCycles = 0;
    /** Calibration the fast run used. */
    FastCalibration cal;
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** Executor workers a measured round uses. */
    virtual unsigned workers() const = 0;

    /** The configuration every run of the workload shares. */
    virtual const RunConfig &config() const = 0;

    /** The programs the workload runs (seeded). */
    virtual const std::vector<BenchmarkInfo> &programs() const = 0;

    /**
     * Build the program images and anything else the rounds need.
     * With @p repeat, redo the same work after the real set-up, for
     * timing only: images are built with buildProgram and dropped,
     * so the image cache keeps one copy of each.
     */
    virtual void setup(bool repeat, OpCount &ops) = 0;

    /** Run every operation once. */
    virtual RoundResult round(const RoundOptions &opts) = 0;

    /** Reference outputs for program @p i from the last round. */
    virtual StreamRefs refs(std::size_t i) const = 0;

    /** Keys of runs a round stores in its result cache. */
    virtual std::vector<sim::ConfigKey> cachedKeys() const = 0;

    /**
     * The 4-core mix the system.* probe times: its configuration,
     * with one program image per core in @p images.
     */
    virtual CmpConfig cmpProbe(
        std::vector<const ProgramImage *> &images) const = 0;
};

/** Instructions per run for every workload. */
constexpr InstCount kRunInstrs = 200 * 1000;

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

// ------------------------------------------------------------------
// Checks (checks.cc)
// ------------------------------------------------------------------

/**
 * Recompute a ComparisonResult from its two RunMeasurements with the
 * paper's Section 5.2 equations and constants, written out here.
 */
void checkComparison(Checker &c, const ComparisonResult &r,
                     const std::string &what);

/** Every run retires exactly its budget. */
void checkBudget(Checker &c, const RunMeasurement &m, InstCount budget,
                 const std::string &what);

/**
 * The search winner: the argmin of the feasible fast cells under the
 * slowdown limit, or, when none is feasible, the documented
 * full-size fallback.
 */
void checkSearchWinner(Checker &c, const SearchResult &sr,
                       const DriParams &tmpl, double maxSlowdownPct);

/** Coherence and L2-attribution conservation of one CMP run. */
void checkCmp(Checker &c, const CmpRunOutput &out, InstCount budget);

// ------------------------------------------------------------------
// Per-layer metrics (layers.cc)
// ------------------------------------------------------------------

/** One per-layer value with its unit. */
struct LayerValue
{
    double value = 0.0;
    std::string unit;
};

using LayerTable = std::map<std::string, LayerValue>;

/**
 * The traced run: one untraced and one traced round, the layer
 * probes on the workload's own inputs, the result-cache and
 * checkpoint reruns. Writes one Perfetto trace file to
 * @p tracePath.
 */
LayerTable tracedRun(Workload &w, const std::string &workDir,
                     const std::string &tracePath, OpCount &ops);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
