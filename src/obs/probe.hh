/**
 * @file
 * Probe registry: named scalar readouts over live simulator state.
 *
 * A Probe is a (name, closure) pair the instrumented layer registers
 * once per run; the IntervalSampler below reads the whole registry
 * at each boundary and feeds the recorder (obs/metrics.hh). Everything here is strictly
 * execution-only observability: probes never feed back into the
 * simulation and none of their knobs enter the ConfigKey, so every
 * golden stays byte-identical whether or not anything is attached
 * (locked by tests/obs_test.cc and the options_test guard).
 *
 * Zero overhead when disabled: nothing in the simulator ever builds
 * a registry unless a sink (obs::metrics()) is installed — the fast
 * path in every hook is a single branch on a null pointer.
 */

#ifndef DRISIM_OBS_PROBE_HH
#define DRISIM_OBS_PROBE_HH

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/types.hh"

namespace drisim::obs
{

/** One named scalar readout of live simulator state. */
struct Probe
{
    std::string name;
    std::function<double()> read;
};

/**
 * An ordered collection of probes. Registration order is the
 * caller's; the CSV emission layer canonicalizes column order at
 * write time, so registration order never affects output bytes.
 */
class MetricRegistry
{
  public:
    /** Register @p read under @p name (names should be unique). */
    void add(std::string name, std::function<double()> read);

    const std::vector<Probe> &probes() const { return probes_; }

    /** Read every probe once, in registration order. */
    std::vector<std::pair<std::string, double>> sample() const;

  private:
    std::vector<Probe> probes_;
};


/**
 * Per-interval differencing over a probe registry of *cumulative*
 * readouts. Runs register probes under the canonical names the
 * sampler knows ("cycles", "<level>_accesses"/"_misses",
 * "active_cycle_area", "drowsy_cycle_area", "active_bytes",
 * "l1i_size_bytes", event counters); sample() derives the
 * already-differenced interval metrics the CSV carries — interval
 * CPI and miss rates, active/drowsy fractions from the cycle-area
 * integrals, resize and wake deltas, the instantaneous active-byte
 * count — and records them under the series.
 */
class IntervalSampler
{
  public:
    explicit IntervalSampler(std::string series)
        : series_(std::move(series))
    {
    }

    MetricRegistry &registry() { return reg_; }

    /** Record one row at @p instructions retired (no-op without an
     *  installed recorder). */
    void sample(InstCount instructions);

  private:
    using Readout = std::map<std::string, double>;
    double delta(const Readout &cur, const std::string &name) const;
    void missRate(const Readout &cur, const std::string &level,
                  std::vector<std::pair<std::string, double>> &out) const;

    std::string series_;
    MetricRegistry reg_;
    Readout prev_;
    double prevInstrs_ = 0.0;
};

} // namespace drisim::obs

#endif // DRISIM_OBS_PROBE_HH
