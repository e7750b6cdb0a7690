/**
 * @file
 * Probe registry and interval sampler implementation.
 */

#include "obs/probe.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace drisim::obs
{

void
MetricRegistry::add(std::string name, std::function<double()> read)
{
    drisim_assert(read != nullptr, "probe '%s' has no reader",
                  name.c_str());
    probes_.push_back(Probe{std::move(name), std::move(read)});
}

std::vector<std::pair<std::string, double>>
MetricRegistry::sample() const
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(probes_.size());
    for (const Probe &p : probes_)
        out.emplace_back(p.name, p.read());
    return out;
}

namespace
{

/** An area integral over @p cycles as a fraction clamped to [0, 1]. */
double
fraction(double area, double cycles)
{
    if (cycles <= 0.0)
        return 0.0;
    return std::min(1.0, std::max(0.0, area / cycles));
}

} // namespace

void
IntervalSampler::sample(InstCount instructions)
{
    TimeSeriesRecorder *m = metrics();
    if (!m)
        return;
    Readout cur;
    for (auto &[name, value] : reg_.sample())
        cur[name] = value;
    const auto has = [&cur](const char *name) {
        return cur.count(name) > 0;
    };

    const double dc = delta(cur, "cycles");
    const double di = static_cast<double>(instructions) - prevInstrs_;

    std::vector<std::pair<std::string, double>> out;
    out.emplace_back("cycles", dc);
    out.emplace_back("cpi", di > 0.0 ? dc / di : 0.0);
    missRate(cur, "l1i", out);
    missRate(cur, "l1d", out);
    missRate(cur, "l2", out);

    double activeFraction = 1.0;
    if (has("active_cycle_area")) {
        activeFraction = fraction(delta(cur, "active_cycle_area"), dc);
        out.emplace_back("active_fraction", activeFraction);
    }
    if (has("drowsy_cycle_area"))
        out.emplace_back("drowsy_fraction",
                         fraction(delta(cur, "drowsy_cycle_area"), dc));
    if (has("active_bytes")) {
        out.emplace_back("active_bytes", cur.at("active_bytes"));
    } else if (has("l1i_size_bytes")) {
        // No instantaneous size probe (time-integrated policies):
        // reconstruct the interval's average active bytes from the
        // fraction.
        out.emplace_back("active_bytes",
                         activeFraction * cur.at("l1i_size_bytes"));
    }
    for (const char *counter :
         {"resizes", "wakes", "wake_stall_cycles", "dram_busy_cycles",
          "coherence_invalidations", "coherence_wakes",
          "coherence_refetches"})
        if (has(counter))
            out.emplace_back(counter, delta(cur, counter));
    if (has("mshr_peak_occupancy"))
        out.emplace_back("mshr_peak_occupancy",
                         cur.at("mshr_peak_occupancy"));

    m->record(series_, instructions, std::move(out));
    prev_ = std::move(cur);
    prevInstrs_ = static_cast<double>(instructions);
}

double
IntervalSampler::delta(const Readout &cur, const std::string &name) const
{
    const auto it = cur.find(name);
    if (it == cur.end())
        return 0.0;
    const auto pit = prev_.find(name);
    return it->second - (pit == prev_.end() ? 0.0 : pit->second);
}

void
IntervalSampler::missRate(
    const Readout &cur, const std::string &level,
    std::vector<std::pair<std::string, double>> &out) const
{
    if (cur.count(level + "_accesses") == 0)
        return;
    const double da = delta(cur, level + "_accesses");
    const double dm = delta(cur, level + "_misses");
    out.emplace_back(level + "_miss_rate", da > 0.0 ? dm / da : 0.0);
}

} // namespace drisim::obs
