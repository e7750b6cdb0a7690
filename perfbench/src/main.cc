/**
 * @file
 * The benchmark program.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--work-dir DIR]
 *
 * Sets the workload up, then runs whole rounds of it until the
 * rounds would take more than --seconds, timing one more set-up after
 * each round (setup_s), then checks every program's streams
 * (untimed). With --trace 1 it runs the traced pass instead and
 * reports the per-layer table. The last line of standard output is
 * one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hh"
#include "streams.hh"

using namespace perfbench;

namespace
{

/**
 * A set-up sample repeats the set-up until it has taken kMinSampleS
 * and gives the time per set-up, so a set-up of a few milliseconds
 * (image builds only) is timed over enough work to be steady.
 */
constexpr double kMinSampleS = 1.0;
/** Rounds every untraced run makes at least (digests compare). */
constexpr std::size_t kMinRounds = 2;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
number(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

/**
 * Peak resident set of this process image, from VmHWM. (getrusage's
 * ru_maxrss survives execve, so under a launcher it reports the
 * launcher's peak when that is larger.)
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

/**
 * One set-up sample. With @p first, the first set-up is the real one
 * the rounds use; every other redoes its work for timing only.
 */
double
setupSample(Workload &w, bool first, OpCount &ops)
{
    int reps = 0;
    const auto t0 = Clock::now();
    do {
        w.setup(!first || reps > 0, ops);
        ++reps;
    } while (secondsSince(t0) < kMinSampleS);
    const double perSetup = secondsSince(t0) / reps;
    std::cerr << "  set-up: " << perSetup << " s x " << reps << "\n";
    return perSetup;
}

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--work-dir DIR]\n"
                 "workloads:";
    for (const std::string &n : workloadNames())
        std::cerr << " " << n;
    std::cerr << "\n";
    return 2;
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    const auto res = std::from_chars(s.data(), s.data() + s.size(), out);
    return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t seconds = 10;
    std::uint64_t trace = 0;
    std::string workDir = "perfbench/.work";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage("missing value after " + arg);
        const std::string val = argv[++i];
        bool ok = true;
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            ok = parseU64(val, seed);
        else if (arg == "--seconds")
            ok = parseU64(val, seconds) && seconds > 0;
        else if (arg == "--trace")
            ok = parseU64(val, trace) && trace <= 1;
        else if (arg == "--work-dir")
            workDir = val;
        else
            return usage("unknown argument " + arg);
        if (!ok)
            return usage("bad value for " + arg + ": " + val);
    }
    std::unique_ptr<Workload> w = makeWorkload(workload, seed);
    if (!w)
        return usage("unknown workload '" + workload + "'");
    std::filesystem::create_directories(workDir);

    OpCount ops;
    // Host contention drifts over seconds, so setup_s is the median
    // of samples spread over the whole run: one before the rounds,
    // one after each round.
    std::vector<double> setupTimes{setupSample(*w, true, ops)};

    std::vector<std::pair<std::string, LayerValue>> metrics;
    if (trace) {
        const std::string tracePath =
            workDir + "/trace-" + workload + ".json";
        for (auto &kv : tracedRun(*w, workDir, tracePath, ops))
            metrics.push_back(kv);
        std::cerr << "perfbench: trace written to " << tracePath << "\n";
    } else {
        std::vector<double> roundTimes;
        std::uint64_t instrs = 0;
        std::uint64_t digest0 = 0;
        double busy = 0.0;
        do {
            const auto t0 = Clock::now();
            const RoundResult rr = w->round({w->workers(), nullptr});
            roundTimes.push_back(secondsSince(t0));
            busy += roundTimes.back();
            std::cerr << "  round " << roundTimes.size() << ": "
                      << roundTimes.back() << " s\n";
            instrs += rr.instrs;
            ops.add(rr.ops);
            if (roundTimes.size() == 1) {
                digest0 = rr.digest;
            } else {
                Checker c(std::string(w->name()) + "/digest");
                c.expect(rr.digest == digest0,
                         "round digest equals the first round's");
                ops.record(c);
            }
            setupTimes.push_back(setupSample(*w, false, ops));
        } while (roundTimes.size() < kMinRounds ||
                 busy + median(roundTimes) <=
                     static_cast<double>(seconds));
        const double rss = peakRssMb();

        for (std::size_t i = 0; i < w->programs().size(); ++i) {
            Checker c(std::string(w->name()) + "/streams/" +
                      w->programs()[i].name);
            const StreamRefs refs = w->refs(i);
            checkCapture(c,
                         captureStreams(w->programs()[i], w->config(),
                                        refs, false),
                         w->config(), refs);
            ops.record(c);
        }
        metrics.push_back({"setup_s", {median(setupTimes), "s"}});
        metrics.push_back({"wall_s", {median(roundTimes), "s"}});
        metrics.push_back(
            {"sim_mips",
             {static_cast<double>(instrs) / busy / 1e6, "MIPS"}});
        metrics.push_back({"peak_rss_mb", {rss, "MB"}});
        std::cout << w->name() << ": seed " << seed << ", "
                  << roundTimes.size() << " rounds, digest " << std::hex
                  << digest0 << std::dec << "\n";
    }

    for (const auto &[name, v] : metrics)
        std::cout << "  " << name << " = " << number(v.value) << " "
                  << v.unit << "\n";
    std::cout << "  operations: " << ops.attempted << " attempted, "
              << ops.failed << " failed\n";

    std::string json = "{\"correct\": ";
    json += ops.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(ops.attempted);
    json += ", \"failed\": " + std::to_string(ops.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            json += ", ";
        json += "\"" + metrics[i].first + "\": {\"value\": " +
                number(metrics[i].second.value) + ", \"unit\": \"" +
                metrics[i].second.unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
}
