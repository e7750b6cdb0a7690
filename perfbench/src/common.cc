/**
 * @file
 * Seeded inputs, output digests and the check collector.
 */

#include <cstring>
#include <iostream>

#include "bench.hh"

namespace perfbench
{

const std::vector<std::string> &
paperPrograms()
{
    static const std::vector<std::string> names{
        // class 1: small working sets in tight loops
        "applu", "compress", "li", "mgrid", "swim",
        // class 2: large working sets used throughout
        "apsi", "fpppp", "go", "m88ksim", "perl",
        // class 3: phases with diverse i-cache needs
        "gcc", "hydro2d", "ijpeg", "su2cor", "tomcatv"};
    return names;
}

namespace
{

std::uint64_t
splitMix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::vector<BenchmarkInfo>
seededPrograms(const std::vector<std::string> &names, std::uint64_t seed)
{
    std::vector<BenchmarkInfo> out;
    out.reserve(names.size());
    for (const std::string &n : names) {
        BenchmarkInfo b = findBenchmark(n);
        if (seed != 0) {
            b.name += ".s" + std::to_string(seed);
            b.spec.seed = splitMix(b.spec.seed ^ splitMix(seed));
        }
        b.spec.name = b.name;
        out.push_back(std::move(b));
    }
    return out;
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

void
Digest::add(const RunMeasurement &m)
{
    add(static_cast<std::uint64_t>(m.cycles));
    add(static_cast<std::uint64_t>(m.instructions));
    add(m.l1iAccesses);
    add(m.l1iMisses);
    add(m.avgActiveFraction);
    add(static_cast<std::uint64_t>(m.resizingTagBits));
    add(m.l1iBytes);
}

void
Digest::add(const RunOutput &o)
{
    add(o.meas);
    for (const std::uint64_t v :
         {o.l2Accesses, o.l2Misses, o.memAccesses, o.memReads,
          o.memWritebacks, o.resizes, o.throttleEvents,
          o.mshrCoalesced, o.mshrFullStalls, o.mshrFullStallCycles,
          o.mshrPeakOccupancy, o.dramRowHits, o.dramRowMisses,
          o.dramQueueFullEvents, o.dramBusyCycles, o.l2SizeBytes,
          o.l2Resizes, o.wakeTransitions, o.wakeStallCycles,
          o.policyBlocksLost})
        add(v);
    add(o.l1dMissRate);
    add(o.l2AvgActiveFraction);
    add(o.l1DrowsyFraction);
}

void
Checker::expect(bool ok, const std::string &what)
{
    if (ok)
        return;
    ++failures_;
    std::cerr << "CHECK FAILED [" << context_ << "] " << what << "\n";
}

} // namespace perfbench
