/**
 * @file
 * The synthetic SPEC95 suite (see docs/DESIGN.md, Substitutions).
 *
 * Fifteen benchmark models named after the SPEC95 programs the paper
 * runs, each built to match its published i-cache behaviour class
 * (Section 5.3):
 *
 *  - class 1: small instruction working sets held in tight loops
 *    (applu, compress, li, mgrid, swim);
 *  - class 2: large working sets used throughout execution
 *    (apsi, fpppp, go, m88ksim, perl), fpppp needing the full 64 KB;
 *  - class 3: distinct phases with diverse i-cache requirements
 *    (gcc, hydro2d, ijpeg, su2cor, tomcatv).
 *
 * Benchmarks the paper reports as exhibiting direct-mapped conflict
 * misses (gcc, go, hydro2d, su2cor, swim, tomcatv — Figure 6) place
 * part of their hot code in banks 64 KB apart.
 *
 * Beyond the paper's fifteen, class 4 holds the sharing workloads
 * for the coherent CMP (shared_image, producer, consumer): phases
 * that route part of their references into a cross-core shared
 * window (workload/cfg.hh) to exercise the MSI protocol.
 */

#ifndef DRISIM_WORKLOAD_SPEC_SUITE_HH
#define DRISIM_WORKLOAD_SPEC_SUITE_HH

#include <string>
#include <vector>

#include "workload/program.hh"

namespace drisim
{

/** One benchmark: spec plus its paper classification. */
struct BenchmarkInfo
{
    std::string name;
    /** Paper class 1..3 (Section 5.3); 4 = sharing workloads. */
    int benchClass = 1;
    ProgramSpec spec;
};

/** The 15 paper benchmarks in presentation order, then the class-4
 *  sharing workloads (18 total). */
const std::vector<BenchmarkInfo> &specSuite();

/** The paper's experiment: the 15 paper benchmarks (classes 1-3) in
 *  presentation order, without the class-4 sharing workloads. */
const std::vector<BenchmarkInfo> &paperSuite();

/** Look up one benchmark by name (fatal if unknown). */
const BenchmarkInfo &findBenchmark(const std::string &name);

} // namespace drisim

#endif // DRISIM_WORKLOAD_SPEC_SUITE_HH
