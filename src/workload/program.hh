/**
 * @file
 * Program builder: turns a declarative ProgramSpec into a laid-out
 * ProgramImage (functions, loops, call sites, addresses).
 */

#ifndef DRISIM_WORKLOAD_PROGRAM_HH
#define DRISIM_WORKLOAD_PROGRAM_HH

#include <string>
#include <vector>

#include "workload/cfg.hh"

namespace drisim
{

/** Declarative description of one phase. */
struct PhaseSpec
{
    std::string name = "phase";
    /** Instruction footprint of the phase's code, bytes. */
    std::uint64_t codeBytes = 2048;
    /** Dynamic instructions spent in the phase per visit. */
    InstCount dynInstrs = 1000 * 1000;
    OpMix mix{};
    /** Average body instructions per basic block. */
    unsigned avgBlockInstrs = 8;
    /** Mean trip count of inner loops. */
    std::uint64_t meanInnerTrips = 16;
    /** Taken-probability for non-loop conditional branches;
     *  values near 0.5 strain the predictor (go, gcc). */
    double branchBias = 0.85;
    /** 0 = driver calls functions round-robin; 1 = shuffled call
     *  sites with duplicates (irregular i-stream, gcc/go/perl). */
    double callIrregularity = 0.0;
    /**
     * Layout the phase's functions across this many banks placed
     * bankStrideBytes apart: with a 64 KB stride, banks collide in
     * a 64 KB direct-mapped cache (conflict misses, Figure 6).
     */
    unsigned conflictBanks = 1;
    std::uint64_t bankStrideBytes = 64 * 1024;
    /** Fraction of workers placed in the conflicting bank(s). */
    double conflictFraction = 0.25;
    /** In-bank offset of conflict banks (skips the hot driver). */
    std::uint64_t conflictSkipBytes = 2048;
    /** Worker function size range, instructions. */
    unsigned minFnInstrs = 96;
    unsigned maxFnInstrs = 384;
    /** Data working set for loads/stores. */
    std::uint64_t dataBytes = 32 * 1024;
    /**
     * Cross-core shared window (coherence workloads): a
     * sharedFraction of memory references lands in a sharedBytes
     * window at sharedBase, common to all cores running the image.
     * sharedBytes == 0 (the default) keeps the phase sharing-free
     * and its reference stream byte-identical to earlier versions.
     */
    std::uint64_t sharedBytes = 0;
    double sharedFraction = 0.0;
    Addr sharedBase = 0x2000'0000;

    bool operator==(const PhaseSpec &) const = default;
};

/** Declarative description of a whole benchmark program. */
struct ProgramSpec
{
    std::string name = "prog";
    std::uint64_t seed = 1;
    std::vector<PhaseSpec> phases;
    /** Base address of the text segment. */
    Addr textBase = 0x0040'0000;
    /** Base address of the data segment. */
    Addr dataBase = 0x1000'0000;

    bool operator==(const ProgramSpec &) const = default;
};

/** Build and lay out the program image. */
ProgramImage buildProgram(const ProgramSpec &spec);

} // namespace drisim

#endif // DRISIM_WORKLOAD_PROGRAM_HH
