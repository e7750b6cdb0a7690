/**
 * @file
 * A core's L1 i-cache as a run probes and reports it: a conventional
 * Cache, or a leakage policy built by makeLeakagePolicy (the paper's
 * DRI i-cache through the DriPolicy adapter, or decay, drowsy or
 * static ways).
 *
 * The single-core runner (harness/runner.cc) and the CMP
 * (system/cmp.hh) both describe their L1I with an L1iView, register
 * its interval probes with addL1iProbes, fill their run output's
 * L1I fields with fillL1iOutputs and add its MSHRs to the run's
 * totals with addCoreMshrs. A conventional, DRI or policy L1I
 * therefore reads the same in every metrics series and report,
 * whichever system it sits in.
 */

#ifndef DRISIM_SYSTEM_L1I_HH
#define DRISIM_SYSTEM_L1I_HH

#include <algorithm>
#include <cstdint>

#include "cpu/core.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "obs/probe.hh"
#include "policy/leakage_policy.hh"

namespace drisim
{

/** Which L1 i-cache a core builds. */
enum class L1Flavour { Conv, Dri, Policy };

/**
 * A core's L1I (non-owning). Dri and Policy are both a LeakagePolicy
 * (a Dri L1I is DriPolicy); they differ in what they report: the
 * classic DRI report carries no drowsy, gated or wake fields.
 */
struct L1iView
{
    L1Flavour flavour = L1Flavour::Conv;
    Cache *conv = nullptr;           ///< the Conv flavour's cache
    LeakagePolicy *policy = nullptr; ///< the Dri/Policy flavours'
    /** Full L1I capacity in bytes. */
    std::uint64_t sizeBytes = 0;

    std::uint64_t accesses() const
    {
        return policy ? policy->l1Accesses() : conv->accesses();
    }
    std::uint64_t misses() const
    {
        return policy ? policy->l1Misses() : conv->misses();
    }
    /** The MSHRs of the cache behind any flavour. */
    MshrCounters mshrCounters() const
    {
        return policy ? policy->level()->mshrCounters()
                      : conv->mshrCounters();
    }
};

/**
 * Register @p l1's cumulative interval probes for
 * obs::IntervalSampler: @p core's cycles, the L1I's accesses and
 * misses, and the flavour's activity. A conventional L1I is always
 * fully active (active_cycle_area = cycles); a DRI L1I adds its
 * instantaneous size and resizes; a policy L1I its active and drowsy
 * cycle areas, resizes and wakes.
 */
void addL1iProbes(obs::MetricRegistry &reg, const L1iView &l1,
                  const Core &core);

/**
 * Fill the L1I fields of a finished run's output (RunOutput or
 * CmpCoreOutput): meas.l1i*, resizes and throttle events, and for
 * the Policy flavour the drowsy fraction, wakes and, where the output
 * has them, blocks lost and the gated fraction. A conventional L1I
 * keeps the fully-active defaults.
 */
template <typename Out>
void
fillL1iOutputs(const L1iView &l1, Out &out)
{
    out.meas.l1iAccesses = l1.accesses();
    out.meas.l1iMisses = l1.misses();
    out.meas.l1iBytes = l1.sizeBytes;
    if (!l1.policy)
        return;
    const PolicyActivity act = l1.policy->activity();
    out.meas.avgActiveFraction = act.avgActiveFraction;
    out.meas.resizingTagBits = act.resizingTagBits;
    out.resizes = act.resizes;
    out.throttleEvents = act.throttleEvents;
    if (l1.flavour != L1Flavour::Policy)
        return;
    out.l1DrowsyFraction = act.avgDrowsyFraction;
    out.wakeTransitions = act.wakeTransitions;
    out.wakeStallCycles = act.wakeStallCycles;
    if constexpr (requires { out.policyBlocksLost; })
        out.policyBlocksLost = act.blocksLost;
    // The state-destroying remainder, charged at the gated residual.
    if constexpr (requires { out.l1GatedFraction; })
        out.l1GatedFraction = std::max(
            0.0, 1.0 - act.avgActiveFraction - act.avgDrowsyFraction);
}

/**
 * Add a core's L1D and L1I (any flavour) MSHRs to a run's totals;
 * fillMemoryOutputs adds the L2's.
 */
template <typename Out>
void
addCoreMshrs(const Cache &l1d, const L1iView &l1i, Out &out)
{
    addMshrCounters(l1d.mshrCounters(), out);
    addMshrCounters(l1i.mshrCounters(), out);
}

} // namespace drisim

#endif // DRISIM_SYSTEM_L1I_HH
