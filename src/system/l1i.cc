/**
 * @file
 * The L1I probe sets, one per flavour.
 */

#include "system/l1i.hh"

#include "policy/dri_policy.hh"

namespace drisim
{

namespace
{

/** Conventional L1I: full-size, always active. */
void
addConvL1iProbes(obs::MetricRegistry &reg, const L1iView &l1,
                 const Core *core)
{
    const std::uint64_t sizeBytes = l1.sizeBytes;
    reg.add("active_cycle_area", [core] {
        return static_cast<double>(core->stats().cycles);
    });
    reg.add("active_bytes",
            [sizeBytes] { return static_cast<double>(sizeBytes); });
}

/** DRI L1I: instantaneous size plus the active-area integral. */
void
addDriL1iProbes(obs::MetricRegistry &reg, const L1iView &l1,
                const Core *core)
{
    const DriICache *icache =
        &static_cast<DriPolicy *>(l1.policy)->icache();
    reg.add("active_cycle_area", [icache, core] {
        return icache->averageActiveFraction() *
               static_cast<double>(core->stats().cycles);
    });
    reg.add("active_bytes", [icache] {
        return static_cast<double>(icache->currentSizeBytes());
    });
    reg.add("resizes", [icache] {
        return static_cast<double>(icache->upsizes() +
                                   icache->downsizes());
    });
}

/** Leakage-policy L1I: time-integrated activity + wake events. */
void
addPolicyL1iProbes(obs::MetricRegistry &reg, const L1iView &l1,
                   const Core *core)
{
    const LeakagePolicy *policy = l1.policy;
    const std::uint64_t sizeBytes = l1.sizeBytes;
    reg.add("l1i_size_bytes",
            [sizeBytes] { return static_cast<double>(sizeBytes); });
    reg.add("active_cycle_area", [policy, core] {
        return policy->activity().avgActiveFraction *
               static_cast<double>(core->stats().cycles);
    });
    reg.add("drowsy_cycle_area", [policy, core] {
        return policy->activity().avgDrowsyFraction *
               static_cast<double>(core->stats().cycles);
    });
    reg.add("resizes", [policy] {
        return static_cast<double>(policy->activity().resizes);
    });
    reg.add("wakes", [policy] {
        return static_cast<double>(
            policy->activity().wakeTransitions);
    });
    reg.add("wake_stall_cycles", [policy] {
        return static_cast<double>(
            policy->activity().wakeStallCycles);
    });
}

} // namespace

void
addL1iProbes(obs::MetricRegistry &reg, const L1iView &l1,
             const Core &core)
{
    const Core *c = &core;
    reg.add("cycles",
            [c] { return static_cast<double>(c->stats().cycles); });
    reg.add("l1i_accesses",
            [l1] { return static_cast<double>(l1.accesses()); });
    reg.add("l1i_misses",
            [l1] { return static_cast<double>(l1.misses()); });
    switch (l1.flavour) {
    case L1Flavour::Conv:
        addConvL1iProbes(reg, l1, c);
        break;
    case L1Flavour::Dri:
        addDriL1iProbes(reg, l1, c);
        break;
    case L1Flavour::Policy:
        addPolicyL1iProbes(reg, l1, c);
        break;
    }
}

} // namespace drisim
