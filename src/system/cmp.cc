/**
 * @file
 * CmpSystem: N trace-driven cores with private L1s round-robin
 * interleaved over a shared (optionally resizable) L2.
 */

#include "system/cmp.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "policy/dri_policy.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace drisim
{

SharedL2Bus::SharedL2Bus(MemoryLevel *l2, unsigned blockBytes,
                         unsigned banks, Cycles penalty,
                         unsigned cores)
    : l2_(l2),
      blockBytes_(blockBytes),
      penalty_(penalty),
      lastOwner_(std::max(1u, banks), -1),
      stats_(cores)
{
    drisim_assert(l2 != nullptr, "bus needs a shared level");
    drisim_assert(blockBytes > 0, "bank granule must be positive");
}

void
SharedL2Bus::enableCoherence(const CoherenceConfig &cfg,
                             unsigned cores)
{
    drisim_assert(!coherence_, "coherence already enabled");
    coherence_ = std::make_unique<CoherenceController>(cfg, cores,
                                                       blockBytes_);
}

AccessResult
SharedL2Bus::access(unsigned core, Addr addr, AccessType type,
                    Cycles now)
{
    drisim_assert(core < stats_.size(), "bad bus port %u", core);
    // Block-interleaved banks: charge the contention adder when the
    // bank's previous user was another core. With one core the
    // owner never changes hands and the adder never fires, so the
    // single-core system is latency-identical to a direct L1->L2
    // connection. The adder delays the request's *arrival* below
    // the bus as well as its completion — computed up front and
    // folded into `now`, so banked DRAM queueing sees the true
    // schedule instead of requests landing penalty_ cycles early.
    const std::size_t bank = static_cast<std::size_t>(
        (addr / blockBytes_) % lastOwner_.size());
    const int self = static_cast<int>(core);
    PortStats &s = stats_[core];
    Cycles adder = 0;
    if (lastOwner_[bank] != self) {
        if (lastOwner_[bank] >= 0) {
            adder = penalty_;
            ++s.contention;
        }
        lastOwner_[bank] = self;
    }
    AccessResult r = l2_->accessAt(addr, type, now + adder);
    ++s.accesses;
    if (!r.hit) {
        ++s.misses;
        // Attribute the below-bus fill time to the requester;
        // writeback probes carry no demand latency.
        if (type != AccessType::Store)
            s.missLatency += r.latency;
    }
    r.latency += adder;
    return r;
}

CmpSystem::CmpSystem(const CmpConfig &cmp, const HierarchyParams &hier,
                     const OooParams &coreParams,
                     const std::vector<const ProgramImage *> &images,
                     stats::StatGroup *parent)
    : cmp_(cmp), hier_(hier)
{
    const unsigned n = cmp.cores;
    drisim_assert(n >= 1 && n <= kMaxCmpCores,
                  "cores must be in [1, %u], got %u", kMaxCmpCores,
                  n);
    drisim_assert(images.size() == n,
                  "need one program image per core (%zu != %u)",
                  images.size(), n);

    if (hier.dram.banked) {
        dram_ = std::make_unique<Dram>(hier.dram, hier.l2.blockBytes,
                                       parent);
        memLevel_ = dram_.get();
    } else {
        mem_ = std::make_unique<MainMemory>(hier.l2.blockBytes,
                                            parent);
        memLevel_ = mem_.get();
    }
    if (hier.l2Dri) {
        driL2_ = std::make_unique<ResizableCache>(
            driParamsForLevel(hier.l2, hier.l2DriParams),
            ResizePolicy::writeback(), memLevel_, parent, "dri_l2");
        l2Level_ = driL2_.get();
    } else {
        convL2_ =
            std::make_unique<Cache>(hier.l2, memLevel_, parent);
        l2Level_ = convL2_.get();
    }
    bus_ = std::make_unique<SharedL2Bus>(
        l2Level_, hier.l2.blockBytes, cmp.l2Banks,
        cmp.l2ContentionPenalty, n);
    if (cmp.coherence.enabled)
        bus_->enableCoherence(cmp.coherence, n);

    convL1is_.resize(n);
    policyL1is_.resize(n);
    for (unsigned k = 0; k < n; ++k) {
        cpuGroups_.push_back(std::make_unique<stats::StatGroup>(
            parent, strFormat("cpu%u", k)));
        stats::StatGroup *grp = cpuGroups_.back().get();
        ports_.push_back(
            std::make_unique<SharedL2Port>(bus_.get(), k));
        SharedL2Port *port = ports_.back().get();
        l1ds_.push_back(
            std::make_unique<Cache>(hier.l1d, port, grp));

        // The L1I, as the runner builds it: a conventional Cache or
        // a LeakagePolicy (a DRI L1I is DriPolicy).
        const CmpCoreConfig cfg = cmp.coreConfig(k);
        L1iView l1i{L1Flavour::Conv, nullptr, nullptr,
                    hier.l1i.sizeBytes};
        if (cfg.dri) {
            l1i.flavour = cfg.policyKind == PolicyKind::Dri
                              ? L1Flavour::Dri
                              : L1Flavour::Policy;
            policyL1is_[k] = makeLeakagePolicy(
                {cfg.policyKind,
                 driParamsForLevel(hier.l1i, cfg.driParams), cfg.decay,
                 cfg.drowsy, cfg.ways},
                port, grp);
            l1i.policy = policyL1is_[k].get();
        } else {
            convL1is_[k] =
                std::make_unique<Cache>(hier.l1i, port, grp);
            l1i.conv = convL1is_[k].get();
        }
        l1is_.push_back(l1i);
        MemoryLevel *l1iLevel =
            l1i.policy ? l1i.policy->level() : l1i.conv;
        // Coherent runs attach every private L1 to the fabric: the
        // bus is the requester-side agent, and the controller probes
        // the L1D and the L1I (whatever flavour) as core k.
        if (CoherenceController *cc = bus_->coherence()) {
            l1ds_.back()->setCoherence(bus_.get(), k);
            cc->addClient(k, l1ds_.back().get());
            if (auto *c = dynamic_cast<Cache *>(l1iLevel)) {
                c->setCoherence(bus_.get(), k);
                cc->addClient(k, c);
            } else if (auto *rc =
                           dynamic_cast<ResizableCache *>(l1iLevel)) {
                rc->setCoherence(bus_.get(), k);
                cc->addClient(k, rc);
            }
        }
        cores_.push_back(std::make_unique<OooCore>(
            coreParams, l1iLevel, l1ds_.back().get(), grp));
        cores_.back()->addRetireSink(l1i.policy);
        gens_.push_back(
            std::make_unique<TraceGenerator>(*images[k]));
    }

    // A shared resizable L2 senses per-core progress directly when
    // there is only one core (the exact single-core runner wiring);
    // with several cores the scheduler drives it from system-wide
    // progress instead (see run()).
    if (n == 1 && driL2_)
        cores_[0]->addResizable(driL2_.get());
}

CmpRunOutput
CmpSystem::run(InstCount maxInstrsPerCore)
{
    const unsigned n = cores();
    std::vector<InstCount> remaining(n, maxInstrsPerCore);
    Cycles sysClock = 0;

    // Per-core interval metrics (observation only): one sampler per
    // core, sampled once its committed-instruction count has advanced
    // by the recorder interval since its previous sample.
    obs::TimeSeriesRecorder *metrics =
        obsSeries_.empty() ? nullptr : obs::metrics();
    std::vector<obs::IntervalSampler> samplers;
    std::vector<InstCount> sampledAt(n, 0);
    if (metrics)
        for (unsigned k = 0; k < n; ++k) {
            samplers.emplace_back(obsSeries_ + "/core" +
                                  std::to_string(k));
            addCoreProbes(samplers.back().registry(), k);
        }
    const auto sample = [&](unsigned k) {
        sampledAt[k] = cores_[k]->stats().instructions;
        samplers[k].sample(sampledAt[k]);
    };

    while (true) {
        bool pending = false;
        bool progressed = false;
        InstCount roundRetired = 0;

        for (unsigned k = 0; k < n; ++k) {
            if (remaining[k] == 0)
                continue;
            if (cores_[k]->drained()) {
                remaining[k] = 0;
                continue;
            }
            const InstCount turn =
                (n == 1 || cmp_.quantum == 0)
                    ? remaining[k]
                    : std::min(cmp_.quantum, remaining[k]);
            const InstCount before =
                cores_[k]->stats().instructions;
            cores_[k]->run(*gens_[k], turn);
            const InstCount done =
                cores_[k]->stats().instructions - before;
            roundRetired += done;
            if (done > 0)
                progressed = true;
            remaining[k] -= std::min(done, remaining[k]);
            if (cores_[k]->drained())
                remaining[k] = 0;
            if (remaining[k] > 0)
                pending = true;
            if (metrics && cores_[k]->stats().instructions -
                                   sampledAt[k] >=
                               metrics->interval())
                sample(k);
        }

        // The shared resizable L2 belongs to no single core: its
        // sense interval counts instructions retired anywhere in
        // the system and its active-size integral runs on the
        // system clock (the slowest core's local time).
        if (n > 1 && driL2_) {
            if (roundRetired > 0)
                driL2_->retireInstructions(roundRetired);
            Cycles clock = 0;
            for (unsigned k = 0; k < n; ++k)
                clock =
                    std::max(clock, cores_[k]->stats().cycles);
            if (clock > sysClock) {
                driL2_->integrateCycles(clock - sysClock);
                sysClock = clock;
            }
        }

        if (!pending)
            break;
        drisim_assert(progressed,
                      "CMP scheduler made no progress");
    }

    // Tail sample: whatever each core committed since its last
    // full interval still shows up in the series.
    if (metrics)
        for (unsigned k = 0; k < n; ++k)
            if (cores_[k]->stats().instructions > sampledAt[k])
                sample(k);

    CmpRunOutput out;
    out.cores.resize(n);
    const auto addMshrs = [&out](const auto &c) {
        out.mshrCoalesced += c.mshrCoalesced();
        out.mshrFullStalls += c.mshrFullStalls();
        out.mshrPeakOccupancy =
            std::max(out.mshrPeakOccupancy, c.mshrPeakOccupancy());
    };
    for (unsigned k = 0; k < n; ++k) {
        CmpCoreOutput &c = out.cores[k];
        const CoreStats cs = cores_[k]->stats();
        c.meas.cycles = cs.cycles;
        c.meas.instructions = cs.instructions;
        fillL1iOutputs(l1is_[k], c);
        c.ipc = cs.ipc();
        c.l1dMissRate = l1ds_[k]->missRate();
        c.l2Accesses = bus_->accesses(k);
        c.l2Misses = bus_->misses(k);
        c.l2ContentionEvents = bus_->contentionEvents(k);
        c.l2MissLatencyCycles = bus_->missLatency(k);
        if (const CoherenceController *cc = bus_->coherence()) {
            const CoherenceController::CoreStats &ccs =
                cc->coreStats(k);
            c.coherenceInvalidationsReceived =
                ccs.invalidationsReceived;
            c.coherenceInvalidationsCaused =
                ccs.invalidationsCaused;
            c.coherenceDowngrades = ccs.downgradesReceived;
            c.coherenceWritebacks = ccs.coherenceWritebacks;
            c.coherenceMsgCycles = ccs.messageCycles;
            if (policyL1is_[k]) {
                const PolicyActivity act =
                    policyL1is_[k]->activity();
                c.coherenceWakes = act.coherenceWakes;
                c.coherenceRefetches = act.coherenceRefetches;
            }
        }

        out.systemCycles = std::max(out.systemCycles, cs.cycles);
        out.l2Accesses += c.l2Accesses;
        out.l2Misses += c.l2Misses;
        out.l2ContentionEvents += c.l2ContentionEvents;
        out.l2MissLatencyCycles += c.l2MissLatencyCycles;
        out.coherenceInvalidations +=
            c.coherenceInvalidationsReceived;
        out.coherenceDowngrades += c.coherenceDowngrades;
        out.coherenceWritebacks += c.coherenceWritebacks;
        out.coherenceMsgCycles += c.coherenceMsgCycles;

        // MSHR activity over this core's private levels: the L1D and
        // a conventional or DRI L1I (the other policy caches keep
        // theirs in their own stat groups).
        addMshrs(*l1ds_[k]);
        if (convL1is_[k])
            addMshrs(*convL1is_[k]);
        else if (l1is_[k].flavour == L1Flavour::Dri)
            addMshrs(
                static_cast<DriPolicy &>(*policyL1is_[k]).icache());
    }
    out.l2MissRate =
        out.l2Accesses == 0
            ? 0.0
            : static_cast<double>(out.l2Misses) /
                  static_cast<double>(out.l2Accesses);
    out.memAccesses = memAccesses();
    if (driL2_) {
        out.l2SizeBytes = driL2_->params().sizeBytes;
        out.l2AvgActiveFraction = driL2_->averageActiveFraction();
        out.l2ResizingTagBits = driL2_->params().resizingTagBits();
        out.l2Resizes = driL2_->upsizes() + driL2_->downsizes();
        addMshrs(*driL2_);
    } else {
        out.l2SizeBytes = hier_.l2.sizeBytes;
        addMshrs(*convL2_);
    }
    if (const CoherenceController *cc = bus_->coherence())
        out.directoryEvictions =
            cc->directory().capacityEvictions();
    if (dram_) {
        out.dramRowHits = dram_->rowHits();
        out.dramRowMisses = dram_->rowMisses();
        out.dramQueueFullEvents = dram_->queueFullEvents();
        out.dramBusyCycles = dram_->busyCycles();
        out.dramBankRowHits.resize(dram_->params().banks);
        for (unsigned b = 0; b < dram_->params().banks; ++b)
            out.dramBankRowHits[b] = dram_->rowHitsForBank(b);
    }
    return out;
}

void
CmpSystem::addCoreProbes(obs::MetricRegistry &reg, unsigned k)
{
    addL1iProbes(reg, l1is_[k], *cores_[k]);
    SharedL2Bus *bus = bus_.get();
    reg.add("l2_accesses", [bus, k] {
        return static_cast<double>(bus->accesses(k));
    });
    reg.add("l2_misses", [bus, k] {
        return static_cast<double>(bus->misses(k));
    });
    const CoherenceController *cc = bus_->coherence();
    if (!cc)
        return;
    reg.add("coherence_invalidations", [cc, k] {
        return static_cast<double>(
            cc->coreStats(k).invalidationsReceived);
    });
    // Drowsy lines can be woken by a probe, DRI's gated sets cannot;
    // any leakage-managed L1I can refetch what a probe threw away.
    const LeakagePolicy *policy = l1is_[k].policy;
    if (l1is_[k].flavour == L1Flavour::Policy)
        reg.add("coherence_wakes", [policy] {
            return static_cast<double>(
                policy->activity().coherenceWakes);
        });
    if (policy)
        reg.add("coherence_refetches", [policy] {
            return static_cast<double>(
                policy->activity().coherenceRefetches);
        });
}

std::uint64_t
CmpSystem::memAccesses() const
{
    return mem_ ? mem_->accesses() : dram_->accesses();
}

} // namespace drisim
