#include "gpu/gpu.hh"

#include <algorithm>
#include <cstdio>

#include "check/check.hh"
#include "gpu/host_profile.hh"
#include "trace/interval.hh"

namespace lumi
{

Gpu::Gpu(const GpuConfig &config, uint64_t timeline_interval,
         Tracer *tracer)
    : config_(config), tracer_(tracer), timeline_(timeline_interval),
      queue_(2 * config.numSms + 1)
{
    mem_ = std::make_unique<MemSystem>(config_, space_, tracer_);
    for (int sm = 0; sm < config_.numSms; sm++) {
        rtUnits_.push_back(std::make_unique<RtUnit>(sm, config_, *mem_,
                                                    stats_, tracer_));
        cores_.push_back(std::make_unique<SimtCore>(sm, config_, *mem_,
                                                    *rtUnits_[sm],
                                                    stats_, tracer_));
    }
    profile_.init(config_.numSms);
    smHadWork_.assign(static_cast<size_t>(config_.numSms), 0);
    drainTail_.assign(static_cast<size_t>(config_.numSms), 0);
    smProfiledTo_.assign(static_cast<size_t>(config_.numSms), 0);
    smOutcome_.assign(static_cast<size_t>(config_.numSms),
                      IssueOutcome::None);
    coreCycled_.assign(static_cast<size_t>(config_.numSms), 0);
    rtCycled_.assign(static_cast<size_t>(config_.numSms), 0);
    rtDue_.assign(static_cast<size_t>(config_.numSms), 0);
    coreDirty_.assign(static_cast<size_t>(config_.numSms), 0);
    due_.reserve(queue_.components());
}

TimelineSample
Gpu::snapshot() const
{
    TimelineSample sample;
    sample.instructions = stats_.instructions;
    sample.l1Reads = mem_->l1Rt().reads + mem_->l1Shader().reads;
    sample.l1Misses = mem_->l1Rt().misses + mem_->l1Shader().misses;
    sample.rtWarpCycles = stats_.rtWarpCycles;
    return sample;
}

void
Gpu::fillSlots(const KernelLaunch &launch, uint32_t &next_warp)
{
    // Round-robin over SMs so the grid spreads evenly, as a real
    // grid scheduler would distribute thread blocks.
    bool assigned = true;
    while (assigned && next_warp < launch.warpCount) {
        assigned = false;
        for (size_t i = 0; i < cores_.size(); i++) {
            SimtCore &core = *cores_[i];
            if (next_warp >= launch.warpCount)
                break;
            if (!core.hasFreeSlot())
                continue;
            int lanes = (next_warp + 1 == launch.warpCount)
                            ? launch.lanesInLastWarp
                            : 32;
            WarpContext ctx(launch.layout, next_warp, lanes);
            launch.program(ctx);
            for (int k = 0; k < numRayKinds; k++)
                stats_.raysByKind[k] += ctx.rayCounts()[k];
            profileSm(static_cast<int>(i), now_);
            core.assignWarp(ctx.take(), next_warp, now_);
            smHadWork_[i] = 1;
            // The fresh warp is ready at now_: the core must
            // re-register its next-event cycle (event loop).
            coreDirty_[i] = 1;
            next_warp++;
            assigned = true;
        }
    }
}

bool
Gpu::anyBusy(uint32_t next_warp, const KernelLaunch &launch) const
{
    if (next_warp < launch.warpCount)
        return true;
    for (const auto &core : cores_) {
        if (core->busy())
            return true;
    }
    for (const auto &rt : rtUnits_) {
        if (!rt->idle())
            return true;
    }
    return false;
}

void
Gpu::reportDeadlock()
{
    // Busy but event-less: that is a simulator bug (a warp sleeping
    // with nobody left to wake it). Diagnose, then stop the run so a
    // campaign worker survives (SimulationAborted upstream) instead
    // of taking the whole process down.
    std::fprintf(stderr, "lumi: panic: deadlock at cycle %llu\n",
                 static_cast<unsigned long long>(now_));
    for (size_t i = 0; i < cores_.size(); i++) {
        std::fprintf(stderr,
                     "  sm%zu: resident=%d rtWarps=%d "
                     "rtRays=%d rtIdle=%d\n",
                     i, cores_[i]->residentWarps(),
                     rtUnits_[i]->activeWarps(),
                     rtUnits_[i]->activeRays(),
                     rtUnits_[i]->idle() ? 1 : 0);
    }
    deadlocked_ = true;
    aborted_ = true;
}

void
Gpu::profileSm(int sm, uint64_t t)
{
#if LUMI_PROFILE_ENABLED
    // Top-down cycle accounting over [profiledTo, t): the first
    // cycle gets the issue outcome of the core's cycle() there (None
    // when it did not cycle: a core the event loop skips has no
    // issuable warp); the remaining cycles, in which by construction
    // no warp can issue, get the stall class of the warp state that
    // held since. Pure accounting: nothing here feeds back into
    // simulated timing.
    uint64_t from = smProfiledTo_[sm];
    if (t <= from)
        return;
    uint64_t rest = t - from;
    if (smOutcome_[sm] == IssueOutcome::Issued) {
        profile_.addSm(sm, SmCycleBucket::Issued, 1);
        rest--;
    } else if (smOutcome_[sm] == IssueOutcome::MemReplay) {
        profile_.addSm(sm, SmCycleBucket::MemPending, 1);
        rest--;
    }
    if (rest > 0) {
        switch (cores_[sm]->stallKind()) {
          case SmStall::MemPending:
            profile_.addSm(sm, SmCycleBucket::MemPending, rest);
            break;
          case SmStall::RtWait:
            profile_.addSm(sm, SmCycleBucket::RtWait, rest);
            break;
          case SmStall::NoReadyWarp:
            profile_.addSm(sm, SmCycleBucket::NoReadyWarp, rest);
            break;
          case SmStall::NoWarps:
            if (smHadWork_[sm]) {
                profile_.addSm(sm, SmCycleBucket::Drain, rest);
                drainTail_[sm] += rest;
            } else {
                profile_.addSm(sm, SmCycleBucket::Empty, rest);
            }
            break;
        }
    }
    smProfiledTo_[sm] = t;
    smOutcome_[sm] = IssueOutcome::None;
#else
    (void)sm;
    (void)t;
#endif
}

void
Gpu::profilePair(int sm, uint64_t t)
{
    profileSm(sm, t);
#if LUMI_PROFILE_ENABLED
    rtUnits_[sm]->profileTo(t, profile_);
#endif
}

void
Gpu::profileAll(uint64_t t)
{
    for (int sm = 0; sm < config_.numSms; sm++)
        profilePair(sm, t);
}

void
Gpu::cycleCore(int sm)
{
    // cycle() may hand a traceRay to the paired RT unit, so both
    // accounts close here.
    profilePair(sm, now_);
    cores_[sm]->cycle(now_);
    coreCycled_[sm] = 1;
    smOutcome_[sm] = cores_[sm]->lastOutcome();
}

void
Gpu::cycleRt(int sm)
{
    // cycle() may hand a finished warp back to the paired core.
    profilePair(sm, now_);
    rtUnits_[sm]->cycle(now_);
    rtCycled_[sm] = 1;
}

void
Gpu::accountSpan(uint64_t next)
{
    // Accumulate state-weighted statistics over (now, next]: no
    // component changes state in the skipped span, and the units
    // keep the GPU-wide residency current as they change it.
    uint64_t dt = next - now_;
    const ResidencyTotals &live = stats_.resident;
    stats_.warpCyclesResident += static_cast<uint64_t>(live.coreWarps) *
                                 dt;
    stats_.rtWarpCycles += static_cast<uint64_t>(live.rtWarps) * dt;
    stats_.rtRayCycles += static_cast<uint64_t>(live.rtRays) * dt;
    for (int k = 0; k < numRayKinds; k++) {
        stats_.rtWarpCyclesByKind[k] +=
            static_cast<uint64_t>(live.rtWarpsByKind[k]) * dt;
        stats_.rtRayCyclesByKind[k] +=
            static_cast<uint64_t>(live.rtRaysByKind[k]) * dt;
    }
    stats_.rtActiveCycles += static_cast<uint64_t>(
                                 live.rtActiveUnits) *
                             dt;
    now_ = next;
    // Keep the registered gpu.cycles counter current so interval
    // samples read the live clock. Unconditional: the write must
    // happen identically whether or not a sampler is attached.
    stats_.cycles = now_;
    timeline_.record(now_, snapshot());
    // A sample reads the profile.* counters too: bring every unit's
    // account up to the clock first (a split span sums the same).
    if (sampler_ && sampler_->due(now_)) {
        profileAll(now_);
        sampler_->maybeSample(now_);
    }
}

void
Gpu::runEventLoop(const KernelLaunch &launch, uint32_t &next_warp)
{
    const int n = config_.numSms;
    const int mem_comp = 2 * n;
    // The first landing cycles every component unconditionally: the
    // launch just filled slots at now_, and stale registrations from
    // a previous launch are overwritten when everything re-registers.
    bool first = true;
    for (;;) {
        // Soft budget / cooperative cancellation: a runaway sim
        // stops at a cycle boundary instead of wedging its worker.
        if ((cycleBudget_ != 0 && now_ >= cycleBudget_) ||
            (cancel_ &&
             cancel_->load(std::memory_order_relaxed))) {
            aborted_ = true;
            break;
        }
        if (!anyBusy(next_warp, launch))
            break;

        // Self-profiling is sampled: most iterations only bump a
        // counter; a timed one reads the clock at each component
        // boundary. Either way no simulator state is touched.
        bool timed = profiler_ && profiler_->beginIteration();

        // Core phase: only the cores registered due at now_ can
        // issue (a skipped core provably has no ready warp, so its
        // cycle() would be a no-op).
        if (first) {
            for (int i = 0; i < n; i++) {
                cycleCore(i);
                rtDue_[i] = 1;
            }
        } else {
            queue_.popDue(now_, due_);
            for (int comp : due_) {
                if (comp < n) {
                    cycleCore(comp);
                } else if (comp < mem_comp) {
                    rtDue_[comp - n] = 1;
                }
                // mem_comp carries no cycle() of its own: fills
                // drain lazily inside issueRead/issueWrite; its
                // registration only contributes landing cycles.
            }
        }
        if (timed)
            profiler_->mark(HostProfiler::SimtCores);

        // RT phase: units due from the queue, plus units handed a
        // traceRay by their core THIS cycle (the old loop advanced
        // such a ray in the same iteration, rt phase following core
        // phase, so the event loop must too).
        for (int i = 0; i < n; i++) {
            if (rtDue_[i] || (coreCycled_[i] &&
                              cores_[i]->rtEnqueuedThisCycle())) {
                cycleRt(i);
            }
        }
        if (timed)
            profiler_->mark(HostProfiler::RtUnits);
        fillSlots(launch, next_warp);
        if (timed)
            profiler_->mark(HostProfiler::FillSlots);

        // Re-registration: every component whose state may have
        // changed this iteration recomputes its next-interesting
        // cycle -- cycled components, cores whose RT unit actually
        // handed a warp back (wakeWarp is SM-pair-local and flags
        // the core), cores handed fresh warps by fillSlots, and the
        // memory system (any issue can push a fill completion).
        // Unchanged components keep their exact registration, so
        // the heap minimum equals the old all-component min-scan.
        for (int i = 0; i < n; i++) {
            bool woken = cores_[i]->consumeWoken();
            if (coreCycled_[i] || coreDirty_[i] || woken) {
                queue_.update(i, cores_[i]->nextEventCycle(now_));
                coreDirty_[i] = 0;
            }
            if (rtCycled_[i])
                queue_.update(n + i,
                              rtUnits_[i]->nextEventCycle(now_));
        }
        // Fill completions wake stalled requesters under finite
        // memory-system resources (no events when unlimited).
        queue_.update(mem_comp, mem_->nextEventCycle(now_));

        uint64_t next = queue_.minCycle();
        if (next == UINT64_MAX) {
            // Work may have completed inside this very cycle.
            if (anyBusy(next_warp, launch))
                reportDeadlock();
            break;
        }
        if (timed)
            profiler_->mark(HostProfiler::MemEvents);

        accountSpan(next);
        if (timed)
            profiler_->mark(HostProfiler::Observe);

        std::fill(coreCycled_.begin(), coreCycled_.end(), 0);
        std::fill(rtCycled_.begin(), rtCycled_.end(), 0);
        std::fill(rtDue_.begin(), rtDue_.end(), 0);
        first = false;
    }
}

void
Gpu::run(const KernelLaunch &launch)
{
    for (auto &rt : rtUnits_)
        rt->setLayout(launch.layout);

#if LUMI_PROFILE_ENABLED
    // A new kernel behind the previous one turns that kernel's drain
    // tail into a sync wait: those SMs were done early and stalled at
    // the implicit end-of-grid barrier. The final kernel's tail stays
    // drain, and never-filled SMs stay empty.
    for (size_t sm = 0; sm < drainTail_.size(); sm++) {
        if (drainTail_[sm] > 0) {
            profile_.moveSm(static_cast<int>(sm),
                            SmCycleBucket::Drain,
                            SmCycleBucket::Sync, drainTail_[sm]);
            drainTail_[sm] = 0;
        }
        smHadWork_[sm] = 0;
    }
#endif

    // Snapshot for the per-launch delta (analytical modeling).
    LaunchSample before;
    before.cycles = now_;
    before.warps = stats_.warpsLaunched;
    for (int op = 0; op < numWarpOps; op++)
        before.instrByOp[op] = stats_.instrByOp[op];
    before.threadInstructions = stats_.threadInstructions;
    before.memInstructions = stats_.memInstructions;
    before.coalescedSegments = stats_.coalescedSegments;
    before.l1Reads = mem_->l1Rt().reads + mem_->l1Shader().reads;
    before.l1Misses = mem_->l1Rt().misses + mem_->l1Shader().misses;
    uint64_t dram_lat_before = mem_->dram().stats().totalLatency;
    uint64_t dram_acc_before = mem_->dram().stats().accesses;

    uint32_t next_warp = 0;
    // Baseline sample before the launch fills any slots: the first
    // interval then covers the launch itself, like every later one.
    if (sampler_)
        sampler_->maybeSample(now_);
    fillSlots(launch, next_warp);

    runEventLoop(launch, next_warp);

    // Retire every in-flight fill so the MSHR conservation checks
    // and occupancy histograms cover the whole run.
    mem_->drainAll();

    // Close every unit's account at the final clock, before the
    // conservation checks. The outcome of the last landing's core
    // cycles lies past the end of the run (the clock never moves
    // beyond that landing), so it is never charged: a following
    // launch cycles every core again at this same cycle.
    profileAll(now_);

#if LUMI_CHECKS_ENABLED
    // The running residency totals must equal the per-unit counts.
    ResidencyTotals sum;
    for (int sm = 0; sm < config_.numSms; sm++) {
        const RtUnit &rt = *rtUnits_[sm];
        sum.coreWarps += cores_[sm]->residentWarps();
        sum.rtWarps += rt.activeWarps();
        sum.rtRays += rt.activeRays();
        sum.rtActiveUnits += rt.activeWarps() > 0 ? 1 : 0;
        for (int k = 0; k < numRayKinds; k++) {
            sum.rtWarpsByKind[k] += rt.warpsOfKind(k);
            sum.rtRaysByKind[k] += rt.raysOfKind(k);
        }
    }
    const ResidencyTotals &live = stats_.resident;
    LUMI_CHECK(Profile, sum == live,
               "residency totals drift from the units (running/summed): "
               "core warps %d/%d, RT warps %d/%d, rays %d/%d, active "
               "units %d/%d (or a per-kind count)",
               live.coreWarps, sum.coreWarps, live.rtWarps, sum.rtWarps,
               live.rtRays, sum.rtRays, live.rtActiveUnits,
               sum.rtActiveUnits);
#endif

#if LUMI_PROFILE_ENABLED
    // Conservation: the bucket taxonomy must account for every cycle
    // of every unit, per-SM and in aggregate. A leak here means a
    // state transition the classifier does not know about.
    for (int sm = 0; sm < config_.numSms; sm++) {
        LUMI_CHECK(Profile, profile_.sm(sm).sum() == now_,
                   "sm%d issue-slot buckets leak cycles: sum=%llu "
                   "cycles=%llu",
                   sm,
                   static_cast<unsigned long long>(
                       profile_.sm(sm).sum()),
                   static_cast<unsigned long long>(now_));
        LUMI_CHECK(Profile, profile_.rt(sm).sum() == now_,
                   "sm%d RT-unit buckets leak cycles: sum=%llu "
                   "cycles=%llu",
                   sm,
                   static_cast<unsigned long long>(
                       profile_.rt(sm).sum()),
                   static_cast<unsigned long long>(now_));
    }
    LUMI_CHECK(Profile,
               profile_.smTotal().sum() ==
                   now_ * static_cast<uint64_t>(config_.numSms),
               "aggregate issue-slot buckets leak cycles: sum=%llu "
               "cycles*sms=%llu",
               static_cast<unsigned long long>(
                   profile_.smTotal().sum()),
               static_cast<unsigned long long>(
                   now_ * static_cast<uint64_t>(config_.numSms)));
    LUMI_CHECK(Profile,
               profile_.rtTotal().sum() ==
                   now_ * static_cast<uint64_t>(config_.numSms),
               "aggregate RT-unit buckets leak cycles: sum=%llu "
               "cycles*units=%llu",
               static_cast<unsigned long long>(
                   profile_.rtTotal().sum()),
               static_cast<unsigned long long>(
                   now_ * static_cast<uint64_t>(config_.numSms)));
#endif

    stats_.cycles = now_;
    timeline_.record(now_, snapshot());
    // Closing sample after drainAll: the final row of every series
    // equals the end-of-run counter values in the stats dump.
    if (sampler_)
        sampler_->sampleFinal(now_);

    LaunchSample sample;
    sample.cycles = now_ - before.cycles;
    sample.warps = stats_.warpsLaunched - before.warps;
    for (int op = 0; op < numWarpOps; op++)
        sample.instrByOp[op] = stats_.instrByOp[op] -
                               before.instrByOp[op];
    sample.threadInstructions = stats_.threadInstructions -
                                before.threadInstructions;
    sample.memInstructions = stats_.memInstructions -
                             before.memInstructions;
    sample.coalescedSegments = stats_.coalescedSegments -
                               before.coalescedSegments;
    sample.l1Reads = mem_->l1Rt().reads + mem_->l1Shader().reads -
                     before.l1Reads;
    sample.l1Misses = mem_->l1Rt().misses + mem_->l1Shader().misses -
                      before.l1Misses;
    uint64_t dram_acc = mem_->dram().stats().accesses -
                        dram_acc_before;
    sample.dramAvgLatency =
        dram_acc > 0
            ? static_cast<double>(mem_->dram().stats().totalLatency -
                                  dram_lat_before) /
                  dram_acc
            : 0.0;
    launchSamples_.push_back(sample);
}

} // namespace lumi
