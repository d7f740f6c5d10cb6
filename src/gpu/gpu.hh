/**
 * @file
 * The top-level GPU simulator: SIMT cores, RT units, the memory
 * hierarchy and the cycle loop that ties them together.
 *
 * The cycle loop is event-accelerated: when no component can act at
 * the current cycle, time jumps to the earliest pending event, with
 * residency/occupancy statistics accumulated over the skipped span
 * (state is constant while nothing fires, so the weighting is exact).
 * The top-down cycle account is change-driven: a unit's span is
 * attributed only when its state is about to change.
 */

#ifndef LUMI_GPU_GPU_HH
#define LUMI_GPU_GPU_HH

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gpu/address_space.hh"
#include "gpu/config.hh"
#include "gpu/event_queue.hh"
#include "gpu/mem_system.hh"
#include "gpu/profile.hh"
#include "gpu/rt_unit.hh"
#include "gpu/simt_core.hh"
#include "gpu/stats.hh"
#include "gpu/timeline.hh"
#include "gpu/warp_context.hh"

namespace lumi
{

class HostProfiler;
class IntervalSampler;
class Tracer;

/** One kernel grid to execute. */
struct KernelLaunch
{
    std::string name = "kernel";
    /** Total warps in the grid. */
    uint32_t warpCount = 0;
    /** Active lanes in the final warp (tail handling). */
    int lanesInLastWarp = 32;
    /** Scene layout for ray tracing kernels; null for compute. */
    const SceneGpuLayout *layout = nullptr;
    /**
     * The warp program: runs functionally at warp launch and leaves
     * the instruction trace behind. The warp id is ctx.warpId().
     */
    std::function<void(WarpContext &ctx)> program;
};

/** Per-kernel-launch statistics deltas (analytical modeling). */
struct LaunchSample
{
    uint64_t cycles = 0;
    uint64_t warps = 0;
    uint64_t instrByOp[numWarpOps] = {};
    uint64_t threadInstructions = 0;
    uint64_t memInstructions = 0;
    uint64_t coalescedSegments = 0;
    uint64_t l1Reads = 0;
    uint64_t l1Misses = 0;
    double dramAvgLatency = 0.0;
};

/** The simulated GPU. */
class Gpu
{
  public:
    /**
     * @param tracer optional structured event tracer; the GPU only
     *        observes into it (simulated timing is unaffected) and
     *        does not take ownership. Null disables tracing.
     */
    explicit Gpu(const GpuConfig &config,
                 uint64_t timeline_interval = 10000,
                 Tracer *tracer = nullptr);

    Gpu(const Gpu &) = delete;
    Gpu &operator=(const Gpu &) = delete;

    const GpuConfig &config() const { return config_; }
    AddressSpace &addressSpace() { return space_; }
    MemSystem &memSystem() { return *mem_; }
    const MemSystem &memSystem() const { return *mem_; }
    GpuStats &stats() { return stats_; }
    const GpuStats &stats() const { return stats_; }
    const Timeline &timeline() const { return timeline_; }
    Tracer *tracer() const { return tracer_; }

    /**
     * The top-down cycle account (gpu/profile.hh). All-zero when the
     * build compiled attribution out (-DLUMI_PROFILE=OFF); otherwise
     * Sigma(sm buckets) == Sigma(rt buckets) == now() per unit, checked
     * at the end of every run().
     */
    const CycleProfile &profile() const { return profile_; }

    /**
     * Execute @p launch to completion. Statistics accumulate across
     * runs; the clock keeps advancing (back-to-back kernels).
     */
    void run(const KernelLaunch &launch);

    /**
     * Soft cycle budget: run() stops (and aborted() turns true) once
     * the clock reaches @p max_cycles. 0 disables the budget. The
     * budget is absolute, so it spans back-to-back launches of one
     * job. A budget that never fires cannot perturb simulated
     * timing: the check only compares the clock.
     */
    void setCycleBudget(uint64_t max_cycles)
    {
        cycleBudget_ = max_cycles;
    }

    /**
     * Cooperative cancellation: when @p flag (owned by the caller,
     * e.g. a campaign watchdog enforcing a wall-clock budget) becomes
     * true, run() stops at the next cycle boundary and aborted()
     * turns true. Null disables the check.
     */
    void setCancelFlag(const std::atomic<bool> *flag)
    {
        cancel_ = flag;
    }

    /**
     * Attach an interval sampler (owned by the caller): run() calls
     * maybeSample() whenever the clock crosses a sampling grid point
     * and sampleFinal() at launch end. The sampler only *reads*
     * registered counters, so attaching one cannot change simulated
     * cycle counts or stats (observer-effect-zero; CI compares the
     * bytes). Null detaches.
     */
    void setIntervalSampler(IntervalSampler *sampler)
    {
        sampler_ = sampler;
    }

    /**
     * Attach a host self-profiler (owned by the caller): run()
     * attributes wall time to loop components on sampled iterations.
     * Pure observer — simulated timing is unaffected. Null detaches.
     */
    void setHostProfiler(HostProfiler *profiler)
    {
        profiler_ = profiler;
    }

    /** True once a run stopped early on budget or cancellation. */
    bool aborted() const { return aborted_; }

    /**
     * True when a run stopped because the simulator deadlocked: some
     * component was busy with no future event to wake it (a model
     * bug, e.g. a warp sleeping with nobody left to wake it). Also
     * sets aborted(), so runners surface it as SimulationAborted
     * instead of killing the whole campaign worker process.
     */
    bool deadlocked() const { return deadlocked_; }

    /** Current simulated cycle. */
    uint64_t now() const { return now_; }

    /** One statistics delta per completed run() call. */
    const std::vector<LaunchSample> &launchSamples() const
    {
        return launchSamples_;
    }

  private:
    void fillSlots(const KernelLaunch &launch, uint32_t &next_warp);
    TimelineSample snapshot() const;

    /** One busy scan, shared by the loop-top break test and the
     *  no-event (deadlock vs completed-in-cycle) branch. */
    bool anyBusy(uint32_t next_warp,
                 const KernelLaunch &launch) const;
    /**
     * Close the landing span [now_, next): state-weighted residency
     * statistics from the running ResidencyTotals, then the landing
     * bookkeeping (clock, timeline, interval sampler).
     */
    void accountSpan(uint64_t next);
    /**
     * Top-down cycle accounting of SM @p sm over [smProfiledTo_, t):
     * the first cycle gets the issue outcome of the core's cycle()
     * there, if it ran, the rest the stall class of the current warp
     * state. Called before anything changes that state at @p t, so
     * one state held over the whole span. No-op for an empty span.
     */
    void profileSm(int sm, uint64_t t);
    /** profileSm() plus RtUnit::profileTo() for SM @p sm's pair. */
    void profilePair(int sm, uint64_t t);
    /** Bring every SM and RT unit's cycle account up to @p t. */
    void profileAll(uint64_t t);
    /** Cycle core @p sm at now_, accounting the span it ends. */
    void cycleCore(int sm);
    /** Cycle RT unit @p sm at now_, accounting the span it ends. */
    void cycleRt(int sm);
    /** Diagnose a busy-but-eventless state and mark the run
     *  deadlocked/aborted (reported as SimulationAborted upstream). */
    void reportDeadlock();
    /**
     * The cycle loop: pops the due components off queue_, cycles
     * them, re-registers every component whose state may have
     * changed, and jumps the clock to the next registered event.
     * Golden cycle pins recorded from the earlier polling loop anchor
     * its landing cycles.
     */
    void runEventLoop(const KernelLaunch &launch,
                      uint32_t &next_warp);

    GpuConfig config_;
    AddressSpace space_;
    Tracer *tracer_ = nullptr;
    std::unique_ptr<MemSystem> mem_;
    GpuStats stats_;
    Timeline timeline_;
    std::vector<std::unique_ptr<RtUnit>> rtUnits_;
    std::vector<std::unique_ptr<SimtCore>> cores_;
    CycleProfile profile_;
    /** Per-SM: ever held a warp this kernel (drain vs empty). */
    std::vector<uint8_t> smHadWork_;
    /** Per-SM drain cycles of the current kernel, reclassified to
     *  sync when another kernel follows (implicit barrier). */
    std::vector<uint64_t> drainTail_;
    /** Per-SM end of the span already in profile_. */
    std::vector<uint64_t> smProfiledTo_;
    /** Per-SM outcome of the core's cycle() at smProfiledTo_ (None
     *  when the core did not cycle there). */
    std::vector<IssueOutcome> smOutcome_;
    std::vector<LaunchSample> launchSamples_;
    /** Component next-event registrations: cores are components
     *  [0, numSms), RT units [numSms, 2*numSms), the memory system
     *  2*numSms. */
    EventQueue queue_;
    /** Due components at the current landing (popDue scratch). */
    std::vector<int> due_;
    /** Per-SM flags for the current loop iteration. */
    std::vector<uint8_t> coreCycled_;
    std::vector<uint8_t> rtCycled_;
    std::vector<uint8_t> rtDue_;
    /** Cores handed fresh warps by fillSlots (re-register). */
    std::vector<uint8_t> coreDirty_;
    uint64_t now_ = 0;
    uint64_t cycleBudget_ = 0;
    const std::atomic<bool> *cancel_ = nullptr;
    IntervalSampler *sampler_ = nullptr;
    HostProfiler *profiler_ = nullptr;
    bool aborted_ = false;
    bool deadlocked_ = false;
};

} // namespace lumi

#endif // LUMI_GPU_GPU_HH
