/**
 * @file
 * The ledger benchmark program: one command that times the simulator
 * from outside through its public entry points and checks that what
 * it returns is right.
 *
 *   ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *          --pins <file> --out <dir>
 *   ledger --emit-pins --out <dir>
 *
 * Untraced (--trace 0) runs drive campaign::runCampaign over Job
 * lists and the query/serve read side, and print the end-to-end
 * metrics. Traced (--trace 1) runs compose every job from the layer
 * calls instead (scene, BVH, render/run/kernel, metrics, stat dump,
 * cache and report I/O, query, serve), record one span around each
 * call, and print the per-layer ledger, the tracing overhead and the
 * reconciliation residual. Both modes run the correctness gate and
 * exit non-zero when any item fails. The last stdout line is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analytical.hh"
#include "analysis/cluster.hh"
#include "analysis/genetic.hh"
#include "analysis/pca.hh"
#include "campaign/cache.hh"
#include "campaign/campaign.hh"
#include "check/check.hh"
#include "compute/rodinia.hh"
#include "compute/rtq/rtq_pipeline.hh"
#include "compute/rtq/rtq_scene.hh"
#include "gpu/gpu.hh"
#include "gpu/host_profile.hh"
#include "gpu/stat_bindings.hh"
#include "ledger_core.hh"
#include "lumibench/query.hh"
#include "lumibench/run_report.hh"
#include "lumibench/runner.hh"
#include "lumibench/serve.hh"
#include "lumibench/workload.hh"
#include "metrics/metrics.hh"
#include "rt/pipeline.hh"
#include "scene/scene_library.hh"
#include "trace/interval.hh"
#include "trace/json_read.hh"
#include "trace/stat_registry.hh"
#include "trace/trace.hh"

using namespace lumi;
using namespace ledger;
namespace fs = std::filesystem;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Moves the benchmark from CPU to CPU of those it may run on, one
 * step per timed pass, block of rounds or cache fill. On a shared VM
 * some virtual CPUs run up to 1.6x slower than others for minutes at
 * a time, and a single-threaded process stays on the CPU it started
 * on, so whole runs came out fast or slow. Visiting every CPU spreads
 * a run's passes over all of them. Each move also probes the host's
 * speed on the new CPU, for hostScale().
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
            if (CPU_ISSET(cpu, &set))
                cpus_.push_back(cpu);
        }
    }

    /** Pin the calling thread, and the threads it starts, to the
     *  next CPU, and time probeHost() there. */
    void
    next()
    {
        if (cpus_.size() > 1) {
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(cpus_[next_++ % cpus_.size()], &set);
            sched_setaffinity(0, sizeof(set), &set);
        }
        probes.push_back(probeHost());
    }

    /** probeHost() seconds, one per move. */
    std::vector<double> probes;

  private:
    std::vector<int> cpus_;
    size_t next_ = 0;
};

// ---------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------

/**
 * Input seeds per job. --seed selects one of them, so every input a
 * run can see has pinned functional counts in pins.tsv.
 */
constexpr uint32_t kInputSeeds = 8;

uint32_t
inputSeed(uint64_t seed)
{
    return 1 + static_cast<uint32_t>(seed % kInputSeeds);
}

struct WorkloadDef
{
    std::string name;
    /** Jobs of the timed part; for reports_warm, the cache fill. */
    std::vector<campaign::Job> jobs;
    /** reports_warm: no simulation in the timed part. */
    bool warm = false;
};

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "graphics_mobile", "graphics_table4", "compute_table4",
        "reports_warm"};
    return names;
}

RunOptions
jobOptions(const GpuConfig &config, int res, float detail,
           uint32_t seed, uint64_t interval_stats = 0)
{
    RunOptions options;
    options.config = config;
    options.params.width = res;
    options.params.height = res;
    options.params.samplesPerPixel = 1;
    options.params.seed = seed;
    options.sceneDetail = detail;
    options.intervalStats = interval_stats;
    return options;
}

Workload
workloadById(const std::string &id)
{
    for (const auto &list :
         {allWorkloads(), rtqWorkloads(), gameWorkloads()}) {
        for (const Workload &workload : list) {
            if (workload.id() == id)
                return workload;
        }
    }
    std::fprintf(stderr, "ledger: unknown workload id %s\n",
                 id.c_str());
    std::exit(2);
}

/**
 * The four workloads. Sizes keep one pass of each timed part near
 * or under a few host seconds on a 4-core x86 host, so a run of
 * --seconds 28 holds several passes.
 */
bool
defineWorkload(const std::string &name, uint32_t seed,
               WorkloadDef &def)
{
    def = WorkloadDef{};
    def.name = name;
    if (name == "graphics_mobile") {
        // Table 2 subset on the latency-oracle memory system: host
        // time is RT units, SIMT cores and functional shading.
        RunOptions options = jobOptions(GpuConfig::mobile(), 48, 1.0f,
                                        seed);
        for (const Workload &workload : representativeSubset())
            def.jobs.push_back(
                campaign::Job::rayTracing(workload, options));
    } else if (name == "graphics_table4") {
        // Coherent AO, divergent procedural PT with a small working
        // set, and a large working set, on the finite MSHR,
        // interconnect and DRAM path.
        RunOptions options = jobOptions(GpuConfig::table4(), 32, 1.0f,
                                        seed);
        for (const char *id : {"BUNNY_AO", "WKND_PT", "ROBOT_SH"})
            def.jobs.push_back(
                campaign::Job::rayTracing(workloadById(id), options));
    } else if (name == "compute_table4") {
        // Store-heavy Rodinia traffic (no shading, no BVH) plus RT
        // units used as compute. Left out because one pass of them
        // would hold few timed passes per run: particlefilter, btree,
        // nn and hotspot (0.6-2.3 s each under table4, three quarters
        // of the 13 kernels' time) and PTS_KNN (tens of seconds).
        // reports_warm still reads all 13 kernels' results.
        RunOptions options = jobOptions(GpuConfig::table4(), 48, 1.0f,
                                        seed);
        for (ComputeKernel kernel :
             {ComputeKernel::Bfs, ComputeKernel::Pathfinder,
              ComputeKernel::Gaussian, ComputeKernel::Nw,
              ComputeKernel::Kmeans, ComputeKernel::Lud,
              ComputeKernel::Backprop, ComputeKernel::Srad,
              ComputeKernel::StreamCluster})
            def.jobs.push_back(campaign::Job::compute(kernel, options));
        for (const char *id : {"AMR_PC", "PTS_PC"})
            def.jobs.push_back(
                campaign::Job::rayTracing(workloadById(id), options));
    } else if (name == "reports_warm") {
        // The whole suite at small scale with interval stats: the
        // cache the read side is timed over. Only under mobile: the
        // table4 reports carry megabytes of timeline windows from the
        // interconnect defect's inflated cycle counts, and streaming
        // them swung every read-side time with the host's memory
        // bandwidth.
        RunOptions options =
            jobOptions(GpuConfig::mobile(), 16, 0.25f, seed, 20000);
        for (const auto &list : {allWorkloads(), rtqWorkloads()}) {
            for (const Workload &workload : list)
                def.jobs.push_back(
                    campaign::Job::rayTracing(workload, options));
        }
        for (ComputeKernel kernel : allComputeKernels())
            def.jobs.push_back(campaign::Job::compute(kernel, options));
        def.warm = true;
    } else {
        return false;
    }
    return true;
}

// ---------------------------------------------------------------
// Result inspection
// ---------------------------------------------------------------

using StatMap = std::map<std::string, double>;

/** The flat stat dump of one result, by name. */
StatMap
parseStats(const std::string &json)
{
    StatMap stats;
    JsonValue doc;
    if (!parseJson(json, doc) || !doc.isObject())
        return stats;
    for (const auto &[name, value] : doc.members) {
        if (value.isNumber())
            stats[name] = value.number();
    }
    return stats;
}

double
stat(const StatMap &stats, const std::string &name)
{
    auto found = stats.find(name);
    return found == stats.end() ? 0.0 : found->second;
}

/** Sum of every stat whose name starts with @p prefix. */
double
statSum(const StatMap &stats, const std::string &prefix)
{
    double total = 0.0;
    for (auto it = stats.lower_bound(prefix);
         it != stats.end() && it->first.compare(0, prefix.size(),
                                                prefix) == 0;
         ++it)
        total += it->second;
    return total;
}

FunctionalCounts
countsOf(const WorkloadResult &result)
{
    FunctionalCounts counts;
    counts.threadInstructions = result.stats.threadInstructions;
    counts.raysTraced = result.stats.raysTraced;
    counts.warpsLaunched = result.stats.warpsLaunched;
    return counts;
}

double
phaseSeconds(const WorkloadResult &result, const std::string &name)
{
    double total = 0.0;
    for (const PhaseTiming &phase : result.phases) {
        if (phase.name == name)
            total += phase.seconds;
    }
    return total;
}

// ---------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------

/**
 * Items attempted (jobs, queries, requests) and those that failed.
 * Any failure makes the run incorrect and the exit code non-zero.
 */
struct Gate
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    item(const std::vector<std::string> &problems)
    {
        attempted++;
        if (problems.empty())
            return;
        failed++;
        for (const std::string &problem : problems) {
            if (errors.size() < 20)
                errors.push_back(problem);
        }
    }

    void
    item(bool ok, const std::string &problem)
    {
        item(ok ? std::vector<std::string>{}
                : std::vector<std::string>{problem});
    }
};

/**
 * The run report of @p result without its host timings (phases, host
 * profile): everything a cache entry or `lumibench run --report`
 * records about the simulation, which must repeat byte for byte.
 */
std::string
canonicalReport(WorkloadResult result, const RunOptions &options)
{
    result.phases.clear();
    result.hostProfile = HostProfile{};
    return runReportJson({result}, options);
}

/** Checks every simulated result of one workload run. */
struct JobChecker
{
    const WorkloadDef &def;
    const PinTable &pins;
    uint32_t seed;
    /** First canonical report seen per job; every later one must
     *  match. */
    std::vector<std::string> reference;

    JobChecker(const WorkloadDef &d, const PinTable &p, uint32_t s)
        : def(d), pins(p), seed(s), reference(d.jobs.size())
    {
    }

    std::vector<std::string>
    check(size_t index, const WorkloadResult &result,
          const char *source)
    {
        const campaign::Job &job = def.jobs[index];
        std::vector<std::string> problems;
        PinKey key{def.name, job.id(), job.options.config.name, seed};
        std::string pin = pins.check(key, countsOf(result));
        if (!pin.empty())
            problems.push_back(pin);

        // The cycle account conserves issue slots and RT cycles.
        StatMap stats = parseStats(result.statsJson);
        double cycles = stat(stats, "gpu.cycles");
        double sms = job.options.config.numSms;
        double rt_units = sms * job.options.config.rtUnitsPerSm;
        if (statSum(stats, "profile.sm.") != cycles * sms ||
            statSum(stats, "profile.rt.") != cycles * rt_units)
            problems.push_back(job.id() +
                               ": profile buckets do not sum to "
                               "cycles x units");

        // Stat dump, metrics, timeline and interval series.
        std::string report = canonicalReport(result, job.options);
        if (reference[index].empty())
            reference[index] = report;
        else if (reference[index] != report)
            problems.push_back(job.id() + ": the run report of the " +
                               source + " run differs from the first "
                               "run's");
        return problems;
    }
};

// ---------------------------------------------------------------
// Composed (traced) jobs
// ---------------------------------------------------------------

/** What a composed job leaves behind besides its result. */
struct ComposedJob
{
    WorkloadResult result;
    HostProfile profile;
    int span = -1;
    bool aborted = false;
};

/**
 * One job built from the public layer calls, with a span around
 * each. The GPU, tracer and observers are set up as runWorkload and
 * runCompute set them up, so the result (stat dump, metrics,
 * timeline, interval series) must match the campaign's byte for
 * byte; only the host profiler is added.
 */
ComposedJob
composeJob(const campaign::Job &job, SpanRecorder &rec, int job_index)
{
    ComposedJob out;
    const RunOptions &options = job.options;
    SpanRecorder::Scoped job_span(rec, "job", job_index);
    out.span = static_cast<int>(rec.spans().size()) - 1;

    const bool ray_tracing = job.kind == campaign::Job::Kind::RayTracing;
    const bool query = ray_tracing && isQueryShader(job.workload.shader);
    std::optional<Scene> scene;
    if (ray_tracing) {
        SpanRecorder::Scoped span(rec, "scene");
        scene.emplace(query ? rtq::buildRtqScene(job.workload.scene,
                                                 options.sceneDetail)
                            : buildScene(job.workload.scene,
                                         options.sceneDetail));
    }
    std::shared_ptr<Tracer> tracer;
    std::optional<Gpu> gpu;
    HostProfiler profiler;
    std::unique_ptr<IntervalSampler> sampler;
    {
        SpanRecorder::Scoped span(rec, "gpu.setup");
        tracer = std::make_shared<Tracer>(options.traceCapacity);
        tracer->setMask(options.traceMask);
        gpu.emplace(options.config, options.timelineInterval,
                    tracer.get());
        gpu->setCycleBudget(options.maxCycles);
        gpu->setCancelFlag(options.cancelFlag);
        if (options.dramBandwidthScale != 1.0)
            gpu->memSystem().dram().setBandwidthScale(
                options.dramBandwidthScale);
        gpu->setHostProfiler(&profiler);
        if (options.intervalStats > 0) {
            sampler = std::make_unique<IntervalSampler>(
                options.intervalStats);
            registerGpu(sampler->registry(), *gpu);
            gpu->setIntervalSampler(sampler.get());
        }
    }

    std::optional<RayTracingPipeline> pipeline;
    std::optional<rtq::RtqPipeline> rtq_pipeline;
    if (ray_tracing) {
        SpanRecorder::Scoped span(rec, "bvh");
        if (query)
            rtq_pipeline.emplace(*gpu, *scene, options.params);
        else
            pipeline.emplace(*gpu, *scene, options.params);
    }
    if (ray_tracing) {
        SpanRecorder::Scoped span(rec, "rt");
        if (query)
            rtq_pipeline->run(job.workload.shader);
        else
            pipeline->render(job.workload.shader);
    } else {
        SpanRecorder::Scoped span(rec, "compute");
        ComputeParams params;
        params.scale = 1;
        runComputeKernel(*gpu, job.kernel, params);
    }
    out.aborted = gpu->aborted();

    WorkloadResult &result = out.result;
    {
        SpanRecorder::Scoped span(rec, "gpu.collect");
        result.id = job.id();
        result.stats = gpu->stats();
        result.profileSm = gpu->profile().smTotal();
        result.profileRt = gpu->profile().rtTotal();
        result.dram = gpu->memSystem().dram().stats();
        result.l1Rt = gpu->memSystem().l1Rt();
        result.l1Shader = gpu->memSystem().l1Shader();
        result.l2Rt = gpu->memSystem().l2Rt();
        result.l2Shader = gpu->memSystem().l2Shader();
        for (int k = 0; k < numDataKinds; k++) {
            result.kindReads[k] = gpu->memSystem().kindReads()[k];
            result.kindMisses[k] = gpu->memSystem().kindMisses()[k];
        }
        if (ray_tracing)
            result.accelStats =
                query ? rtq_pipeline->accel().computeStats()
                      : pipeline->accel().computeStats();
        result.rtUnits =
            options.config.numSms * options.config.rtUnitsPerSm;
        result.timeline = gpu->timeline().windows(result.rtUnits);
        out.profile = profiler.profile();
        if (sampler)
            result.intervalSeries = sampler->series();
    }
    {
        SpanRecorder::Scoped span(rec, "metrics");
        WorkloadContext context;
        context.scene = ray_tracing ? &*scene : nullptr;
        context.accelStats = &result.accelStats;
        context.shader = job.workload.shader;
        context.params = options.params;
        result.metrics =
            collectMetrics(*gpu, ray_tracing ? &context : nullptr);
        result.metrics.workload = result.id;
        result.analytical = evaluateHongKim(*gpu);
    }
    {
        SpanRecorder::Scoped span(rec, "trace.stats_dump");
        StatRegistry registry;
        registerGpu(registry, *gpu);
        if (ray_tracing)
            registerAccelStats(registry, result.accelStats);
        registerCheckStats(registry);
        registerTraceStats(registry, tracer.get());
        result.statsJson = registry.toJson();
    }
    {
        SpanRecorder::Scoped span(rec, "teardown");
        pipeline.reset();
        rtq_pipeline.reset();
        sampler.reset();
        gpu.reset();
        tracer.reset();
        scene.reset();
    }
    return out;
}

// ---------------------------------------------------------------
// Per-layer ledger of composed passes
// ---------------------------------------------------------------

/** Layer sums over one composed pass. */
struct SimLedger
{
    double sceneMs = 0, bvhMs = 0, renderS = 0, kernelS = 0;
    double metricsMs = 0, dumpMs = 0;
    double landings = 0, loopSeconds = 0;
    std::map<std::string, double> componentSeconds;
    StatMap counters;
    /** Per job: the time its layer spans account for. */
    std::vector<double> jobAttributed;
};

SimLedger
ledgerOf(const SpanRecorder &rec, size_t first_span,
         const std::vector<ComposedJob> &jobs)
{
    SimLedger led;
    std::vector<Span> spans(rec.spans().begin() + first_span,
                            rec.spans().end());
    for (Span &span : spans) {
        if (span.parent >= 0)
            span.parent -= static_cast<int>(first_span);
    }
    std::vector<double> self = selfTimes(spans);
    led.sceneMs = 1e3 * selfTimeOf(spans, self, "scene");
    led.bvhMs = 1e3 * selfTimeOf(spans, self, "bvh");
    led.renderS = selfTimeOf(spans, self, "rt");
    led.kernelS = selfTimeOf(spans, self, "compute");
    led.metricsMs = 1e3 * selfTimeOf(spans, self, "metrics");
    led.dumpMs = 1e3 * selfTimeOf(spans, self, "trace.stats_dump");
    for (const ComposedJob &job : jobs) {
        led.jobAttributed.push_back(attributedTime(
            spans, self, job.span - static_cast<int>(first_span)));
        led.landings += static_cast<double>(job.profile.totalIterations);
        led.loopSeconds += job.profile.loopSeconds;
        for (const HostProfileComponent &component :
             job.profile.components)
            led.componentSeconds[component.name] += component.seconds;
        for (const auto &[name, value] :
             parseStats(job.result.statsJson))
            led.counters[name] += value;
    }
    return led;
}

// ---------------------------------------------------------------
// Metrics output
// ---------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
printResult(const Gate &gate, const std::vector<Metric> &metrics)
{
    bool finite = true;
    std::string json = "{\"metrics\": {";
    for (size_t i = 0; i < metrics.size(); i++) {
        const Metric &metric = metrics[i];
        finite = finite && std::isfinite(metric.value);
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(metric.value) ? metric.value : 0.0);
        json += std::string(i ? ", " : "") + "\"" + metric.name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                metric.unit + "\"}";
    }
    json += "}}";
    bool correct = gate.failed == 0 && finite;
    std::printf("\nmetrics:\n");
    for (const Metric &metric : metrics)
        std::printf("  %-32s %14.6f %s\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str());
    for (const std::string &error : gate.errors)
        std::printf("FAILED: %s\n", error.c_str());
    if (!finite)
        std::printf("FAILED: a metric is not a finite number\n");
    std::printf("{\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, %s\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(gate.attempted),
                static_cast<unsigned long long>(gate.failed),
                json.substr(1).c_str());
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Unranked model outputs: simulated cycles and IPC per job. */
void
printModelOutputs(const WorkloadDef &def,
                  const std::vector<WorkloadResult> &results)
{
    std::printf("\nmodel outputs (unranked). The timing model is "
                "unvalidated: the repository holds no reference "
                "hardware data, so no accuracy figure is given.\n");
    for (size_t i = 0; i < results.size(); i++) {
        std::printf("  model.cycles %-16s %-7s %12llu   model.ipc "
                    "%.4f\n",
                    results[i].id.c_str(),
                    def.jobs[i].options.config.name.c_str(),
                    static_cast<unsigned long long>(
                        results[i].stats.cycles),
                    results[i].ipcThread());
    }
}

// ---------------------------------------------------------------
// Campaign passes
// ---------------------------------------------------------------

campaign::CampaignOptions
serialCampaign(const std::string &cache_dir = "")
{
    campaign::CampaignOptions options;
    options.jobs = 1;
    options.retries = 0;
    options.cacheDir = cache_dir;
    return options;
}

/** One untraced pass: the timed jobs through runCampaign. */
struct Pass
{
    double wall = 0.0;
    /** Scene generation, BVH build and GPU layout of every job: the
     *  runner's scene_build and bvh_build phases, summed. */
    double setup = 0.0;
    /** Per job: wall seconds, and the same minus its set-up. */
    std::vector<double> jobWall;
    std::vector<double> jobSim;
    double instructions = 0.0;
    double rays = 0.0;
    std::vector<WorkloadResult> results;
};

Pass
campaignPass(const WorkloadDef &def, JobChecker &checker, Gate &gate)
{
    Pass pass;
    Clock::time_point start = Clock::now();
    campaign::CampaignResult run =
        campaign::runCampaign(def.jobs, serialCampaign());
    pass.wall = since(start);
    for (size_t i = 0; i < run.outcomes.size(); i++) {
        const campaign::JobOutcome &outcome = run.outcomes[i];
        const WorkloadResult &result = outcome.result;
        if (outcome.status != campaign::JobStatus::Ok)
            gate.item(false, outcome.id + ": job " +
                                 campaign::jobStatusName(
                                     outcome.status) +
                                 " " + outcome.error);
        else
            gate.item(checker.check(i, result, "campaign"));
        double setup = phaseSeconds(result, "scene_build") +
                       phaseSeconds(result, "bvh_build");
        pass.setup += setup;
        pass.jobWall.push_back(outcome.wallSeconds);
        pass.jobSim.push_back(outcome.wallSeconds - setup);
        pass.instructions +=
            static_cast<double>(result.stats.threadInstructions);
        pass.rays += static_cast<double>(result.stats.raysTraced);
        pass.results.push_back(result);
    }
    return pass;
}

/** Median over passes of @p time(pass). */
template <typename Time>
double
medianPass(const std::vector<Pass> &passes, Time &&time)
{
    std::vector<double> values;
    for (const Pass &pass : passes)
        values.push_back(time(pass));
    return median(values);
}

double
sumOf(const std::vector<double> &values)
{
    double total = 0.0;
    for (double value : values)
        total += value;
    return total;
}

// ---------------------------------------------------------------
// Read side: warm re-sweep, suite analysis, query and serve mixes
// ---------------------------------------------------------------

/** What the read side must answer for one job. */
struct Expected
{
    std::string id;
    std::string config;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    bool series = false;
    SmCycleBuckets sm;
    std::string statsJson;
};

class ReadSide
{
  public:
    ReadSide(const WorkloadDef &def, std::string dir,
             const std::vector<WorkloadResult> &results, Gate &gate,
             SpanRecorder *rec)
        : def_(def), dir_(std::move(dir)), gate_(gate), rec_(rec),
          server_(dir_)
    {
        for (size_t i = 0; i < results.size(); i++) {
            Expected e;
            e.id = results[i].id;
            e.config = def.jobs[i].options.config.name;
            e.instructions = results[i].stats.threadInstructions;
            e.cycles = results[i].stats.cycles;
            e.series = def.jobs[i].options.intervalStats > 0;
            e.sm = results[i].profileSm;
            e.statsJson = results[i].statsJson;
            expected_.push_back(std::move(e));
        }
    }

    /**
     * One round: a warm re-sweep, the suite analysis over its
     * results, kQueryPasses passes of the query mix and kServePasses
     * of the serve mix. Every round issues the same calls.
     */
    double
    round()
    {
        Clock::time_point start = Clock::now();
        std::vector<WorkloadResult> swept = resweep();
        analyze(swept);
        for (int p = 0; p < kQueryPasses; p++)
            queryPass(mixJob(p));
        queryRoundEnds.push_back(queryMs.size());
        for (int p = 0; p < kServePasses; p++)
            servePass(mixJob(p));
        serveRoundEnds.push_back(serveMs.size());
        callRoundEnds.push_back(callMs.size());
        double wall = since(start);
        roundWalls.push_back(wall);
        return wall;
    }

    /** Mix passes per round: at least 100 query and serve samples
     *  fit in a 28-second run on every workload. */
    static constexpr int kQueryPasses = 2;
    static constexpr int kServePasses = 1;

    std::vector<double> roundWalls;
    std::vector<double> resweepWalls;
    std::vector<double> engineOverheadMs;
    std::vector<double> hitRatios;
    std::vector<double> cacheReadMs;
    std::vector<double> analysisMs;
    std::vector<double> queryMs;
    std::vector<double> scanMs;
    std::vector<double> answerMs;
    std::vector<double> serveMs;
    /** Every query and serve sample, in call order. */
    std::vector<double> callMs;
    /** End index of each round's samples in queryMs / serveMs /
     *  callMs. */
    std::vector<size_t> queryRoundEnds;
    std::vector<size_t> serveRoundEnds;
    std::vector<size_t> callRoundEnds;
    double reportsIndexed = 0.0;
    double instructions = 0.0;
    double rays = 0.0;

  private:
    /** Time @p body as one sample, inside a span when traced. */
    template <typename Body>
    double
    timed(const char *span, Body &&body)
    {
        int index = rec_ ? rec_->begin(span) : -1;
        Clock::time_point start = Clock::now();
        body();
        double ms = 1e3 * since(start);
        if (rec_)
            rec_->end(index);
        return ms;
    }

    std::vector<WorkloadResult>
    resweep()
    {
        campaign::CampaignResult run;
        double ms = timed("campaign.resweep", [&] {
            run = campaign::runCampaign(def_.jobs,
                                        serialCampaign(dir_));
        });
        resweepWalls.push_back(ms / 1e3);
        double job_walls = 0.0;
        std::vector<WorkloadResult> swept;
        instructions = rays = 0.0;
        for (size_t i = 0; i < run.outcomes.size(); i++) {
            const campaign::JobOutcome &outcome = run.outcomes[i];
            job_walls += outcome.wallSeconds;
            bool ok = outcome.status == campaign::JobStatus::Cached &&
                      outcome.result.statsJson ==
                          expected_[i].statsJson;
            gate_.item(ok, outcome.id +
                               ": warm re-sweep did not return the "
                               "cached result byte-identically");
            instructions += static_cast<double>(
                outcome.result.stats.threadInstructions);
            rays += static_cast<double>(outcome.result.stats.raysTraced);
            swept.push_back(outcome.result);
        }
        engineOverheadMs.push_back(ms - 1e3 * job_walls);
        hitRatios.push_back(ratio(
            static_cast<double>(run.stats.cached),
            static_cast<double>(run.stats.total)));
        if (rec_) {
            // The layer call under the engine, once per job.
            for (size_t i = 0; i < def_.jobs.size(); i++) {
                WorkloadResult loaded;
                bool hit = false;
                cacheReadMs.push_back(timed("campaign.cache_read", [&] {
                    hit = campaign::readCachedResult(
                        dir_ + "/" + campaign::cacheKey(def_.jobs[i]),
                        def_.jobs[i], loaded);
                }));
                gate_.item(hit && loaded.statsJson ==
                                      expected_[i].statsJson,
                           expected_[i].id +
                               ": readCachedResult missed or "
                               "differs");
            }
        }
        return swept;
    }

    void
    analyze(const std::vector<WorkloadResult> &swept)
    {
        std::vector<int> selected;
        bool shaped = false;
        analysisMs.push_back(timed("analysis", [&] {
            std::vector<std::vector<double>> rows;
            for (const WorkloadResult &result : swept)
                rows.push_back(result.metrics.values);
            std::vector<int> kept;
            auto dense = denseColumns(rows, kept);
            PcaResult reduced = pca(dense, 0.9);
            Dendrogram tree = agglomerate(reduced.scores);
            GeneticResult selection =
                selectMetrics(dense, reduced.scores, GeneticParams{});
            selected = selection.selected;
            shaped = reduced.kept > 0 &&
                     tree.merges.size() + 1 == swept.size();
        }));
        if (analysisReference_.empty())
            analysisReference_ = selected;
        gate_.item(shaped &&
                       selected.size() ==
                           static_cast<size_t>(
                               GeneticParams{}.subsetSize) &&
                       selected == analysisReference_,
                   "suite analysis is empty or differs between "
                   "rounds");
    }

    query::QueryFilter
    filterFor(const Expected &e) const
    {
        query::QueryFilter filter;
        filter.add("workload=" + e.id);
        filter.add("config=" + e.config);
        return filter;
    }

    /** The job the @p slot-th mix pass of a round targets, spread
     *  over the job list. */
    const Expected &
    mixJob(int slot) const
    {
        size_t n = expected_.size();
        return expected_[(static_cast<size_t>(slot) * (n / 2 + 1)) % n];
    }

    void
    queryPass(const Expected &e)
    {
        query::QueryFilter one = filterFor(e);

        double ms = timed("query.scan", [&] {
            index_ = query::ReportIndex::scan(dir_);
        });
        scanMs.push_back(ms);
        queryMs.push_back(ms);
        callMs.push_back(ms);
        reportsIndexed = static_cast<double>(index_.reports.size());
        gate_.item(index_.reports.size() == expected_.size(),
                   "scan indexed " +
                       std::to_string(index_.reports.size()) +
                       " reports, expected " +
                       std::to_string(expected_.size()));

        std::vector<query::StatRow> rows;
        answer([&] {
            rows = query::queryStat(index_, "gpu.thread_instructions",
                                    one);
        });
        gate_.item(rows.size() == 1 &&
                       rows[0].token == std::to_string(e.instructions),
                   e.id + ": queryStat thread_instructions differs "
                          "from the in-memory result");

        query::QueryFilter config;
        config.add("config=" + e.config);
        answer([&] {
            rows = query::queryStat(index_, "gpu.cycles", config);
        });
        size_t want = 0;
        bool match = true;
        for (const Expected &other : expected_) {
            if (other.config != e.config)
                continue;
            want++;
            bool found = false;
            for (const query::StatRow &row : rows) {
                found = found || (row.workload == other.id &&
                                  row.token ==
                                      std::to_string(other.cycles));
            }
            match = match && found;
        }
        gate_.item(match && rows.size() == want,
                   "queryStat gpu.cycles config=" + e.config +
                       " differs from the in-memory results");

        std::vector<query::SeriesResult> series;
        answer([&] {
            series = query::querySeries(
                index_, "gpu.thread_instructions", one);
        });
        gate_.item(e.series ? series.size() == 1 &&
                                  !series[0].values.empty() &&
                                  series[0].values.back() ==
                                      e.instructions
                            : series.empty(),
                   e.id + ": querySeries differs from the in-memory "
                          "result");

        std::vector<query::BreakdownRow> breakdown;
        answer([&] {
            breakdown = query::queryBreakdown(index_, one);
        });
        bool same = breakdown.size() == 1 &&
                    breakdown[0].cycles == e.cycles;
        for (int b = 0; same && b < numSmCycleBuckets; b++)
            same = breakdown[0].sm.cycles[b] == e.sm.cycles[b];
        gate_.item(same, e.id + ": queryBreakdown differs from the "
                                "in-memory result");
    }

    template <typename Body>
    void
    answer(Body &&body)
    {
        double ms = timed("query.answer", body);
        answerMs.push_back(ms);
        queryMs.push_back(ms);
        callMs.push_back(ms);
    }

    void
    servePass(const Expected &e)
    {
        std::string where = "workload=" + e.id + "&config=" + e.config;
        struct Route
        {
            std::string target;
            int status;
            std::string contains;
        };
        // Most routes scan the directory; the cheap ones stay a
        // minority so the median lands among the scanning requests.
        const Route routes[] = {
            {"/healthz", 200,
             "\"reports\":" + std::to_string(expected_.size())},
            {"/index", 200, "\"" + e.id + "\""},
            {"/stats?" + where, 200, "\"gpu.cycles\""},
            {"/stat?name=gpu.thread_instructions&" + where, 200,
             "\"value\":" + std::to_string(e.instructions)},
            {"/stat?name=gpu.cycles&config=" + e.config, 200,
             "\"value\":" + std::to_string(e.cycles)},
            {"/breakdown?" + where, 200, "\"" + e.id + "\""},
            {"/breakdown?config=" + e.config, 200, "\"" + e.id + "\""},
            {"/series?name=gpu.cycles&" + where, 200, ""},
            {"/version", 200, kRunReportSchema},
            // Malformed targets must be refused with a 4xx.
            {"/stat", 400, ""},
            {"/stat?name=gpu.cycles&colour=red", 400, ""},
            {"/report?file=..%2F..%2Fetc%2Fpasswd", 400, ""},
            {"/no/such/route", 404, ""},
        };
        for (const Route &route : routes) {
            query::ReportServer::Response response;
            serveMs.push_back(timed("serve.handle", [&] {
                response = server_.handle(route.target);
            }));
            callMs.push_back(serveMs.back());
            bool ok = response.status == route.status &&
                      response.body.find(route.contains) !=
                          std::string::npos;
            gate_.item(ok, "serve " + route.target + " returned " +
                               std::to_string(response.status) +
                               ", expected " +
                               std::to_string(route.status));
        }
    }

    const WorkloadDef &def_;
    std::string dir_;
    Gate &gate_;
    SpanRecorder *rec_;
    query::ReportServer server_;
    std::vector<Expected> expected_;
    std::vector<int> analysisReference_;
    query::ReportIndex index_;
};

/** True once both mixes hold enough samples to report p90 with ten
 *  samples beyond it. */
bool
mixSamplesMet(const ReadSide &reads)
{
    return samplesBeyond(reads.queryMs.size(), 0.9) >= 10 &&
           samplesBeyond(reads.serveMs.size(), 0.9) >= 10;
}

/** A fresh, empty directory under @p out. */
std::string
freshDir(const std::string &out, const std::string &name)
{
    std::string dir = out + "/" + name;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    return dir;
}

/** Write @p results into @p dir as cache entries; one span each. */
void
writeCache(const WorkloadDef &def, const std::string &dir,
           const std::vector<WorkloadResult> &results, Gate &gate,
           SpanRecorder *rec, std::vector<double> *write_ms)
{
    for (size_t i = 0; i < results.size(); i++) {
        int span = rec ? rec->begin("campaign.cache_write") : -1;
        Clock::time_point start = Clock::now();
        bool ok = campaign::writeCachedResult(
            dir + "/" + campaign::cacheKey(def.jobs[i]), def.jobs[i],
            results[i]);
        if (write_ms)
            write_ms->push_back(1e3 * since(start));
        if (rec)
            rec->end(span);
        gate.item(ok, results[i].id + ": writeCachedResult failed");
    }
}

/**
 * Read-side times at the speed of the run's fastest rounds. A CPU
 * shared with another tenant runs the read side up to 1.6x slower for
 * seconds at a time, so a run's pooled samples mix two speeds and
 * their median jumps between them from run to run. Every round's
 * times are divided by the round's slowness (roundSlowness() over
 * all its query and serve calls) before they are pooled: the
 * latencies keep their spread among calls, and the re-sweep and
 * round walls take the median over rounds.
 */
struct ReadSideTimes
{
    std::vector<double> query;
    std::vector<double> serve;
    double resweep = 0.0;
    double round = 0.0;
};

ReadSideTimes
atFastestSpeed(const ReadSide &reads)
{
    std::vector<double> slowness =
        roundSlowness(reads.callMs, reads.callRoundEnds);
    auto perRound = [&](const std::vector<double> &walls) {
        std::vector<double> scaled;
        for (size_t r = 0; r < walls.size() && r < slowness.size(); r++)
            scaled.push_back(walls[r] / slowness[r]);
        return median(scaled);
    };
    ReadSideTimes times;
    times.query =
        rescaleRounds(reads.queryMs, reads.queryRoundEnds, slowness);
    times.serve =
        rescaleRounds(reads.serveMs, reads.serveRoundEnds, slowness);
    times.resweep = perRound(reads.resweepWalls);
    times.round = perRound(reads.roundWalls);
    return times;
}

template <typename T>
std::string
jsonArray(const std::vector<T> &values)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); i++) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      static_cast<double>(values[i]));
        if (i)
            out += ',';
        out += buf;
    }
    return out + "]";
}

/**
 * Write the raw samples an untraced run's metrics are computed from,
 * so other estimators can be tried on them: per-pass job walls and
 * set-up times, the cache fills, the read side's per-call samples
 * with their round ends, the per-round walls and the host probes,
 * all as measured. False on I/O failure.
 */
bool
writeSamples(const std::string &path, const std::vector<Pass> &passes,
             const ReadSide &reads, const std::vector<double> &fills,
             const std::vector<double> &probes)
{
    std::string job_walls;
    std::vector<double> setups;
    for (const Pass &pass : passes) {
        if (!job_walls.empty())
            job_walls += ',';
        job_walls += jsonArray(pass.jobWall);
        setups.push_back(pass.setup);
    }
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << "{\"pass_job_wall_s\":[" << job_walls << "]"
         << ",\n\"pass_setup_s\":" << jsonArray(setups)
         << ",\n\"fill_s\":" << jsonArray(fills)
         << ",\n\"query_ms\":" << jsonArray(reads.queryMs)
         << ",\n\"query_round_ends\":" << jsonArray(reads.queryRoundEnds)
         << ",\n\"serve_ms\":" << jsonArray(reads.serveMs)
         << ",\n\"serve_round_ends\":" << jsonArray(reads.serveRoundEnds)
         << ",\n\"resweep_s\":" << jsonArray(reads.resweepWalls)
         << ",\n\"round_s\":" << jsonArray(reads.roundWalls)
         << ",\n\"probe_s\":" << jsonArray(probes) << "}\n";
    return static_cast<bool>(file.flush());
}

/** The read-side end-to-end metrics every workload reports, with
 *  every time multiplied by @p scale. */
void
readSideMetrics(const ReadSideTimes &times, double scale,
                std::vector<Metric> &metrics)
{
    metrics.push_back({"resweep_s", scale * times.resweep, "s"});
    metrics.push_back(
        {"query_ms_p50", scale * percentile(times.query, 0.5), "ms"});
    metrics.push_back(
        {"query_ms_p90", scale * percentile(times.query, 0.9), "ms"});
    metrics.push_back(
        {"serve_ms_p50", scale * percentile(times.serve, 0.5), "ms"});
    metrics.push_back(
        {"serve_ms_p90", scale * percentile(times.serve, 0.9), "ms"});
}

// ---------------------------------------------------------------
// Runs
// ---------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool emitPins = false;
    std::string pinsPath;
    std::string outDir;
};

/**
 * The set-up of reports_warm, timed five times: filling a fresh
 * cache directory through a serial runCampaign (one worker keeps the
 * peak memory the same from run to run). Returns the fill times; the
 * last fill's results and directory are left in @p results and
 * @p dir.
 */
std::vector<double>
fillCaches(const WorkloadDef &def, const std::string &out,
           JobChecker &checker, Gate &gate, CpuRotation &cpus,
           std::vector<WorkloadResult> &results, std::string &dir)
{
    std::vector<double> fills;
    for (int r = 0; r < 5; r++) {
        cpus.next();
        if (!dir.empty())
            fs::remove_all(dir);
        dir = freshDir(out, "cache" + std::to_string(r));
        Clock::time_point start = Clock::now();
        campaign::CampaignResult fill =
            campaign::runCampaign(def.jobs, serialCampaign(dir));
        fills.push_back(since(start));
        results.clear();
        for (size_t i = 0; i < fill.outcomes.size(); i++) {
            const campaign::JobOutcome &outcome = fill.outcomes[i];
            if (outcome.status != campaign::JobStatus::Ok ||
                !outcome.wroteCache)
                gate.item(false, outcome.id + ": fill job " +
                                     campaign::jobStatusName(
                                         outcome.status) +
                                     " " + outcome.error);
            else
                gate.item(checker.check(i, outcome.result, "fill"));
            results.push_back(outcome.result);
        }
    }
    return fills;
}

/**
 * Untraced: the end-to-end metrics. Simulation passes and blocks of
 * read-side rounds alternate for the whole run, so every metric
 * samples the same stretch of host time; each metric is a median (or,
 * for latencies, a percentile) over the run's passes, rounds or
 * calls, brought to the reference host speed by hostScale().
 */
void
runUntraced(const WorkloadDef &def, const Args &args,
            JobChecker &checker, Gate &gate,
            std::vector<Metric> &metrics)
{
    std::string out = args.outDir + "/" + def.name;
    std::vector<WorkloadResult> results;
    std::string dir;
    CpuRotation cpus;
    std::vector<double> fills;
    if (def.warm)
        fills = fillCaches(def, out, checker, gate, cpus, results, dir);

    Clock::time_point start = Clock::now();
    std::vector<Pass> passes;
    if (!def.warm) {
        cpus.next();
        passes.push_back(campaignPass(def, checker, gate));
        results = std::move(passes.back().results);
        dir = freshDir(out, "cache");
        writeCache(def, dir, results, gate, nullptr, nullptr);
    }
    ReadSide reads(def, dir, results, gate, nullptr);
    // Issues the same calls as reads, untimed, to warm the caches of
    // the CPU a block of rounds has just moved to after a pass.
    ReadSide warm_up(def, dir, results, gate, nullptr);
    for (;;) {
        // A block of read-side rounds takes about a tenth of a pass's
        // time; on reports_warm it is one round.
        cpus.next();
        double budget = 0.0;
        if (!def.warm) {
            budget = 0.1 * passes.back().wall;
            warm_up.round();
        }
        Clock::time_point rounds = Clock::now();
        do
            reads.round();
        while (since(rounds) < budget);
        if (since(start) >= args.seconds && reads.roundWalls.size() >= 2 &&
            mixSamplesMet(reads))
            break;
        if (!def.warm) {
            cpus.next();
            passes.push_back(campaignPass(def, checker, gate));
            passes.back().results.clear();
        }
    }
    printModelOutputs(def, results);
    if (!def.warm) {
        std::printf("\nhost seconds per job (median pass, as measured):\n");
        for (size_t i = 0; i < results.size(); i++)
            std::printf("  %-16s %.4f\n", results[i].id.c_str(),
                        medianPass(passes, [&](const Pass &p) {
                            return p.jobWall[i];
                        }));
    }

    // The host's speed drifts between runs by more than within one;
    // the probes on every CPU the run visited measure where this run
    // sat, and every time is scaled to the reference speed.
    double scale = hostScale(cpus.probes);
    std::printf("\nhost probe %.4f s median over %zu (reference %.4f "
                "s): times below are scaled by %.4f\n",
                median(cpus.probes), cpus.probes.size(),
                kProbeReferenceSeconds, scale);
    ReadSideTimes times = atFastestSpeed(reads);
    double setup = 0.0, wall = 0.0, sim_rate = 0.0, ray_rate = 0.0;
    if (def.warm) {
        // No simulation in the timed part: the rates are the
        // simulated work the warm re-sweep hands back per second.
        setup = median(fills);
        wall = times.round;
        sim_rate = reads.instructions / 1e6 / times.resweep;
        ray_rate = reads.rays / 1e6 / times.resweep;
    } else {
        double sim = medianPass(
            passes, [](const Pass &p) { return sumOf(p.jobSim); });
        setup = medianPass(passes, [](const Pass &p) { return p.setup; });
        wall = medianPass(passes, [](const Pass &p) { return p.wall; });
        sim_rate = passes[0].instructions / 1e6 / sim;
        ray_rate = passes[0].rays / 1e6 / sim;
    }
    std::string samples_path = out + "/samples-seed" +
                               std::to_string(args.seed) + ".json";
    gate.item(writeSamples(samples_path, passes, reads, fills,
                           cpus.probes),
              "cannot write " + samples_path);
    std::printf("\npasses %zu, read-side rounds %zu, query samples "
                "%zu, serve samples %zu (written to %s)\n",
                passes.size(), reads.roundWalls.size(),
                reads.queryMs.size(), reads.serveMs.size(),
                samples_path.c_str());
    metrics.push_back({"setup_s", scale * setup, "s"});
    metrics.push_back({"wall_s", scale * wall, "s"});
    metrics.push_back({"sim_minst_per_s", sim_rate / scale, "Minst/s"});
    metrics.push_back({"mrays_per_s", ray_rate / scale, "Mrays/s"});
    metrics.push_back({"peak_rss_mb", peakRssMb(), "MiB"});
    readSideMetrics(times, scale, metrics);
}

/** Composed passes at least, so every per-layer median and the
 *  reconciliation rest on several passes. */
constexpr size_t kReconcilePasses = 3;

/** Traced: composed jobs, spans, and the per-layer ledger. */
void
runTraced(const WorkloadDef &def, const Args &args, JobChecker &checker,
          Gate &gate, std::vector<Metric> &metrics)
{
    std::string out = args.outDir + "/" + def.name;
    SpanRecorder rec;
    std::vector<SimLedger> ledgers;
    std::vector<WorkloadResult> results;
    std::vector<double> untraced_walls, traced_walls;
    std::vector<double> report_ms, report_bytes, write_ms;

    // Each job runs untraced through runCampaign and composed from
    // the layer calls back to back, in alternating order, so both
    // see the same host speed. The untraced runs give the reference
    // results the composed jobs must reproduce, and the wall times
    // the layer spans must account for. For reports_warm the jobs
    // are the cache fill.
    std::vector<std::vector<double>> job_residuals(def.jobs.size());
    std::vector<double> pass_residuals;
    CpuRotation cpus;
    Clock::time_point start = Clock::now();
    double sim_seconds = def.warm ? 0.0 : args.seconds;
    while (ledgers.size() < kReconcilePasses ||
           since(start) < sim_seconds) {
        cpus.next();
        size_t first_span = rec.spans().size();
        std::vector<ComposedJob> jobs;
        std::vector<double> job_walls;
        double untraced_wall = 0.0, traced_wall = 0.0;
        const bool untraced_first = ledgers.size() % 2 == 0;
        for (size_t i = 0; i < def.jobs.size(); i++) {
            for (bool untraced : {untraced_first, !untraced_first}) {
                if (untraced) {
                    campaign::JobOutcome outcome =
                        campaign::runCampaign({def.jobs[i]},
                                              serialCampaign())
                            .outcomes[0];
                    if (outcome.status != campaign::JobStatus::Ok)
                        gate.item(false, outcome.id + ": job " +
                                             campaign::jobStatusName(
                                                 outcome.status) +
                                             " " + outcome.error);
                    else
                        gate.item(checker.check(i, outcome.result,
                                                "campaign"));
                    untraced_wall += outcome.wallSeconds;
                    job_walls.push_back(outcome.wallSeconds);
                } else {
                    Clock::time_point job_start = Clock::now();
                    jobs.push_back(composeJob(def.jobs[i], rec,
                                              static_cast<int>(i)));
                    traced_wall += since(job_start);
                    gate.item(!jobs.back().aborted,
                              def.jobs[i].id() +
                                  ": composed job aborted");
                    gate.item(checker.check(i, jobs.back().result,
                                            "composed"));
                }
            }
        }
        ledgers.push_back(ledgerOf(rec, first_span, jobs));
        double attributed = 0.0;
        for (size_t i = 0; i < jobs.size(); i++) {
            double layer = ledgers.back().jobAttributed[i];
            attributed += layer;
            job_residuals[i].push_back(
                reconcile(job_walls[i], layer).residual);
        }
        pass_residuals.push_back(
            reconcile(untraced_wall, attributed).residual);
        untraced_walls.push_back(untraced_wall);
        traced_walls.push_back(traced_wall);
        results.clear();
        for (ComposedJob &job : jobs)
            results.push_back(std::move(job.result));
    }
    std::string dir = freshDir(out, "cache");
    writeCache(def, dir, results, gate, &rec, &write_ms);

    // The layer spans of a pass against the untraced wall times of
    // the same jobs. Back-to-back runs of one job differ by up to a
    // fifth on a shared host, so the gate is on the pass, where that
    // noise averages out; the per-job residuals are printed only.
    double residual = median(pass_residuals);
    gate.item(std::fabs(residual) <= kReconcileTolerance,
              "layer spans account for " +
                  std::to_string(100.0 * (1.0 - residual)) +
                  "% of the untraced wall time (median pass)");
    std::printf("\nreconciliation residual per job (median over %zu "
                "passes, not gated):\n",
                pass_residuals.size());
    for (size_t i = 0; i < def.jobs.size(); i++)
        std::printf("  %-16s %+.4f\n", def.jobs[i].id().c_str(),
                    median(job_residuals[i]));

    // One multi-workload run report per config, as `lumibench run
    // --report` writes it.
    std::map<std::string, std::vector<size_t>> by_config;
    for (size_t i = 0; i < def.jobs.size(); i++)
        by_config[def.jobs[i].options.config.name].push_back(i);
    for (const auto &[config, indices] : by_config) {
        std::vector<WorkloadResult> group;
        for (size_t i : indices)
            group.push_back(results[i]);
        std::string path = out + "/run-" + config + ".report.json";
        int span = rec.begin("report.write");
        Clock::time_point t = Clock::now();
        bool ok = writeRunReport(path, group,
                                 def.jobs[indices[0]].options);
        report_ms.push_back(1e3 * since(t));
        rec.end(span);
        gate.item(ok, "writeRunReport " + path + " failed");
        std::error_code ec;
        report_bytes.push_back(
            static_cast<double>(fs::file_size(path, ec)));
    }

    ReadSide reads(def, dir, results, gate, &rec);
    if (def.warm) {
        // Untraced and traced rounds alternate for the whole run.
        ReadSide untraced_reads(def, dir, results, gate, nullptr);
        Clock::time_point rounds = Clock::now();
        while (reads.roundWalls.empty() ||
               since(rounds) < args.seconds) {
            cpus.next();
            untraced_reads.round();
            reads.round();
        }
        untraced_walls = untraced_reads.roundWalls;
        traced_walls = reads.roundWalls;
    } else {
        reads.round();
    }
    printModelOutputs(def, results);

    std::string trace_path = out + "/spans-seed" +
                             std::to_string(args.seed) + ".json";
    gate.item(rec.writeChromeTrace(trace_path),
              "cannot write " + trace_path);
    std::printf("\nspans: %zu written to %s\n", rec.spans().size(),
                trace_path.c_str());

    // Traced over untraced time of each pass (or round), minus 1.
    std::vector<double> overheads;
    for (size_t i = 0; i < traced_walls.size(); i++)
        overheads.push_back(ratio(traced_walls[i], untraced_walls[i]) -
                            1.0);
    double overhead = median(overheads);

    // Per-layer values: medians over composed passes.
    auto med = [&](auto field) {
        std::vector<double> values;
        for (const SimLedger &led : ledgers)
            values.push_back(field(led));
        return median(values);
    };
    const SimLedger &last = ledgers.back();
    const StatMap &c = last.counters;
    auto counter = [&](const char *name) { return stat(c, name); };
    double sim_s = med([](const SimLedger &l) {
        return l.renderS + l.kernelS;
    });
    double landings = last.landings;
    auto share = [&](const char *component) {
        auto found = last.componentSeconds.find(component);
        return found == last.componentSeconds.end()
                   ? 0.0
                   : ratio(found->second, last.loopSeconds);
    };
    double sm_total = statSum(c, "profile.sm.");
    double rt_total = statSum(c, "profile.rt.");

    metrics.push_back({"scene.build_ms",
                       med([](const SimLedger &l) { return l.sceneMs; }),
                       "ms"});
    metrics.push_back({"bvh.build_ms",
                       med([](const SimLedger &l) { return l.bvhMs; }),
                       "ms"});
    metrics.push_back({"bvh.nodes",
                       counter("accel.blas_nodes") +
                           counter("accel.tlas_nodes"),
                       "count"});
    metrics.push_back({"rt.render_s",
                       med([](const SimLedger &l) { return l.renderS; }),
                       "s"});
    metrics.push_back({"compute.kernel_s",
                       med([](const SimLedger &l) { return l.kernelS; }),
                       "s"});
    metrics.push_back({"gpu.landings", landings, "count"});
    metrics.push_back(
        {"gpu.host_ns_per_landing", 1e9 * ratio(sim_s, landings), "ns"});
    metrics.push_back(
        {"gpu.landings_per_kinst",
         ratio(landings, counter("gpu.thread_instructions") / 1e3),
         "1"});
    metrics.push_back(
        {"gpu.loop.simt_share",
         share(HostProfiler::componentName(HostProfiler::SimtCores)),
         "1"});
    metrics.push_back(
        {"gpu.loop.rt_share",
         share(HostProfiler::componentName(HostProfiler::RtUnits)),
         "1"});
    metrics.push_back(
        {"gpu.loop.fill_share",
         share(HostProfiler::componentName(HostProfiler::FillSlots)),
         "1"});
    metrics.push_back(
        {"gpu.loop.mem_share",
         share(HostProfiler::componentName(HostProfiler::MemEvents)),
         "1"});
    metrics.push_back(
        {"gpu.loop.observe_share",
         share(HostProfiler::componentName(HostProfiler::Observe)),
         "1"});
    metrics.push_back({"gpu.loop.profile_vs_render",
                       ratio(last.loopSeconds,
                             last.renderS + last.kernelS),
                       "1"});
    metrics.push_back({"simt.thread_instructions",
                       counter("gpu.thread_instructions"), "count"});
    metrics.push_back({"simt.issued_share",
                       ratio(counter("profile.sm.issued"), sm_total),
                       "1"});
    metrics.push_back(
        {"simt.mem_pending_share",
         ratio(counter("profile.sm.mem_pending"), sm_total), "1"});
    metrics.push_back({"simt.rt_wait_share",
                       ratio(counter("profile.sm.rt_wait"), sm_total),
                       "1"});
    metrics.push_back(
        {"rt_unit.rays_traced", counter("rt.rays_traced"), "count"});
    metrics.push_back({"rt_unit.nodes_traversed",
                       counter("rt.nodes_traversed"), "count"});
    metrics.push_back(
        {"rt_unit.fetch_wait_share",
         ratio(counter("profile.rt.fetch_wait"), rt_total), "1"});
    metrics.push_back({"rt_unit.busy_share",
                       ratio(counter("profile.rt.busy_box") +
                                 counter("profile.rt.busy_tri") +
                                 counter("profile.rt.busy_procedural"),
                             rt_total),
                       "1"});
    metrics.push_back({"mem.read_requests",
                       counter("mem.read_requests"), "count"});
    metrics.push_back({"mem.write_requests",
                       counter("mem.write_requests"), "count"});
    metrics.push_back(
        {"mem.l1_miss_ratio",
         ratio(counter("l1.rt.misses") + counter("l1.shader.misses"),
               counter("l1.rt.reads") + counter("l1.shader.reads")),
         "1"});
    metrics.push_back({"mem.mshr_stalls_per_read",
                       ratio(counter("mem.mshr_full_stalls"),
                             counter("mem.read_requests")),
                       "1"});
    metrics.push_back({"mem.icnt_wait_per_flit",
                       ratio(counter("mem.icnt_wait_cycles"),
                             counter("mem.icnt_flits")),
                       "cycles"});
    metrics.push_back({"mem.icnt_flits_per_cycle",
                       ratio(counter("mem.icnt_flits"),
                             counter("gpu.cycles")),
                       "1"});
    metrics.push_back({"dram.row_locality",
                       ratio(counter("dram.row_hits"),
                             counter("dram.accesses")),
                       "1"});
    metrics.push_back({"dram.efficiency",
                       ratio(counter("dram.data_cycles"),
                             counter("dram.occupied_cycles")),
                       "1"});
    metrics.push_back(
        {"metrics.collect_ms",
         med([](const SimLedger &l) { return l.metricsMs; }), "ms"});
    metrics.push_back(
        {"analysis.suite_ms", median(reads.analysisMs), "ms"});
    metrics.push_back(
        {"trace.stats_dump_ms",
         med([](const SimLedger &l) { return l.dumpMs; }), "ms"});
    metrics.push_back({"report.write_ms", median(report_ms), "ms"});
    metrics.push_back({"report.bytes", median(report_bytes), "bytes"});
    metrics.push_back({"campaign.cache_read_ms",
                       percentile(reads.cacheReadMs, 0.5), "ms"});
    metrics.push_back({"campaign.cache_hit_ratio",
                       median(reads.hitRatios), "1"});
    metrics.push_back({"campaign.engine_overhead_ms",
                       median(reads.engineOverheadMs), "ms"});
    metrics.push_back({"campaign.cache_write_ms",
                       percentile(write_ms, 0.5), "ms"});
    metrics.push_back(
        {"query.scan_ms", percentile(reads.scanMs, 0.5), "ms"});
    metrics.push_back(
        {"query.answer_ms", percentile(reads.answerMs, 0.5), "ms"});
    metrics.push_back(
        {"query.reports_indexed", reads.reportsIndexed, "count"});
    metrics.push_back(
        {"serve.handle_ms", percentile(reads.serveMs, 0.5), "ms"});
    metrics.push_back(
        {"trace.overhead_share", overhead, "1"});
    metrics.push_back(
        {"trace.reconcile_residual", std::fabs(residual), "1"});
}

/** Print pins for every workload and input seed (maintenance). */
int
emitPins(const Args &args)
{
    PinTable table;
    for (const std::string &name : workloadNames()) {
        for (uint32_t seed = 1; seed <= kInputSeeds; seed++) {
            WorkloadDef def;
            defineWorkload(name, seed, def);
            campaign::CampaignOptions options = serialCampaign();
            options.jobs = 0;
            campaign::CampaignResult run =
                campaign::runCampaign(def.jobs, options);
            for (size_t i = 0; i < run.outcomes.size(); i++) {
                if (run.outcomes[i].status != campaign::JobStatus::Ok) {
                    std::fprintf(stderr, "ledger: %s failed: %s\n",
                                 run.outcomes[i].id.c_str(),
                                 run.outcomes[i].error.c_str());
                    return 1;
                }
                table.set({name, def.jobs[i].id(),
                           def.jobs[i].options.config.name, seed},
                          countsOf(run.outcomes[i].result));
            }
            std::fprintf(stderr, "ledger: pinned %s seed %u\n",
                         name.c_str(), seed);
        }
    }
    std::string path = args.outDir + "/pins.tsv";
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << table.format();
    if (!file.flush()) {
        std::fprintf(stderr, "ledger: cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("wrote %zu pins to %s\n", table.size(), path.c_str());
    return 0;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "ledger: %s\nusage: ledger --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> --pins <file> "
                 "--out <dir>\n       ledger --emit-pins --out <dir>\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; i++) {
        std::string flag = argv[i];
        if (flag == "--emit-pins") {
            args.emitPins = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end)
                usage("--seed needs a whole number");
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(args.seconds > 0.0))
                usage("--seconds needs a number > 0");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace needs 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--pins") {
            args.pinsPath = value;
        } else if (flag == "--out") {
            args.outDir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (args.outDir.empty())
        usage("--out is required");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    std::error_code ec;
    fs::create_directories(args.outDir, ec);
    if (args.emitPins)
        return emitPins(args);

    WorkloadDef def;
    if (!defineWorkload(args.workload, inputSeed(args.seed), def))
        usage(("unknown workload '" + args.workload + "'").c_str());
    PinTable pins;
    std::string error;
    if (!pins.load(args.pinsPath, &error))
        usage(error.c_str());

    std::printf("ledger: workload %s, seed %llu (input seed %u), %zu "
                "jobs, %s, %.0f s\n",
                def.name.c_str(),
                static_cast<unsigned long long>(args.seed),
                inputSeed(args.seed), def.jobs.size(),
                args.trace ? "traced" : "untraced", args.seconds);
    Gate gate;
    JobChecker checker(def, pins, inputSeed(args.seed));
    std::vector<Metric> metrics;
    if (args.trace) {
        runTraced(def, args, checker, gate, metrics);
        metrics.push_back(
            {"fail_ratio",
             ratio(static_cast<double>(gate.failed),
                   static_cast<double>(gate.attempted)),
             "1"});
    } else {
        runUntraced(def, args, checker, gate, metrics);
    }
    printResult(gate, metrics);
    std::fflush(stdout);
    return gate.failed == 0 ? 0 : 1;
}
