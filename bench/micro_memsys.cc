/**
 * @file
 * Memory-system microbenchmarks and the MSHR backpressure sweep.
 *
 * Two halves share this binary:
 *
 *  - Google-benchmark microbenchmarks for the substrate hot loops
 *    (cache probe/fill throughput, DRAM scheduling cost, MemSystem
 *    issue path);
 *  - a characterization sweep that renders BUNNY_AO on the Table 4
 *    config while shrinking the L1 MSHR file (64/16/4/1), printing
 *    IPC and mem.mshr_full_stalls per point. Finite MSHRs must cost
 *    performance monotonically; CI asserts exactly that on this
 *    output;
 *  - an interconnect sweep over the full Table 4 config with the
 *    SM<->L2 link narrowed from 8 to 4/2/1 flits per cycle, printing
 *    cycles, IPC, flits per cycle and wait cycles per flit. Its rows
 *    start with "icnt" and have six columns, so the five-column MSHR
 *    parser skips them; CI asserts the link never carries more than
 *    its width and that IPC does not rise (beyond 2%) as it narrows.
 *
 * Flags: --sweep-only runs just the sweep (what CI uses),
 * --no-sweep runs just the microbenchmarks. Sweep points go through
 * the campaign engine, so LUMI_JOBS / LUMI_CACHE_DIR / LUMI_RES
 * apply as in every other bench.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "gpu/address_space.hh"
#include "gpu/cache.hh"
#include "gpu/config.hh"
#include "gpu/dram.hh"
#include "gpu/mem_system.hh"
#include "math/rng.hh"
#include "trace/json_read.hh"

namespace
{

using namespace lumi;

void
BM_CacheProbe(benchmark::State &state)
{
    GpuConfig config;
    Cache cache(config.l1SizeBytes, config.l1LineBytes,
                static_cast<uint32_t>(state.range(0)),
                config.l1Latency);
    Rng rng(1);
    uint64_t cycle = 0;
    // Working set 4x the cache: a steady miss/evict mix.
    uint64_t lines = 4ull * config.l1SizeBytes / config.l1LineBytes;
    for (auto _ : state) {
        uint64_t addr = (rng.nextU32() % lines) * config.l1LineBytes;
        CacheProbe probe = cache.probe(addr, cycle);
        if (probe.outcome == CacheProbe::Outcome::Miss)
            cache.fill(addr, cycle, cycle + 300);
        cycle++;
        benchmark::DoNotOptimize(probe.outcome);
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(state.range(0) == 0 ? "fully-assoc" : "set-assoc");
}
BENCHMARK(BM_CacheProbe)->Arg(0)->Arg(16);

void
BM_DramAccess(benchmark::State &state)
{
    GpuConfig config;
    Dram dram(config);
    Rng rng(2);
    uint64_t cycle = 0;
    bool sequential = state.range(0) != 0;
    uint64_t next = 0;
    for (auto _ : state) {
        uint64_t addr = sequential
                            ? (next += 128)
                            : (rng.nextU32() % (1 << 20)) * 128ull;
        Dram::Result result = dram.read(addr, cycle, 128);
        cycle += 4;
        benchmark::DoNotOptimize(result.readyCycle);
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(sequential ? "sequential" : "random");
}
BENCHMARK(BM_DramAccess)->Arg(1)->Arg(0);

void
BM_MemSystemIssue(benchmark::State &state)
{
    // arg 0: unlimited resources (oracle-parity path);
    // arg 1: Table 4 finite MSHRs/ports (gating + drain path).
    GpuConfig config = state.range(0) != 0 ? GpuConfig::table4()
                                           : GpuConfig();
    AddressSpace space;
    uint64_t base = space.allocate(DataKind::Compute, 64ull << 20,
                                   "buf");
    MemSystem mem(config, space);
    Rng rng(3);
    uint64_t cycle = 0;
    for (auto _ : state) {
        MemRequest req;
        req.sm = 0;
        req.cycle = cycle;
        req.addr = base + (rng.nextU32() % (1 << 18)) * 128ull;
        req.bytes = 32;
        req.rt = false;
        MemIssue issue = mem.issueRead(req);
        cycle += 2;
        benchmark::DoNotOptimize(issue.readyCycle);
    }
    mem.drainAll();
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(state.range(0) != 0 ? "table4" : "unlimited");
}
BENCHMARK(BM_MemSystemIssue)->Arg(0)->Arg(1);

/** mem.* counter out of a result's flat stat-registry dump. */
uint64_t
statCounter(const WorkloadResult &result, const std::string &name)
{
    JsonValue stats;
    if (!parseJson(result.statsJson, stats, nullptr))
        return 0;
    const JsonValue *value = stats.find(name);
    return value ? value->counter() : 0;
}

/**
 * The MSHR sweep: BUNNY_AO on the Table 4 config with the L1 MSHR
 * file at 64/16/4/1 entries, plus the unlimited oracle-parity
 * baseline. The sweep points leave the interconnect and L1 ports
 * unlimited so the MSHR file is the isolated bottleneck: under the
 * full Table 4 interconnect, MSHR throttling *relieves* link
 * congestion and the points stop ordering by MSHR count. One
 * campaign job per point; the config fingerprint keys the result
 * cache, so points never collide.
 */
int
runMshrSweep()
{
    const int mshr_points[] = {64, 16, 4, 1};

    const std::vector<Workload> workloads = allWorkloads();
    const Workload *workload = nullptr;
    for (const Workload &cand : workloads) {
        if (cand.id() == "BUNNY_AO")
            workload = &cand;
    }
    if (!workload) {
        std::fprintf(stderr, "micro_memsys: BUNNY_AO not found\n");
        return 1;
    }

    std::vector<campaign::Job> jobs;
    {
        RunOptions options = RunOptions::fromEnv();
        options.config = GpuConfig::mobile();
        jobs.push_back(campaign::Job::rayTracing(*workload, options));
    }
    for (int entries : mshr_points) {
        RunOptions options = RunOptions::fromEnv();
        options.config = GpuConfig::table4();
        options.config.icntFlitsPerCycle = 0;
        options.config.l1PortWidth = 0;
        options.config.l1MshrEntries = entries;
        jobs.push_back(campaign::Job::rayTracing(*workload, options));
    }
    std::vector<WorkloadResult> results = bench::runJobs(jobs);

    std::printf("# MSHR backpressure sweep (BUNNY_AO, Table 4 "
                "memory system)\n");
    std::printf("%-10s %12s %8s %18s %18s\n", "l1_mshrs", "cycles",
                "ipc", "mshr_full_stalls", "port_conflicts");
    for (size_t i = 0; i < results.size(); i++) {
        const WorkloadResult &result = results[i];
        int entries = jobs[i].options.config.l1MshrEntries;
        double ipc =
            result.stats.cycles > 0
                ? static_cast<double>(result.stats.instructions) /
                      result.stats.cycles
                : 0.0;
        char label[16];
        if (entries == 0)
            std::snprintf(label, sizeof(label), "unlimited");
        else
            std::snprintf(label, sizeof(label), "%d", entries);
        std::printf("%-10s %12llu %8.4f %18llu %18llu\n", label,
                    static_cast<unsigned long long>(
                        result.stats.cycles),
                    ipc,
                    static_cast<unsigned long long>(statCounter(
                        result, "mem.mshr_full_stalls")),
                    static_cast<unsigned long long>(statCounter(
                        result, "mem.port_conflict_cycles")));
    }
    return 0;
}

/**
 * The interconnect sweep: BUNNY_AO on the full Table 4 config (MSHRs
 * and ports finite too) at link widths 8/4/2/1 flits per cycle.
 */
void
runIcntSweep()
{
    const uint32_t width_points[] = {8, 4, 2, 1};
    const Workload workload{SceneId::BUNNY,
                            ShaderKind::AmbientOcclusion};

    std::vector<campaign::Job> jobs;
    for (uint32_t width : width_points) {
        RunOptions options = RunOptions::fromEnv();
        options.config = GpuConfig::table4();
        options.config.icntFlitsPerCycle = width;
        jobs.push_back(campaign::Job::rayTracing(workload, options));
    }
    std::vector<WorkloadResult> results = bench::runJobs(jobs);
    auto ratio = [](uint64_t num, uint64_t den) {
        return den > 0 ? static_cast<double>(num) / den : 0.0;
    };

    std::printf("# Interconnect sweep (BUNNY_AO, Table 4 memory "
                "system, link width in flits per cycle)\n");
    std::printf("%-4s %6s %12s %8s %16s %14s\n", "icnt", "width",
                "cycles", "ipc", "flits_per_cycle", "wait_per_flit");
    for (size_t i = 0; i < results.size(); i++) {
        const WorkloadResult &result = results[i];
        uint64_t cycles = result.stats.cycles;
        uint64_t flits = statCounter(result, "mem.icnt_flits");
        uint64_t wait = statCounter(result, "mem.icnt_wait_cycles");
        std::printf("%-4s %6u %12llu %8.4f %16.4f %14.2f\n", "icnt",
                    jobs[i].options.config.icntFlitsPerCycle,
                    static_cast<unsigned long long>(cycles),
                    ratio(result.stats.instructions, cycles),
                    ratio(flits, cycles), ratio(wait, flits));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool sweep_only = false;
    bool no_sweep = false;
    // Strip our flags before google-benchmark sees the arg vector.
    int out = 1;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--sweep-only") == 0)
            sweep_only = true;
        else if (std::strcmp(argv[i], "--no-sweep") == 0)
            no_sweep = true;
        else
            argv[out++] = argv[i];
    }
    argc = out;

    if (!no_sweep) {
        int rc = runMshrSweep();
        if (rc == 0)
            runIcntSweep();
        if (rc != 0 || sweep_only)
            return rc;
    }

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
