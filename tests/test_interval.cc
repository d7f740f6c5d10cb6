/**
 * @file
 * Interval-sampler tests: the grid-sampling mechanics, the canonical
 * JSON round trip (constant-series compaction included), the
 * observer-effect-zero contract (sampling changes nothing about the
 * simulation), run-to-run determinism of the series, the result
 * cache carrying the series byte-identically, and the JSON reader's
 * nesting bound.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/campaign.hh"
#include "lumibench/run_report.hh"
#include "lumibench/runner.hh"
#include "lumibench/workload.hh"
#include "trace/interval.hh"
#include "trace/json_read.hh"

using namespace lumi;

namespace
{

RunOptions
quickOptions()
{
    RunOptions options;
    options.params.width = 16;
    options.params.height = 16;
    options.sceneDetail = 0.15f;
    return options;
}

Workload
quickWorkload()
{
    return {SceneId::BUNNY, ShaderKind::AmbientOcclusion};
}

/** Unique fresh temp directory under the system temp root. */
std::string
freshDir(const char *tag)
{
    static std::atomic<int> counter{0};
    std::string path =
        (std::filesystem::temp_directory_path() /
         (std::string("lumi_interval_") + tag + "_" +
          std::to_string(::getpid()) + "_" +
          std::to_string(counter.fetch_add(1))))
            .string();
    std::filesystem::remove_all(path);
    return path;
}

} // namespace

TEST(IntervalSampler, SamplesOnGridCrossings)
{
    IntervalSampler sampler(100);
    uint64_t work = 0;
    uint64_t idle = 7; // never changes: must compact to "constant"
    sampler.registry().addCounter("test.work", &work);
    sampler.registry().addCounter("test.idle", &idle);

    sampler.maybeSample(0); // baseline
    work = 10;
    sampler.maybeSample(50); // below the next grid point: no sample
    work = 25;
    sampler.maybeSample(100);
    work = 60;
    // An event-accelerated jump across two grid points yields one
    // sample at the landing cycle.
    sampler.maybeSample(350);
    work = 61;
    sampler.maybeSample(350); // same cycle: idempotent
    work = 80;
    sampler.sampleFinal(371);

    const IntervalSeries &series = sampler.series();
    EXPECT_EQ(series.interval, 100u);
    ASSERT_EQ(series.cycles,
              (std::vector<uint64_t>{0, 100, 350, 371}));
    int work_idx = series.seriesIndex("test.work");
    int idle_idx = series.seriesIndex("test.idle");
    ASSERT_GE(work_idx, 0);
    ASSERT_GE(idle_idx, 0);
    EXPECT_EQ(series.seriesIndex("test.missing"), -1);
    EXPECT_EQ(series.values[work_idx],
              (std::vector<uint64_t>{0, 25, 60, 80}));
    EXPECT_EQ(series.values[idle_idx],
              (std::vector<uint64_t>{7, 7, 7, 7}));
    // Deltas: delta at sample 0 is the cumulative value itself.
    EXPECT_EQ(series.delta(work_idx, 0), 0u);
    EXPECT_EQ(series.delta(work_idx, 1), 25u);
    EXPECT_EQ(series.delta(work_idx, 2), 35u);
    EXPECT_EQ(series.delta(work_idx, 3), 20u);
}

TEST(IntervalSeries, JsonRoundTripIsByteIdentical)
{
    IntervalSampler sampler(10);
    uint64_t varying = 0;
    uint64_t constant = 1234567890123456789ull;
    sampler.registry().addCounter("b.varying", &varying);
    sampler.registry().addCounter("a.constant", &constant);
    for (uint64_t c = 0; c <= 30; c += 10) {
        varying = c * 3;
        sampler.maybeSample(c);
    }

    std::string cold = sampler.series().toJson();
    // The never-changing counter compacts into the constant map.
    EXPECT_NE(cold.find("\"constant\":{\"a.constant\":"
                        "1234567890123456789}"),
              std::string::npos);
    EXPECT_NE(cold.find("\"series\":{\"b.varying\":"),
              std::string::npos);

    JsonValue doc;
    ASSERT_TRUE(parseJson(cold, doc));
    IntervalSeries warm;
    ASSERT_TRUE(IntervalSeries::fromJson(doc, warm));
    EXPECT_EQ(warm.toJson(), cold);
    // The expanded form matches the original matrix exactly.
    ASSERT_EQ(warm.names, sampler.series().names);
    EXPECT_EQ(warm.values, sampler.series().values);
    EXPECT_EQ(warm.cycles, sampler.series().cycles);
}

TEST(IntervalSeries, FromJsonRejectsMalformedDocuments)
{
    auto parseSeries = [](const std::string &text) {
        JsonValue doc;
        EXPECT_TRUE(parseJson(text, doc));
        IntervalSeries out;
        return IntervalSeries::fromJson(doc, out);
    };
    // Series column shorter than the cycle grid.
    EXPECT_FALSE(parseSeries(
        "{\"interval\":10,\"cycles\":[10,20],"
        "\"series\":{\"a\":[1]},\"constant\":{}}"));
    // Missing cycles array entirely.
    EXPECT_FALSE(parseSeries(
        "{\"interval\":10,\"series\":{},\"constant\":{}}"));
}

TEST(JsonRead, RejectsNestingTooDeep)
{
    // The parser recurses per container; hostile depth must fail
    // cleanly with an error, not overflow the stack.
    const size_t depth = 200000;
    for (const std::string &open : {std::string("["),
                                     std::string("{\"k\":")}) {
        std::string text;
        for (size_t i = 0; i < depth; i++)
            text += open;
        JsonValue doc;
        std::string error;
        EXPECT_FALSE(parseJson(text, doc, &error)) << open;
        EXPECT_NE(error.find("nesting too deep"), std::string::npos)
            << error;
        EXPECT_EQ(error.rfind("offset ", 0), 0u) << error;
    }

    // Moderate depth still parses, and so does a real run report
    // (stat dump, metrics, timeline and interval series).
    std::string nested(64, '[');
    nested += std::string(64, ']');
    JsonValue doc;
    EXPECT_TRUE(parseJson(nested, doc));

    RunOptions options = quickOptions();
    options.intervalStats = 500;
    WorkloadResult result = runWorkload(quickWorkload(), options);
    std::string error;
    EXPECT_TRUE(parseJson(runReportJson({result}, options), doc,
                          &error))
        << error;
}

TEST(Interval, SamplingHasZeroObserverEffect)
{
    Workload workload = quickWorkload();
    RunOptions plain = quickOptions();
    WorkloadResult baseline = runWorkload(workload, plain);

    // Any period — including one that samples every few cycles —
    // must leave cycles and every stat byte-identical.
    for (uint64_t interval : {64ull, 1000ull}) {
        RunOptions sampled = quickOptions();
        sampled.intervalStats = interval;
        WorkloadResult probed = runWorkload(workload, sampled);
        EXPECT_EQ(probed.stats.cycles, baseline.stats.cycles)
            << "interval " << interval;
        EXPECT_EQ(probed.statsJson, baseline.statsJson)
            << "interval " << interval;
        EXPECT_FALSE(probed.intervalSeries.empty());
    }
    EXPECT_TRUE(baseline.intervalSeries.empty());
}

TEST(Interval, FinalSampleMatchesEndOfRunStats)
{
    RunOptions options = quickOptions();
    options.intervalStats = 500;
    WorkloadResult result = runWorkload(quickWorkload(), options);

    const IntervalSeries &series = result.intervalSeries;
    ASSERT_FALSE(series.empty());
    size_t last = series.sampleCount() - 1;
    EXPECT_EQ(series.cycles[last], result.stats.cycles);
    int cycles_idx = series.seriesIndex("gpu.cycles");
    int rays_idx = series.seriesIndex("rt.rays_traced");
    ASSERT_GE(cycles_idx, 0);
    ASSERT_GE(rays_idx, 0);
    EXPECT_EQ(series.at(cycles_idx, last), result.stats.cycles);
    EXPECT_EQ(series.at(rays_idx, last), result.stats.raysTraced);
    // Cumulative columns never decrease.
    for (size_t s = 0; s < series.names.size(); s++) {
        for (size_t i = 1; i < series.sampleCount(); i++)
            EXPECT_LE(series.at(s, i - 1), series.at(s, i))
                << series.names[s];
    }
}

TEST(Interval, ProfileSamplesCoverEverySampledCycle)
{
    // A unit's top-down account is attributed only when its state
    // changes, so every unit must be brought up to the clock before
    // a sample is taken: at each sample, not only at the end of the
    // run, the buckets sum to cycles x units.
    if (!LUMI_PROFILE_ENABLED)
        GTEST_SKIP() << "cycle accounting compiled out";
    RunOptions options = quickOptions();
    options.intervalStats = 250;
    WorkloadResult result = runWorkload(quickWorkload(), options);

    const IntervalSeries &series = result.intervalSeries;
    ASSERT_GT(series.sampleCount(), 2u);
    const uint64_t units = static_cast<uint64_t>(options.config.numSms);
    for (const std::string prefix : {"profile.sm.", "profile.rt."}) {
        std::vector<size_t> columns;
        for (size_t s = 0; s < series.names.size(); s++) {
            if (series.names[s].rfind(prefix, 0) == 0)
                columns.push_back(s);
        }
        ASSERT_FALSE(columns.empty()) << prefix;
        for (size_t i = 0; i < series.sampleCount(); i++) {
            uint64_t sum = 0;
            for (size_t s : columns)
                sum += series.at(s, i);
            EXPECT_EQ(sum, series.cycles[i] * units)
                << prefix << " sample " << i;
        }
    }
}

TEST(Interval, SeriesIsDeterministicAcrossRuns)
{
    RunOptions options = quickOptions();
    options.intervalStats = 250;
    WorkloadResult a = runWorkload(quickWorkload(), options);
    WorkloadResult b = runWorkload(quickWorkload(), options);
    EXPECT_EQ(a.intervalSeries.toJson(), b.intervalSeries.toJson());
}

TEST(Interval, CacheRoundTripsSeriesByteIdentically)
{
    RunOptions options = quickOptions();
    options.intervalStats = 500;
    campaign::Job job =
        campaign::Job::rayTracing(quickWorkload(), options);
    WorkloadResult cold = runWorkload(job.workload, options);
    std::string cold_report =
        runReportJson({cold}, job.options);

    std::string dir = freshDir("cache");
    std::filesystem::create_directories(dir);
    std::string path = dir + "/" + campaign::cacheKey(job);
    ASSERT_TRUE(campaign::writeCachedResult(path, job, cold));

    WorkloadResult warm;
    ASSERT_TRUE(campaign::readCachedResult(path, job, warm));
    EXPECT_EQ(warm.intervalSeries.toJson(),
              cold.intervalSeries.toJson());
    // The whole re-serialized report — series included — matches
    // the cold bytes, so warm campaign manifests never drift.
    EXPECT_EQ(runReportJson({warm}, job.options), cold_report);
    std::filesystem::remove_all(dir);
}

TEST(Interval, SamplingPeriodChangesCacheKey)
{
    RunOptions a = quickOptions();
    RunOptions b = quickOptions();
    b.intervalStats = 500;
    EXPECT_NE(campaign::cacheKey(campaign::Job::rayTracing(
                  quickWorkload(), a)),
              campaign::cacheKey(campaign::Job::rayTracing(
                  quickWorkload(), b)));
}

TEST(Interval, SelfProfiledRunsAreNotCacheable)
{
    RunOptions options = quickOptions();
    options.selfProfile = true;
    EXPECT_FALSE(campaign::cacheable(
        campaign::Job::rayTracing(quickWorkload(), options)));
    options.selfProfile = false;
    EXPECT_TRUE(campaign::cacheable(
        campaign::Job::rayTracing(quickWorkload(), options)));
}

TEST(HostProfile, ProfiledRunReportsComponents)
{
    RunOptions options = quickOptions();
    options.selfProfile = true;
    WorkloadResult result = runWorkload(quickWorkload(), options);
    const HostProfile &profile = result.hostProfile;
    ASSERT_FALSE(profile.empty());
    EXPECT_GT(profile.totalIterations, 0u);
    EXPECT_GT(profile.sampledIterations, 0u);
    EXPECT_GE(profile.totalIterations, profile.sampledIterations);
    double share = 0.0;
    for (const HostProfileComponent &component :
         profile.components) {
        EXPECT_GE(component.seconds, 0.0);
        share += component.share;
    }
    // Shares are fractions of the sampled loop time.
    EXPECT_GT(share, 0.0);
    EXPECT_LE(share, 1.0 + 1e-9);
    // Simulation results are untouched by the profiler.
    WorkloadResult baseline =
        runWorkload(quickWorkload(), quickOptions());
    EXPECT_EQ(result.statsJson, baseline.statsJson);
}
