/**
 * @file
 * Tests of the ledger benchmark's own arithmetic and gate.
 *
 *   cmake --build .bench_build/ledger --target ledger_tests
 *   .bench_build/ledger/ledger_tests
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ledger_core.hh"

using namespace ledger;

namespace
{

std::vector<double>
oneTo(int n)
{
    std::vector<double> values;
    for (int i = n; i >= 1; i--)
        values.push_back(i);
    return values;
}

Span
span(const char *name, double start, double end, int parent,
     int job = -1)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.job = job;
    return s;
}

} // namespace

TEST(LedgerPercentile, NearestRankOnUnsortedSamples)
{
    std::vector<double> values = oneTo(100);
    EXPECT_EQ(percentile(values, 0.5), 50.0);
    EXPECT_EQ(percentile(values, 0.9), 90.0);
    EXPECT_EQ(percentile(values, 1.0), 100.0);
    EXPECT_EQ(percentile(oneTo(10), 0.9), 9.0);
    EXPECT_EQ(percentile(oneTo(1), 0.9), 1.0);
    EXPECT_EQ(percentile({}, 0.5), 0.0);
    EXPECT_EQ(median(oneTo(4)), 2.5);
    EXPECT_EQ(median(oneTo(5)), 3.0);
}

TEST(LedgerPercentile, SelectionBySampleCount)
{
    // p90 needs 100 samples to keep ten beyond it.
    EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
    EXPECT_EQ(samplesBeyond(99, 0.9), 9u);
    EXPECT_EQ(samplesBeyond(101, 0.9), 10u);
    EXPECT_EQ(samplesBeyond(110, 0.9), 11u);
    EXPECT_EQ(samplesBeyond(20, 0.5), 10u);
    EXPECT_EQ(samplesBeyond(19, 0.5), 9u);
    EXPECT_EQ(samplesBeyond(0, 0.9), 0u);
}

TEST(LedgerPercentile, RoundsRescaleByTheirSlowness)
{
    // Three rounds of the same three calls. Round 2 runs at half the
    // host speed; in round 3 only the last call is slow.
    std::vector<double> samples = {1, 2, 3, 2, 4, 6, 1, 2, 9, 7};
    std::vector<size_t> ends = {3, 6, 9};
    std::vector<double> slowness = roundSlowness(samples, ends);
    EXPECT_EQ(slowness, (std::vector<double>{1, 2, 1}));
    std::vector<double> pooled = rescaleRounds(samples, ends, slowness);
    EXPECT_EQ(pooled, (std::vector<double>{1, 2, 3, 1, 2, 3, 1, 2, 9}));
    EXPECT_EQ(percentile(pooled, 0.5), 2.0);

    // A longer round counts only the calls every round made.
    EXPECT_EQ(roundSlowness({1, 2, 2, 4, 8}, {2, 5}),
              (std::vector<double>{1, 2}));
    EXPECT_TRUE(rescaleRounds(samples, {}, {}).empty());
}

TEST(LedgerProbe, HostScaleIsReferenceOverMedianProbe)
{
    // Probes at the reference time leave a run's times as measured; a
    // host on which the probe takes twice as long halves them. The
    // median keeps one outlying probe from moving the factor.
    double ref = kProbeReferenceSeconds;
    EXPECT_DOUBLE_EQ(hostScale({ref, ref, ref}), 1.0);
    EXPECT_DOUBLE_EQ(hostScale({2 * ref, 2 * ref, 9 * ref}), 0.5);
    EXPECT_DOUBLE_EQ(hostScale({}), 1.0);
    EXPECT_GT(probeHost(), 0.0);
}

TEST(LedgerSpans, SelfTimeSubtractsChildCoverOnce)
{
    // Children [1,3] and [2,5] overlap; [8,12] runs past the parent.
    std::vector<Span> spans = {
        span("job", 0, 10, -1),  span("a", 1, 3, 0),
        span("b", 2, 5, 0),      span("c", 8, 12, 0),
        span("a.inner", 1, 2, 1),
    };
    std::vector<double> self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 2.0);
    // A grandchild counts against its parent only.
    EXPECT_DOUBLE_EQ(self[1], 1.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
    EXPECT_DOUBLE_EQ(self[3], 4.0);
    EXPECT_DOUBLE_EQ(self[4], 1.0);
    EXPECT_DOUBLE_EQ(selfTimeOf(spans, self, "a"), 1.0);
}

TEST(LedgerSpans, RecorderNestsByCallOrder)
{
    SpanRecorder rec;
    {
        SpanRecorder::Scoped job(rec, "job", 7);
        SpanRecorder::Scoped layer(rec, "scene");
    }
    SpanRecorder::Scoped later(rec, "query.scan");
    ASSERT_EQ(rec.spans().size(), 3u);
    EXPECT_EQ(rec.spans()[0].parent, -1);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    EXPECT_EQ(rec.spans()[1].job, 7);
    EXPECT_EQ(rec.spans()[2].parent, -1);
    EXPECT_EQ(rec.spans()[2].job, -1);
    EXPECT_LE(rec.spans()[0].start, rec.spans()[1].start);
    EXPECT_GE(rec.spans()[0].end, rec.spans()[1].end);
}

TEST(LedgerReconcile, ResidualIsTheUnattributedShare)
{
    std::vector<Span> spans = {
        span("job", 0, 10, -1),  span("scene", 0, 4, 0),
        span("rt", 4, 9.6, 0),   span("rt.inner", 5, 6, 2),
        span("other-job", 10, 20, -1),
    };
    std::vector<double> self = selfTimes(spans);
    // Grandchildren count once; the job's own gaps and other jobs
    // do not count.
    EXPECT_NEAR(attributedTime(spans, self, 0), 9.6, 1e-12);
    EXPECT_EQ(attributedTime(spans, self, 4), 0.0);

    // Against an untraced wall of 10 s the layers miss 4%.
    Reconciliation rec = reconcile(10.0, attributedTime(spans, self, 0));
    EXPECT_DOUBLE_EQ(rec.wall, 10.0);
    EXPECT_NEAR(rec.attributed, 9.6, 1e-12);
    EXPECT_NEAR(rec.residual, 0.04, 1e-12);
    EXPECT_LE(std::fabs(rec.residual), kReconcileTolerance);

    // A 2 s gap between layer calls fails the 5% check.
    spans[2].start = 6.0;
    spans[3].start = 6.0;
    spans[3].end = 7.0;
    self = selfTimes(spans);
    rec = reconcile(10.0, attributedTime(spans, self, 0));
    EXPECT_NEAR(rec.residual, 0.24, 1e-12);
    EXPECT_GT(std::fabs(rec.residual), kReconcileTolerance);

    // Traced layers that cost more than the untraced job fail too.
    rec = reconcile(9.0, 9.6);
    EXPECT_NEAR(rec.residual, -0.6 / 9.0, 1e-12);
    EXPECT_GT(std::fabs(rec.residual), kReconcileTolerance);
}

TEST(LedgerGate, ChangedFunctionalCountFails)
{
    PinTable pins;
    std::string error;
    ASSERT_TRUE(pins.parse("# fixture\n"
                           "graphics_table4\tBUNNY_AO\ttable4\t3\t"
                           "1920000\t18432\t288\n",
                           &error))
        << error;
    PinKey key{"graphics_table4", "BUNNY_AO", "table4", 3};
    FunctionalCounts counts{1920000, 18432, 288};
    EXPECT_EQ(pins.check(key, counts), "");

    FunctionalCounts changed = counts;
    changed.raysTraced++;
    std::string message = pins.check(key, changed);
    EXPECT_NE(message.find("rays_traced 18433 != pinned 18432"),
              std::string::npos)
        << message;

    // Another seed's input has no pin: the gate fails, not passes.
    key.seed = 4;
    EXPECT_NE(pins.check(key, counts).find("no pinned"),
              std::string::npos);
}

TEST(LedgerGate, PinTableRoundTripsAndRejectsMalformedLines)
{
    PinTable pins;
    pins.set({"w", "job", "mobile", 1}, {1, 2, 3});
    pins.set({"w", "job", "mobile", 2}, {4, 5, 6});
    PinTable again;
    std::string error;
    ASSERT_TRUE(again.parse(pins.format(), &error)) << error;
    EXPECT_EQ(again.size(), 2u);
    EXPECT_EQ(again.check({"w", "job", "mobile", 2}, {4, 5, 6}), "");

    PinTable bad;
    EXPECT_FALSE(bad.parse("w\tjob\tmobile\t1\t1\t2\n", &error));
    EXPECT_FALSE(bad.parse("w\tjob\tmobile\t1\t1\t2\t3\t4\n", &error));
    EXPECT_FALSE(bad.parse("w\tjob\tmobile\tx\t1\t2\t3\n", &error));
}
