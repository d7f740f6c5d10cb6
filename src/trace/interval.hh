/**
 * @file
 * Interval statistics: periodic snapshots of a StatRegistry's
 * counters every N simulated cycles.
 *
 * End-of-run aggregates collapse every time-varying phenomenon the
 * characterization discusses — warm-up transients, traversal/shading
 * phase shifts, DRAM burstiness — into one number. The interval
 * sampler turns the existing counter namespace into a time series:
 * the Gpu::run loop calls maybeSample() whenever the clock crosses a
 * grid point, and each sample records the cumulative reading of every
 * registered counter (deltas are differences between neighbouring
 * samples, so both views come from one stored matrix).
 *
 * Only Counter-kind entries are sampled: counters are exact uint64
 * values that serialize as JSON integers (so series round-trip
 * byte-identically through the result cache), formulas are derived
 * and can be recomputed per interval from the counters, and
 * distributions are streaming summaries that do not decompose in
 * time.
 *
 * Observer-effect-zero contract: sampling only *reads* counters. It
 * never touches simulator state, so any sampling period produces
 * byte-identical simulated cycle counts and stats versus sampling
 * disabled (tests/test_interval.cc and CI enforce this byte-for-byte).
 */

#ifndef LUMI_TRACE_INTERVAL_HH
#define LUMI_TRACE_INTERVAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/stat_registry.hh"

namespace lumi
{

struct JsonValue;

/** A sampled counter time series (cumulative readings on a grid). */
struct IntervalSeries
{
    /** Sampling period in simulated cycles (0 = sampling disabled). */
    uint64_t interval = 0;
    /** Sample positions: grid crossings plus the final cycle. */
    std::vector<uint64_t> cycles;
    /** Sampled counter names, lexicographically sorted. */
    std::vector<std::string> names;
    /** values[series][sample]: cumulative reading of names[series]. */
    std::vector<std::vector<uint64_t>> values;

    bool empty() const { return cycles.empty(); }
    size_t sampleCount() const { return cycles.size(); }

    /** Index of @p name in names, or -1. */
    int seriesIndex(const std::string &name) const;

    /** Cumulative reading of series @p s at sample @p i. */
    uint64_t
    at(size_t s, size_t i) const
    {
        return values[s][i];
    }

    /**
     * Delta of series @p s over (sample i-1, sample i]; the delta at
     * sample 0 is the cumulative value itself (interval from zero).
     */
    uint64_t
    delta(size_t s, size_t i) const
    {
        return i == 0 ? values[s][0] : values[s][i] - values[s][i - 1];
    }

    /**
     * Compact JSON document. Counters that never change over the run
     * (the common case for per-SM idle paths and violation counters)
     * collapse into a "constant" map with one value, keeping the
     * per-sample "series" matrix small:
     *
     *   {"interval":N,"cycles":[...],
     *    "series":{"dram.accesses":[0,10,30],...},
     *    "constant":{"check.violations":0,...}}
     *
     * Serialization is canonical (sorted names, integer values), so
     * toJson(fromJson(x)) == x byte-for-byte.
     */
    std::string toJson() const;

    /** Parse a toJson() document; false on schema mismatch. */
    static bool fromJson(const JsonValue &doc, IntervalSeries &out);
};

/**
 * Grid-crossing sampler driven from the Gpu::run cycle loop. Owns
 * the registry the caller populates (registerGpu) and the series it
 * accumulates; the Gpu only observes into it and never owns it.
 */
class IntervalSampler
{
  public:
    /** @param interval sampling period in cycles (min 1). */
    explicit IntervalSampler(uint64_t interval);

    /** Registry to populate with counter bindings before running. */
    StatRegistry &registry() { return registry_; }

    /**
     * Sample when @p cycle has reached the next grid point. Like
     * Timeline::record, an event-accelerated jump across several
     * grid points yields one sample (counters are cumulative, so
     * nothing is lost; the cycles vector keeps the true positions).
     */
    void
    maybeSample(uint64_t cycle)
    {
        if (due(cycle))
            capture(cycle);
    }

    /** True when maybeSample(@p cycle) would capture a sample. */
    bool due(uint64_t cycle) const { return cycle >= next_; }

    /** Force a closing sample at @p cycle (end of a launch). */
    void sampleFinal(uint64_t cycle);

    const IntervalSeries &series() const { return series_; }

  private:
    void capture(uint64_t cycle);

    uint64_t interval_;
    uint64_t next_ = 0;
    StatRegistry registry_;
    IntervalSeries series_;
};

} // namespace lumi

#endif // LUMI_TRACE_INTERVAL_HH
