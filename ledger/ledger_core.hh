/**
 * @file
 * The arithmetic and the correctness gate of the ledger benchmark,
 * kept apart from the benchmark program (main.cc) so test_ledger.cc can check
 * them without simulating anything:
 *
 *  - sample statistics: medians, nearest-rank percentiles and the
 *    samples a count keeps beyond one, the per-round slowness of
 *    repeated calls, and the host probe that brings a run's times to
 *    a reference host speed;
 *  - spans recorded around layer calls, their self times, the
 *    per-job reconciliation residual against an untraced wall time,
 *    and a Chrome-trace writer;
 *  - the pinned functional counts every simulated job must match.
 */

#ifndef LUMI_LEDGER_LEDGER_CORE_HH
#define LUMI_LEDGER_LEDGER_CORE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace ledger
{

/** Median; the mean of the two middle values for an even count. */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile: the smallest sample with at least
 * @p fraction of the samples at or below it. 0 for no samples.
 */
double percentile(std::vector<double> values, double fraction);

/** Samples strictly above the nearest-rank @p fraction of @p count. */
size_t samplesBeyond(size_t count, double fraction);

/**
 * How slow each round of a run was, for rounds that repeat the same
 * calls in the same order. @p round_ends holds each round's end index
 * into @p samples. A round's slowness is the median, over its calls,
 * of the call's time over the fastest time the same call (the same
 * position in every round) took in the run: near 1 for a round where
 * most calls ran at their fastest. Only the first n calls of each
 * round count, n being the shortest round's length.
 */
std::vector<double>
roundSlowness(const std::vector<double> &samples,
              const std::vector<size_t> &round_ends);

/**
 * The samples of every round divided by that round's @p slowness,
 * pooled: the latencies at the host's fastest observed speed, with
 * their spread among calls kept. Samples after the last round end
 * are dropped.
 */
std::vector<double>
rescaleRounds(const std::vector<double> &samples,
              const std::vector<size_t> &round_ends,
              const std::vector<double> &slowness);

/**
 * Seconds one fixed piece of host work takes: integer hashing with
 * data-dependent branches over an 8 KiB table, about 40 ms. It runs
 * none of the simulator's code, so a program change leaves it alone,
 * while the clock speed and core sharing that move the simulator's
 * speed on a shared host move it too.
 */
double probeHost();

/** probeHost()'s median on the host the bounds were set on, a 4-vCPU
 *  x86 VM (Xeon, 2.1 GHz): the reference host speed. */
inline constexpr double kProbeReferenceSeconds = 0.043;

/**
 * The factor that brings a run's times to the reference host speed:
 * kProbeReferenceSeconds over the median of the run's @p probes
 * (probeHost() times). Below 1 on a host slower than the reference;
 * 1 without probes.
 */
double hostScale(const std::vector<double> &probes);

/** One timed interval around a call into a layer. */
struct Span
{
    std::string name;
    /** Seconds since the recorder was created. */
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span, -1 at top level. */
    int parent = -1;
    /** Job the span belongs to, -1 outside any job. */
    int job = -1;

    double duration() const { return end - start; }
};

/**
 * In-memory span log. Spans nest by call order: a span begun while
 * another is open becomes its child. Nothing is written until
 * writeChromeTrace().
 */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span; returns its index. */
    int begin(const std::string &name, int job = -1);
    /** Close span @p index (must be the innermost open span). */
    void end(int index);

    /** RAII helper: begin on construction, end on destruction. */
    class Scoped
    {
      public:
        Scoped(SpanRecorder &recorder, const std::string &name,
               int job = -1)
            : recorder_(recorder),
              index_(recorder.begin(name, job))
        {
        }
        ~Scoped() { recorder_.end(index_); }
        Scoped(const Scoped &) = delete;
        Scoped &operator=(const Scoped &) = delete;

      private:
        SpanRecorder &recorder_;
        int index_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as Chrome-trace "X" events; false on I/O
     *  failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its direct children (overlapping children
 * counted once, parts outside the parent ignored).
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Summed self time of the spans named @p name. */
double selfTimeOf(const std::vector<Span> &spans,
                  const std::vector<double> &self,
                  const std::string &name);

/**
 * Summed self time of every span below @p job_span (children,
 * grandchildren, ...): the part of the job the layer calls account
 * for.
 */
double attributedTime(const std::vector<Span> &spans,
                      const std::vector<double> &self, int job_span);

/**
 * Reconciliation of one job: the time its layer spans account for
 * against its wall time measured apart from the spans, by an
 * untraced run of the same job. residual = (wall - attributed) /
 * wall; negative when the traced layers cost more than the untraced
 * job.
 */
struct Reconciliation
{
    double wall = 0.0;
    double attributed = 0.0;
    double residual = 0.0;
};

Reconciliation reconcile(double wall, double attributed);

/** The largest |residual| accepted by the reconciliation check. */
inline constexpr double kReconcileTolerance = 0.05;

/**
 * Functional counts of one simulated job. They are set by the
 * workload's inputs alone, not by the timing model, so they are
 * pinned per job and seed and must repeat exactly.
 */
struct FunctionalCounts
{
    uint64_t threadInstructions = 0;
    uint64_t raysTraced = 0;
    uint64_t warpsLaunched = 0;

    bool operator==(const FunctionalCounts &) const = default;
};

/** Identifies one pinned job: workload, job id, config and seed. */
struct PinKey
{
    std::string workload;
    std::string job;
    std::string config;
    uint32_t seed = 0;

    bool
    operator<(const PinKey &other) const
    {
        return std::tie(workload, job, config, seed) <
               std::tie(other.workload, other.job, other.config,
                        other.seed);
    }
};

/** The pinned counts, loaded from a tab-separated text file. */
class PinTable
{
  public:
    /**
     * Parse lines "workload job config seed thread_instructions
     * rays_traced warps_launched" (tab separated, '#' comments).
     * False, with @p error set, on a malformed line.
     */
    bool parse(const std::string &text, std::string *error);

    /** Read and parse @p path. */
    bool load(const std::string &path, std::string *error);

    void set(const PinKey &key, const FunctionalCounts &counts);

    size_t size() const { return pins_.size(); }

    /**
     * Empty when @p counts equals the pin for @p key; otherwise a
     * message naming the job and what differs (or that no pin
     * exists).
     */
    std::string check(const PinKey &key,
                      const FunctionalCounts &counts) const;

    /** The table in parse() format, sorted by key. */
    std::string format() const;

  private:
    std::map<PinKey, FunctionalCounts> pins_;
};

} // namespace ledger

#endif // LUMI_LEDGER_LEDGER_CORE_HH
