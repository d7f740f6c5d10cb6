#include "ledger_core.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace ledger
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return 0.5 * (values[mid - 1] + values[mid]);
}

namespace
{

/** 1-based nearest rank of @p fraction among @p count samples. */
size_t
nearestRank(size_t count, double fraction)
{
    double rank = std::ceil(fraction * static_cast<double>(count) -
                            1e-9);
    return std::clamp<size_t>(static_cast<size_t>(rank), 1, count);
}

} // namespace

double
percentile(std::vector<double> values, double fraction)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return values[nearestRank(values.size(), fraction) - 1];
}

size_t
samplesBeyond(size_t count, double fraction)
{
    if (count == 0)
        return 0;
    return count - nearestRank(count, fraction);
}

std::vector<double>
roundSlowness(const std::vector<double> &samples,
              const std::vector<size_t> &round_ends)
{
    // Round r holds samples [round_ends[r-1], round_ends[r]).
    std::vector<size_t> begins;
    size_t calls = 0;
    size_t begin = 0;
    for (size_t end : round_ends) {
        calls = begins.empty() ? end - begin
                               : std::min(calls, end - begin);
        begins.push_back(begin);
        begin = end;
    }
    std::vector<double> fastest(calls);
    for (size_t k = 0; k < calls; k++) {
        fastest[k] = samples[begins[0] + k];
        for (size_t b : begins)
            fastest[k] = std::min(fastest[k], samples[b + k]);
    }
    std::vector<double> slowness;
    for (size_t b : begins) {
        std::vector<double> ratios;
        for (size_t k = 0; k < calls; k++) {
            if (fastest[k] > 0.0)
                ratios.push_back(samples[b + k] / fastest[k]);
        }
        slowness.push_back(ratios.empty() ? 1.0 : median(ratios));
    }
    return slowness;
}

std::vector<double>
rescaleRounds(const std::vector<double> &samples,
              const std::vector<size_t> &round_ends,
              const std::vector<double> &slowness)
{
    std::vector<double> pooled;
    size_t begin = 0;
    for (size_t r = 0; r < round_ends.size() && r < slowness.size();
         r++) {
        for (size_t i = begin; i < round_ends[r]; i++)
            pooled.push_back(samples[i] / slowness[r]);
        begin = round_ends[r];
    }
    return pooled;
}

namespace
{

/** A single random cycle through @p n slots, the same every run. */
std::vector<uint32_t>
randomCycle(uint32_t n)
{
    std::vector<uint32_t> order(n);
    for (uint32_t i = 0; i < n; i++)
        order[i] = i;
    uint64_t x = 88172645463325252ull;
    for (uint32_t i = n - 1; i > 0; i--) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::swap(order[i], order[x % (i + 1)]);
    }
    std::vector<uint32_t> next(n);
    for (uint32_t i = 0; i < n; i++)
        next[order[i]] = order[(i + 1) % n];
    return next;
}

volatile uint64_t probeSink;

} // namespace

double
probeHost()
{
    constexpr uint32_t kSlots = 1u << 11;
    constexpr int kSteps = 600000;
    constexpr uint32_t kHashes = 24;
    static const std::vector<uint32_t> next = randomCycle(kSlots);
    auto start = std::chrono::steady_clock::now();
    uint32_t at = 0;
    uint64_t h = 1;
    for (int i = 0; i < kSteps; i++) {
        at = next[at];
        for (uint32_t k = 0; k < kHashes; k++) {
            h = (h ^ (at + k)) * 0x9E3779B97F4A7C15ull;
            if (h & 1)
                h ^= h >> 29;
            else
                h += kSlots / 3;
        }
    }
    probeSink = h;
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
hostScale(const std::vector<double> &probes)
{
    double typical = median(probes);
    return typical > 0.0 ? kProbeReferenceSeconds / typical : 1.0;
}

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now())
{
}

int
SpanRecorder::begin(const std::string &name, int job)
{
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.job = job;
    if (span.job < 0 && span.parent >= 0)
        span.job = spans_[span.parent].job;
    spans_.push_back(std::move(span));
    int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    // Read the clock last so the bookkeeping above is not inside the
    // span.
    spans_[index].start = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -
                              origin_)
                              .count();
    return index;
}

void
SpanRecorder::end(int index)
{
    double now = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - origin_)
                     .count();
    spans_[index].end = now;
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); i++) {
        const Span &span = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f",
                      span.start * 1e6, span.duration() * 1e6);
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << span.name
            << "\"," << buf << ",\"args\":{\"id\":" << i
            << ",\"parent\":" << span.parent
            << ",\"job\":" << span.job << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out.flush());
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<int>> children(spans.size());
    for (size_t i = 0; i < spans.size(); i++) {
        int parent = spans[i].parent;
        if (parent >= 0 && static_cast<size_t>(parent) < spans.size())
            children[parent].push_back(static_cast<int>(i));
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &span = spans[i];
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<double, double>> cover;
        for (int child : children[i]) {
            double lo = std::max(spans[child].start, span.start);
            double hi = std::min(spans[child].end, span.end);
            if (hi > lo)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        double reach = span.start;
        for (const auto &[lo, hi] : cover) {
            double from = std::max(lo, reach);
            if (hi > from)
                covered += hi - from;
            reach = std::max(reach, hi);
        }
        self[i] = span.duration() - covered;
    }
    return self;
}

double
selfTimeOf(const std::vector<Span> &spans,
           const std::vector<double> &self, const std::string &name)
{
    double total = 0.0;
    for (size_t i = 0; i < spans.size(); i++) {
        if (spans[i].name == name)
            total += self[i];
    }
    return total;
}

double
attributedTime(const std::vector<Span> &spans,
               const std::vector<double> &self, int job_span)
{
    double total = 0.0;
    for (size_t i = 0; i < spans.size(); i++) {
        int up = spans[i].parent;
        while (up >= 0 && up != job_span)
            up = spans[up].parent;
        if (up == job_span)
            total += self[i];
    }
    return total;
}

Reconciliation
reconcile(double wall, double attributed)
{
    Reconciliation rec;
    rec.wall = wall;
    rec.attributed = attributed;
    rec.residual = wall > 0.0 ? (wall - attributed) / wall : 0.0;
    return rec;
}

bool
PinTable::parse(const std::string &text, std::string *error)
{
    std::istringstream lines(text);
    std::string line;
    int number = 0;
    while (std::getline(lines, line)) {
        number++;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        PinKey key;
        FunctionalCounts counts;
        std::string extra;
        if (!(fields >> key.workload >> key.job >> key.config >>
              key.seed >> counts.threadInstructions >>
              counts.raysTraced >> counts.warpsLaunched) ||
            (fields >> extra)) {
            if (error)
                *error = "malformed pin line " +
                         std::to_string(number) + ": " + line;
            return false;
        }
        pins_[key] = counts;
    }
    return true;
}

bool
PinTable::load(const std::string &path, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot read " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str(), error);
}

void
PinTable::set(const PinKey &key, const FunctionalCounts &counts)
{
    pins_[key] = counts;
}

std::string
PinTable::check(const PinKey &key,
                const FunctionalCounts &counts) const
{
    std::string where = key.workload + "/" + key.job + "/" +
                        key.config + "/seed " +
                        std::to_string(key.seed);
    auto found = pins_.find(key);
    if (found == pins_.end())
        return where + ": no pinned functional counts";
    const FunctionalCounts &pin = found->second;
    std::string diff;
    auto compare = [&](const char *name, uint64_t want, uint64_t got) {
        if (want != got) {
            diff += std::string(diff.empty() ? "" : ", ") + name +
                    " " + std::to_string(got) + " != pinned " +
                    std::to_string(want);
        }
    };
    compare("thread_instructions", pin.threadInstructions,
            counts.threadInstructions);
    compare("rays_traced", pin.raysTraced, counts.raysTraced);
    compare("warps_launched", pin.warpsLaunched,
            counts.warpsLaunched);
    return diff.empty() ? std::string() : where + ": " + diff;
}

std::string
PinTable::format() const
{
    std::string out =
        "# workload\tjob\tconfig\tseed\tthread_instructions\t"
        "rays_traced\twarps_launched\n";
    for (const auto &[key, counts] : pins_) {
        out += key.workload + "\t" + key.job + "\t" + key.config +
               "\t" + std::to_string(key.seed) + "\t" +
               std::to_string(counts.threadInstructions) + "\t" +
               std::to_string(counts.raysTraced) + "\t" +
               std::to_string(counts.warpsLaunched) + "\n";
    }
    return out;
}

} // namespace ledger
