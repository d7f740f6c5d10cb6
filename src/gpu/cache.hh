/**
 * @file
 * Cache model with latency-pipelined fills and MSHR-style merging.
 *
 * The model is probe-at-issue: an access at cycle T walks the
 * hierarchy immediately and computes the cycle its data is ready.
 * A missing line is inserted with a future validAt timestamp; later
 * accesses to the same line before validAt behave exactly like MSHR
 * merges (they complete when the outstanding fill returns, counted
 * as pending hits rather than new misses).
 */

#ifndef LUMI_GPU_CACHE_HH
#define LUMI_GPU_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "gpu/flat_map.hh"

namespace lumi
{

/** Outcome of a single-line cache probe. */
struct CacheProbe
{
    enum class Outcome { Hit, PendingHit, Miss };

    Outcome outcome = Outcome::Miss;
    /** For PendingHit: cycle at which the in-flight fill lands. */
    uint64_t validAt = 0;
};

/** Counter block kept per cache. */
struct CacheStats
{
    uint64_t reads = 0;
    uint64_t readHits = 0;
    uint64_t readPendingHits = 0;
    uint64_t readMisses = 0;
    uint64_t writes = 0;
    uint64_t writeHits = 0;
    uint64_t writeMisses = 0;

    double
    readMissRate() const
    {
        return reads > 0
                   ? static_cast<double>(readMisses) / reads
                   : 0.0;
    }

    double
    writeMissRate() const
    {
        return writes > 0
                   ? static_cast<double>(writeMisses) / writes
                   : 0.0;
    }
};

/**
 * A set-associative (or fully associative) LRU cache with timestamped
 * lines. Replacement is true LRU via last-used timestamps, selected
 * through a per-set tournament tree.
 */
class Cache
{
  public:
    /**
     * @param size_bytes capacity
     * @param line_bytes line size
     * @param ways associativity; 0 selects fully associative
     * @param latency hit latency in cycles
     */
    Cache(uint32_t size_bytes, uint32_t line_bytes, uint32_t ways,
          int latency);

    uint32_t lineBytes() const { return lineBytes_; }
    int latency() const { return latency_; }

    /**
     * Probe for the line containing @p line_addr (already
     * line-aligned) at @p cycle. Hits update LRU state. Misses do
     * NOT insert -- call fill() once the fill time is known.
     */
    CacheProbe probe(uint64_t line_addr, uint64_t cycle);

    /**
     * Side-effect-free lookup: no stats, no LRU update. MemSystem
     * uses it to test MSHR feasibility before committing to an
     * access, so rejected requests leave no trace in the counters.
     */
    CacheProbe peek(uint64_t line_addr, uint64_t cycle) const;

    /** Insert @p line_addr with its data arriving at @p valid_at. */
    void fill(uint64_t line_addr, uint64_t cycle, uint64_t valid_at);

    /**
     * Probe-and-update for writes. Never allocates by itself: on a
     * miss it returns false and MemSystem applies the configured
     * GpuConfig::writePolicy (fill() under write-allocate, bypass
     * under no-write-allocate).
     */
    bool writeProbe(uint64_t line_addr, uint64_t cycle);

    /**
     * Way (within its set) that the next fill() of @p line_addr
     * would replace: the lowest invalid way, else the least recently
     * used one, the lowest way on ties. Side-effect free.
     */
    uint32_t victimWay(uint64_t line_addr) const;

    CacheStats stats;

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t validAt = 0;
        bool valid = false;
    };

    uint32_t setIndex(uint64_t line_addr) const;
    Line *findLine(uint64_t line_addr);
    const Line *findLine(uint64_t line_addr) const;
    /** Set lruKey_[@p index] to @p key and replay the set's
     *  tournament up from that way. Every key write goes here. */
    void touch(uint32_t index, uint64_t key);

    uint32_t lineBytes_;
    uint32_t numSets_;
    uint32_t ways_;
    int latency_;
    /** sets_[set * ways_ + way]. */
    std::vector<Line> lines_;
    /**
     * Line address -> index into lines_, one open-addressed table
     * for the whole cache (the address encodes its set, so one flat
     * probe replaces the old per-set node-based map — and covers the
     * fully-associative L1, where a per-set structure degenerates to
     * a single huge set anyway). Pre-sized to the line count, so it
     * never rehashes during simulation.
     */
    FlatMap<uint32_t> lookup_;
    /**
     * Replacement keys, one per line: 0 for an invalid line, else
     * lastUsed + 1. The victim is the argmin with ties to the lower
     * way: a 0 key beats any timestamp (first invalid way), and
     * same-cycle uses fall to the lowest way.
     */
    std::vector<uint64_t> lruKey_;
    /** Ways rounded up to a power of two: tournament leaves. */
    uint32_t leaves_ = 1;
    /**
     * Per-set tournament tree over lruKey_, 2 * leaves_ entries per
     * set in heap order: node 1 is the root, leaf leaves_ + w holds
     * way w, and every node holds the way winning its subtree.
     * Padding leaves (w >= ways_) carry key +inf, and the left child
     * wins ties, so the root is exactly the argmin above. A fill
     * reads the root instead of scanning every way (512 of them in
     * the fully associative L1); touch() keeps it current in
     * O(log ways).
     */
    std::vector<uint16_t> tree_;
    /** Valid lines per set (tag-index/line-array lockstep check). */
    std::vector<uint32_t> setFill_;
};

} // namespace lumi

#endif // LUMI_GPU_CACHE_HH
