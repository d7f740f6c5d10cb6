#include "gpu/cache.hh"

#include <stdexcept>

#include "check/check.hh"

namespace lumi
{

namespace
{

/** Tournament match between ways @p a and @p b of one set: the
 *  lower key wins, the left (lower) way on ties; ways at or past
 *  @p ways are padding and carry +inf. */
inline uint16_t
winner(const uint64_t *keys, uint32_t ways, uint16_t a, uint16_t b)
{
    uint64_t key_a = a < ways ? keys[a] : UINT64_MAX;
    uint64_t key_b = b < ways ? keys[b] : UINT64_MAX;
    return key_b < key_a ? b : a;
}

} // namespace

Cache::Cache(uint32_t size_bytes, uint32_t line_bytes, uint32_t ways,
             int latency)
    : lineBytes_(line_bytes), latency_(latency)
{
    uint32_t num_lines = size_bytes / line_bytes;
    if (ways == 0 || ways > num_lines)
        ways = num_lines; // fully associative
    ways_ = ways;
    numSets_ = num_lines / ways;
    if (numSets_ == 0)
        numSets_ = 1;
    lines_.resize(static_cast<size_t>(numSets_) * ways_);
    lookup_ = FlatMap<uint32_t>(num_lines);
    lruKey_.resize(lines_.size(), 0);
    setFill_.resize(numSets_, 0);

    while (leaves_ < ways_)
        leaves_ <<= 1;
    if (leaves_ > 65536) {
        throw std::invalid_argument(
            "cache associativity above 65536 ways overflows the "
            "16-bit replacement tree");
    }
    tree_.resize(static_cast<size_t>(numSets_) * 2 * leaves_);
    for (uint32_t set = 0; set < numSets_; set++) {
        uint16_t *tree = tree_.data() + static_cast<size_t>(set) * 2 *
                                            leaves_;
        const uint64_t *keys = lruKey_.data() + set * ways_;
        for (uint32_t w = 0; w < leaves_; w++)
            tree[leaves_ + w] = static_cast<uint16_t>(w);
        for (uint32_t node = leaves_ - 1; node >= 1; node--) {
            tree[node] = winner(keys, ways_, tree[2 * node],
                                tree[2 * node + 1]);
        }
    }
}

void
Cache::touch(uint32_t index, uint64_t key)
{
    lruKey_[index] = key;
    uint32_t set = index / ways_;
    uint32_t way = index - set * ways_;
    uint16_t *tree = tree_.data() + static_cast<size_t>(set) * 2 *
                                        leaves_;
    const uint64_t *keys = lruKey_.data() + set * ways_;
    // Replay the matches on the path to the root. A node whose
    // winner stays the same other way shields everything above it
    // (the usual case once a hit only grew the key), so stop there.
    for (uint32_t node = (leaves_ + way) >> 1; node >= 1; node >>= 1) {
        uint16_t win = winner(keys, ways_, tree[2 * node],
                              tree[2 * node + 1]);
        if (win == tree[node] && win != way)
            break;
        tree[node] = win;
    }
}

uint32_t
Cache::victimWay(uint64_t line_addr) const
{
    size_t set = setIndex(line_addr);
    return tree_[set * 2 * leaves_ + 1]; // the set's tournament root
}

uint32_t
Cache::setIndex(uint64_t line_addr) const
{
    return static_cast<uint32_t>((line_addr / lineBytes_) % numSets_);
}

Cache::Line *
Cache::findLine(uint64_t line_addr)
{
    const uint32_t *index = lookup_.find(line_addr);
    return index ? &lines_[*index] : nullptr;
}

const Cache::Line *
Cache::findLine(uint64_t line_addr) const
{
    const uint32_t *index = lookup_.find(line_addr);
    return index ? &lines_[*index] : nullptr;
}

CacheProbe
Cache::peek(uint64_t line_addr, uint64_t cycle) const
{
    CacheProbe result;
    const Line *line = findLine(line_addr);
    if (!line)
        return result; // Miss
    if (line->validAt > cycle) {
        result.outcome = CacheProbe::Outcome::PendingHit;
        result.validAt = line->validAt;
    } else {
        result.outcome = CacheProbe::Outcome::Hit;
    }
    return result;
}

CacheProbe
Cache::probe(uint64_t line_addr, uint64_t cycle)
{
    stats.reads++;
    CacheProbe result;
    const uint32_t *index = lookup_.find(line_addr);
    Line *line = index ? &lines_[*index] : nullptr;
    if (!line) {
        stats.readMisses++;
    } else {
        touch(*index, cycle + 1);
        if (line->validAt > cycle) {
            stats.readPendingHits++;
            result.outcome = CacheProbe::Outcome::PendingHit;
            result.validAt = line->validAt;
        } else {
            stats.readHits++;
            result.outcome = CacheProbe::Outcome::Hit;
        }
    }
    // Every probe lands in exactly one outcome bucket; drift here
    // means a stat was bumped outside this function or lost.
    LUMI_CHECK(Cache,
               stats.reads == stats.readHits + stats.readPendingHits +
                                  stats.readMisses,
               "read counter drift: reads=%llu != hits=%llu + "
               "pending=%llu + misses=%llu",
               static_cast<unsigned long long>(stats.reads),
               static_cast<unsigned long long>(stats.readHits),
               static_cast<unsigned long long>(stats.readPendingHits),
               static_cast<unsigned long long>(stats.readMisses));
    return result;
}

void
Cache::fill(uint64_t line_addr, uint64_t cycle, uint64_t valid_at)
{
    // A fill's data cannot land before the access that requested it.
    LUMI_CHECK(Cache, valid_at >= cycle,
               "fill of line 0x%llx completes in the past: "
               "validAt=%llu < cycle=%llu",
               static_cast<unsigned long long>(line_addr),
               static_cast<unsigned long long>(valid_at),
               static_cast<unsigned long long>(cycle));
    uint32_t set = setIndex(line_addr);
    if (lookup_.contains(line_addr))
        return; // already present (raced fill)

    // The first invalid way, else the LRU line of the set: the
    // tournament root (argmin of the replacement keys, lowest way on
    // ties).
    uint32_t base = set * ways_;
    uint32_t victim = base + victimWay(line_addr);
#if LUMI_CHECKS_ENABLED
    const uint64_t *keys = lruKey_.data() + base;
    // Replacement legality: the victim must be an invalid way or the
    // true LRU of the set (no valid line older than it).
    if (lruKey_[victim] != 0) {
        for (uint32_t w = 0; w < ways_; w++) {
            LUMI_CHECK(Cache, keys[w] >= lruKey_[victim],
                       "LRU violation in set %u: victim lastUsed=%llu "
                       "but way %u has lastUsed=%llu",
                       set,
                       static_cast<unsigned long long>(
                           lruKey_[victim] - 1),
                       w,
                       static_cast<unsigned long long>(
                           keys[w] ? keys[w] - 1 : 0));
        }
    }
#endif
    Line &line = lines_[victim];
    if (line.valid) {
        lookup_.erase(line.tag);
        setFill_[set]--;
    }
    line.tag = line_addr;
    line.validAt = valid_at;
    line.valid = true;
    touch(victim, cycle + 1);
    lookup_.insert(line_addr, victim);
    setFill_[set]++;
    // The tag index and the line array must stay in lockstep: a set
    // can never track more lines than it has ways.
    LUMI_CHECK(Cache, setFill_[set] <= ways_,
               "set %u tracks %u lines with only %u ways", set,
               setFill_[set], ways_);
}

bool
Cache::writeProbe(uint64_t line_addr, uint64_t cycle)
{
    stats.writes++;
    const uint32_t *index = lookup_.find(line_addr);
    Line *line = index ? &lines_[*index] : nullptr;
    bool hit = line && line->validAt <= cycle;
    if (hit) {
        touch(*index, cycle + 1);
        stats.writeHits++;
    } else {
        stats.writeMisses++;
    }
    LUMI_CHECK(Cache,
               stats.writes == stats.writeHits + stats.writeMisses,
               "write counter drift: writes=%llu != hits=%llu + "
               "misses=%llu",
               static_cast<unsigned long long>(stats.writes),
               static_cast<unsigned long long>(stats.writeHits),
               static_cast<unsigned long long>(stats.writeMisses));
    return hit;
}

} // namespace lumi
