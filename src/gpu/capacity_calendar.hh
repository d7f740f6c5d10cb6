/**
 * @file
 * Per-cycle capacity calendar for a resource that serves a fixed
 * number of units per cycle (the shared SM<->L2 interconnect, in
 * flits).
 *
 * A transfer reserves its units at the earliest cycles at or after
 * its ready cycle that still have spare capacity, at most the
 * capacity per cycle. Reservations made for a later cycle (a fill
 * that waits on DRAM) hold only their own cycles, so a transfer that
 * is ready earlier never queues behind them. The calendar is a dense
 * power-of-two ring of used-unit counts, one per cycle from a base
 * that advances with the issue cycle; it doubles when a reservation
 * lands past its horizon.
 */

#ifndef LUMI_GPU_CAPACITY_CALENDAR_HH
#define LUMI_GPU_CAPACITY_CALENDAR_HH

#include <cstdint>
#include <vector>

namespace lumi
{

class CapacityCalendar
{
  public:
    /** @p capacity units per cycle; reserve() needs it > 0. */
    explicit CapacityCalendar(uint32_t capacity) : capacity_(capacity)
    {
    }

    /** The cycles a transfer's first and last units are served. */
    struct Span
    {
        uint64_t first = 0;
        uint64_t last = 0;
    };

    /**
     * Place @p units (> 0) no earlier than @p cycle, for a transfer
     * issued at @p now. Cycles before @p now are forgotten: callers
     * issue in non-decreasing @p now and never reserve before it.
     */
    Span reserve(uint64_t now, uint64_t cycle, uint32_t units);

    /** Units reserved at @p cycle (0 outside the calendar). */
    uint32_t used(uint64_t cycle) const;

  private:
    void advance(uint64_t now);
    void grow(uint64_t cycle);

    uint32_t capacity_;
    /** Units per cycle for [base_, base_ + size); cycle c lives in
     *  slot c & (size - 1). */
    std::vector<uint32_t> used_;
    uint64_t base_ = 0;
};

} // namespace lumi

#endif // LUMI_GPU_CAPACITY_CALENDAR_HH
