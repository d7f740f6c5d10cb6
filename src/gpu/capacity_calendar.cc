#include "gpu/capacity_calendar.hh"

#include <algorithm>

namespace lumi
{

CapacityCalendar::Span
CapacityCalendar::reserve(uint64_t now, uint64_t cycle, uint32_t units)
{
    advance(now);
    Span span;
    span.first = UINT64_MAX;
    uint32_t left = units;
    for (uint64_t at = std::max(cycle, base_);; at++) {
        if (at - base_ >= used_.size())
            grow(at);
        uint32_t &used = used_[at & (used_.size() - 1)];
        if (used >= capacity_)
            continue;
        uint32_t take = std::min(capacity_ - used, left);
        used += take;
        left -= take;
        if (span.first == UINT64_MAX)
            span.first = at;
        if (left == 0) {
            span.last = at;
            return span;
        }
    }
}

uint32_t
CapacityCalendar::used(uint64_t cycle) const
{
    if (cycle < base_ || cycle - base_ >= used_.size())
        return 0;
    return used_[cycle & (used_.size() - 1)];
}

void
CapacityCalendar::advance(uint64_t now)
{
    if (now <= base_)
        return;
    uint64_t size = used_.size();
    if (now - base_ >= size) {
        std::fill(used_.begin(), used_.end(), 0u);
    } else {
        for (uint64_t c = base_; c < now; c++)
            used_[c & (size - 1)] = 0;
    }
    base_ = now;
}

void
CapacityCalendar::grow(uint64_t cycle)
{
    uint64_t size = used_.size();
    uint64_t grown = std::max<uint64_t>(size, 1024);
    while (cycle - base_ >= grown)
        grown *= 2;
    std::vector<uint32_t> calendar(grown, 0u);
    for (uint64_t c = base_; c < base_ + size; c++)
        calendar[c & (grown - 1)] = used_[c & (size - 1)];
    used_.swap(calendar);
}

} // namespace lumi
