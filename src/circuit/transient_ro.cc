#include "circuit/transient_ro.h"

#include <algorithm>

#include "util/logging.h"

namespace fs {
namespace circuit {

namespace {

// Time is kept in integer ticks of 1 picosecond, which resolves RO
// periods (nanoseconds) with room to spare.
using Tick = std::uint64_t;

constexpr Tick kTicksPerSecond = 1'000'000'000'000ULL;

constexpr Tick
toTicks(double seconds)
{
    return Tick(seconds * double(kTicksPerSecond) + 0.5);
}

constexpr double
toSeconds(Tick ticks)
{
    return double(ticks) / double(kTicksPerSecond);
}

/** How often a starved ring re-reads its rail. */
constexpr Tick kStarvedPoll = toTicks(10e-6);

} // namespace

TransientRo::TransientRo(const RingOscillator &ro, SupplySource supply,
                         double jitter_sigma, std::uint64_t seed)
    : ro_(ro), supply_(std::move(supply)), jitter_sigma_(jitter_sigma),
      rng_(seed)
{
    FS_ASSERT(jitter_sigma >= 0.0 && jitter_sigma < 0.5,
              "unreasonable jitter fraction");
}

std::uint64_t
TransientRo::runWindow(double t_en)
{
    // The enable NAND releases the ring from a known state: the first
    // transition starts at stage 0 with the output low.
    std::size_t stage = 0;
    bool outputHigh = false;
    edges_ = 0;
    const Tick end = now_ + toTicks(t_en);
    for (Tick t = now_;;) {
        // Each step's delay is set by the rail at the step's start; a
        // starved ring holds its state and re-reads the rail later.
        const double v = supply_(toSeconds(t));
        const bool starved = !ro_.oscillates(v);
        if (starved) {
            t += kStarvedPoll;
        } else {
            double delay = ro_.gateDelay(v);
            if (jitter_sigma_ > 0.0)
                delay *=
                    std::max(0.1, 1.0 + rng_.gaussian(0.0, jitter_sigma_));
            t += std::max<Tick>(1, toTicks(delay));
        }
        if (t > end)
            break; // the in-flight transition dies with the window
        if (starved || ++stage < ro_.stages())
            continue;
        // The transition reached the feedback node: the ring output
        // toggles and a fresh transition starts around the loop.
        stage = 0;
        outputHigh = !outputHigh;
        if (!outputHigh)
            continue;
        ++edges_;
        if (edge_times_.size() >= history_limit_) {
            edge_times_.erase(edge_times_.begin(),
                              edge_times_.begin() +
                                  std::ptrdiff_t(history_limit_ / 2));
        }
        edge_times_.push_back(toSeconds(t));
    }
    now_ = end;
    return edges_;
}

} // namespace circuit
} // namespace fs
