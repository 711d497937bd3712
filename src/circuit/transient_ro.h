/**
 * @file
 * Gate-level transient ring-oscillator simulation.
 *
 * The analytical model (ring_oscillator.h) computes f = 1/(2 n tau_d)
 * in closed form. This module instead *simulates* the ring one gate
 * transition at a time on a picosecond clock: a transition propagates
 * stage to stage with the technology's (possibly noisy, possibly
 * time-varying-supply) gate delay, and the output node's positive
 * edges are counted exactly as the hardware counter would see them.
 * It validates Eq. 1 edge-by-edge and exposes cycle-to-cycle jitter
 * and window-boundary partial periods -- effects the closed form
 * abstracts away.
 */

#ifndef FS_CIRCUIT_TRANSIENT_RO_H_
#define FS_CIRCUIT_TRANSIENT_RO_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "circuit/ring_oscillator.h"
#include "util/random.h"

namespace fs {
namespace circuit {

class TransientRo
{
  public:
    /** Supply voltage at an absolute simulation time (seconds). */
    using SupplySource = std::function<double(double)>;

    /**
     * @param ro           analytical model supplying per-gate delays
     * @param supply       the (possibly drooping) RO rail voltage
     * @param jitter_sigma per-gate delay noise as a fraction of the
     *                     nominal delay (0 = noiseless)
     * @param seed         jitter RNG seed
     */
    TransientRo(const RingOscillator &ro, SupplySource supply,
                double jitter_sigma = 0.0, std::uint64_t seed = 1);

    /** Positive output edges observed in the last window. */
    std::uint64_t edgeCount() const { return edges_; }

    /** Timestamps (s) of the most recent output edges (for jitter). */
    const std::vector<double> &edgeTimes() const { return edge_times_; }

    /** Bound the edge-time history (default keeps the last 4096). */
    void setHistoryLimit(std::size_t limit) { history_limit_ = limit; }

    /**
     * Simulate one enable window of t_en seconds and return the edge
     * count (what the hardware counter latches). The window starts
     * where the previous one ended (time 0 for the first); the enable
     * NAND releases the ring from its known reset state (Section
     * III-C), and the transition in flight at the window's end is
     * squashed.
     */
    std::uint64_t runWindow(double t_en);

  private:
    const RingOscillator &ro_;
    SupplySource supply_;
    double jitter_sigma_;
    Rng rng_;

    std::uint64_t now_ = 0; ///< picoseconds
    std::uint64_t edges_ = 0;
    std::vector<double> edge_times_;
    std::size_t history_limit_ = 4096;
};

} // namespace circuit
} // namespace fs

#endif // FS_CIRCUIT_TRANSIENT_RO_H_
