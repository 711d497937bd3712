/**
 * @file
 * Analytical performance model (Section V-A).
 *
 * Maps an FsConfig to the five Table III performance parameters
 * (mean current, sample rate, granularity, NVM overhead, transistor
 * count) and applies the rejection filter that rules out unrealizable
 * configurations (counter overflow, duty > 1, non-oscillation,
 * non-monotonic transfer, level-shifter limits). Granularity combines
 * three error terms:
 *
 *   - count quantization: the minimum detectable frequency change is
 *     1/T_en (Section III-E), referred to supply volts through the
 *     transfer slope at its flattest point;
 *   - thermal error: a worst-case 2 % frequency deviation
 *     (Section V-C) referred to supply volts the same way;
 *   - interpolation error: the Eq. 4 piecewise-linear bound plus the
 *     NVM entry quantization floor (Section III-H).
 */

#ifndef FS_CORE_PERFORMANCE_MODEL_H_
#define FS_CORE_PERFORMANCE_MODEL_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "calib/error_bounds.h"
#include "core/fs_config.h"

namespace fs {
namespace core {

/** The five Table III performance parameters plus realizability. */
struct Performance {
    bool realizable = false;
    std::string rejectReason;

    double meanCurrent = 0.0; ///< A, averaged over the supply range
    double sampleRate = 0.0;  ///< Hz (passes through from the config)
    double granularity = 0.0; ///< V, worst case over the supply range
    std::size_t nvmBytes = 0;
    std::size_t transistors = 0;

    // Granularity decomposition for reporting/ablation.
    double quantizationError = 0.0; ///< V
    double thermalError = 0.0;      ///< V
    double interpolationError = 0.0; ///< V

    /** Effective bits over a 1.8 V dynamic range (Fig. 6 framing). */
    double effectiveBits() const;
};

class PerformanceModel
{
  public:
    /**
     * @param tech process node
     * @param limits Table III performance limits for the filter
     */
    explicit PerformanceModel(const circuit::Technology &tech,
                              const PerformanceLimits &limits = {});

    const circuit::Technology &tech() const { return *tech_; }
    const PerformanceLimits &limits() const { return limits_; }

    /**
     * Evaluate a configuration. Always fills the metric fields (so
     * near-misses can be inspected); `realizable` is true only when
     * every rejection check and performance limit passes. Safe to
     * call from several threads at once.
     */
    Performance evaluate(const FsConfig &cfg) const;

  private:
    /**
     * The frequency solves evaluate() needs for one chain geometry
     * over one operating range. They depend on every ChainSpec field
     * except the counter width, and on vMin/vMax/granularityBand, but
     * not on timing or table size, so a DSE run that evaluates
     * thousands of configs solves each geometry once.
     */
    struct TransferMemo {
        /** Frequency at each grid voltage, up to and including the
         *  first non-oscillating point. */
        std::vector<double> freqs;
        /** Filled on first use (under memo_mu_). */
        std::optional<calib::TransferShape> shape;
    };
    /** Chain geometry and operating range, doubles as bit patterns. */
    using MemoKey = std::array<std::uint64_t, 10>;

    TransferMemo &memoFor(const FsConfig &cfg,
                          const circuit::MonitorChain &chain,
                          const std::vector<double> &voltages) const;
    calib::TransferShape shapeFor(TransferMemo &memo, const FsConfig &cfg,
                                  const circuit::MonitorChain &chain,
                                  double band_hi) const;

    const circuit::Technology *tech_;
    PerformanceLimits limits_;
    /** Lives as long as the model; entries are never erased, so a
     *  reference into the map stays valid after the lock drops. */
    mutable std::mutex memo_mu_;
    mutable std::map<MemoKey, TransferMemo> memo_;
};

} // namespace core
} // namespace fs

#endif // FS_CORE_PERFORMANCE_MODEL_H_
