#include "core/performance_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.h"
#include "util/numeric.h"

namespace fs {
namespace core {

namespace {

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

} // namespace

double
Performance::effectiveBits() const
{
    if (granularity <= 0.0)
        return 0.0;
    return std::log2(1.8 / granularity);
}

PerformanceModel::PerformanceModel(const circuit::Technology &tech,
                                   const PerformanceLimits &limits)
    : tech_(&tech), limits_(limits)
{
}

PerformanceModel::TransferMemo &
PerformanceModel::memoFor(const FsConfig &cfg,
                          const circuit::MonitorChain &chain,
                          const std::vector<double> &voltages) const
{
    const circuit::ChainSpec &spec = chain.spec();
    const MemoKey key = {spec.roStages,
                         spec.dividerTap,
                         spec.dividerTotal,
                         bitsOf(spec.dividerWidth),
                         bitsOf(spec.processSpeed),
                         std::uint64_t(spec.cell),
                         std::uint64_t(spec.useRoCache),
                         bitsOf(cfg.vMin),
                         bitsOf(cfg.vMax),
                         bitsOf(cfg.granularityBand)};
    {
        const std::lock_guard<std::mutex> lock(memo_mu_);
        const auto it = memo_.find(key);
        if (it != memo_.end())
            return it->second;
    }
    // Solve outside the lock; a racing thread computes the same bits
    // and the first insert wins.
    TransferMemo fresh;
    fresh.freqs.reserve(voltages.size());
    for (const double v : voltages) {
        fresh.freqs.push_back(chain.frequency(v));
        if (fresh.freqs.back() <= 0.0)
            break;
    }
    const std::lock_guard<std::mutex> lock(memo_mu_);
    return memo_.try_emplace(key, std::move(fresh)).first->second;
}

calib::TransferShape
PerformanceModel::shapeFor(TransferMemo &memo, const FsConfig &cfg,
                           const circuit::MonitorChain &chain,
                           double band_hi) const
{
    {
        const std::lock_guard<std::mutex> lock(memo_mu_);
        if (memo.shape)
            return *memo.shape;
    }
    const calib::TransferShape shape =
        calib::transferShape(chain, cfg.vMin, cfg.vMax,
                             circuit::kNominalTempC, cfg.vMin, band_hi);
    const std::lock_guard<std::mutex> lock(memo_mu_);
    if (!memo.shape)
        memo.shape = shape;
    return *memo.shape;
}

Performance
PerformanceModel::evaluate(const FsConfig &cfg) const
{
    Performance p;
    p.sampleRate = cfg.sampleRate;

    const std::string invalid = cfg.validate();
    if (!invalid.empty()) {
        p.rejectReason = invalid;
        return p;
    }

    const circuit::MonitorChain chain(*tech_, cfg.chainSpec());

    constexpr std::size_t kGrid = 64;
    const auto voltages = linspace(cfg.vMin, cfg.vMax, kGrid);
    TransferMemo &memo = memoFor(cfg, chain, voltages);
    const std::vector<double> &freqs = memo.freqs;
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        if (freqs[i] <= 0.0) {
            p.rejectReason = "RO does not oscillate (or the level "
                             "shifter fails) at " +
                             std::to_string(voltages[i]) + " V";
            return p;
        }
    }
    p.meanCurrent = chain.meanCurrent(cfg.currentRefVoltage,
                                      cfg.enableTime, cfg.sampleRate);
    p.nvmBytes = (cfg.nvmEntries * cfg.entryBits + 7) / 8;
    p.transistors = chain.transistorCount();

    // Monotonicity over the operating range: required for an
    // invertible count-to-voltage mapping (Section III-F-b).
    for (std::size_t i = 1; i < kGrid; ++i) {
        if (freqs[i] <= freqs[i - 1]) {
            p.rejectReason = "transfer function not monotonic near " +
                             std::to_string(voltages[i]) + " V";
            return p;
        }
    }

    // Counter overflow, with thermal margin on the peak frequency.
    const double f_peak =
        freqs.back() * (1.0 + cfg.thermalErrorFraction);
    const circuit::EdgeCounter &counter = chain.counter();
    if (counter.wouldOverflow(f_peak, cfg.enableTime)) {
        p.rejectReason = "counter overflow: " +
                         std::to_string(f_peak * cfg.enableTime) +
                         " edges exceed " +
                         std::to_string(counter.maxCount());
        return p;
    }

    // Error terms, each referred to supply volts through the local
    // slope and taken at the worst point of the accuracy band just
    // above the minimum operating voltage (the checkpoint-decision
    // region, Section V-D).
    const double band_hi =
        std::min(cfg.vMax, cfg.vMin + cfg.granularityBand);
    const double dv = voltages[1] - voltages[0];
    double worst_quant = 0.0;
    double worst_thermal = 0.0;
    for (std::size_t i = 1; i < kGrid; ++i) {
        if (voltages[i] > band_hi + dv)
            break;
        const double slope = (freqs[i] - freqs[i - 1]) / dv;
        worst_quant = std::max(worst_quant, (1.0 / cfg.enableTime) / slope);
        worst_thermal = std::max(
            worst_thermal, cfg.thermalErrorFraction * freqs[i] / slope);
    }
    p.quantizationError = worst_quant;
    p.thermalError = worst_thermal;

    const auto bounds = calib::interpolationBounds(
        shapeFor(memo, cfg, chain, band_hi), cfg.vMin, cfg.vMax,
        cfg.nvmEntries, cfg.entryBits);
    switch (cfg.strategy) {
      case calib::Strategy::PiecewiseConstant:
        p.interpolationError = bounds.pwcBound + bounds.quantFloor;
        break;
      default:
        // Full-table and polynomial accuracy are bounded by the same
        // terms as piecewise-linear in this model.
        p.interpolationError = bounds.pwlBound + bounds.quantFloor;
        break;
    }

    p.granularity =
        p.quantizationError + p.thermalError + p.interpolationError;

    if (p.meanCurrent > limits_.meanCurrentMax) {
        p.rejectReason = "mean current above limit";
        return p;
    }
    if (p.granularity > limits_.granularityMax) {
        p.rejectReason = "granularity above limit";
        return p;
    }
    if (p.nvmBytes > limits_.nvmBytesMax) {
        p.rejectReason = "NVM overhead above limit";
        return p;
    }
    if (p.transistors > limits_.transistorsMax) {
        p.rejectReason = "transistor count above limit";
        return p;
    }

    p.realizable = true;
    return p;
}

} // namespace core
} // namespace fs
