/**
 * @file
 * Analytic interpolation error bounds (Section III-H, Eq. 3 and 4).
 *
 * For the count-to-voltage mapping g(f) -- the inverse of the RO's
 * frequency-voltage transfer function -- with datapoints spaced h apart
 * in frequency:
 *
 *   E_const <= h     * max |g'(f)|                (Eq. 3)
 *   E_lin   <= h^2/8 * max |g''(f)|               (Eq. 4)
 *
 * plus the storage quantization floor (v range / 2^entry_bits). This
 * module evaluates those bounds for a concrete monitor chain, and also
 * measures the *empirical* worst-case error of real converters so the
 * tests can verify the bounds hold.
 */

#ifndef FS_CALIB_ERROR_BOUNDS_H_
#define FS_CALIB_ERROR_BOUNDS_H_

#include <cstddef>

#include "calib/converter.h"
#include "circuit/power_model.h"

namespace fs {
namespace calib {

/** Analytic worst-case interpolation errors for one configuration. */
struct InterpolationBounds {
    double pwcBound = 0.0;   ///< Eq. 3 bound (V)
    double pwlBound = 0.0;   ///< Eq. 4 bound (V)
    double quantFloor = 0.0; ///< entry-width quantization floor (V)
    double freqLow = 0.0;    ///< L: min frequency over the range (Hz)
    double freqHigh = 0.0;   ///< H: max frequency over the range (Hz)
};

/**
 * The part of Eq. 3/4 that depends only on the chain's transfer
 * function and the voltage ranges, not on the table size: the range
 * end frequencies and the worst-case derivatives of g(f).
 */
struct TransferShape {
    double freqLow = 0.0;  ///< L: min frequency over the range (Hz)
    double freqHigh = 0.0; ///< H: max frequency over the range (Hz)
    double maxG1 = 0.0;    ///< max |g'(f)| over the evaluation range
    double maxG2 = 0.0;    ///< max |g''(f)| over the evaluation range
};

/**
 * Transfer shape of a chain over the supply range [v_lo, v_hi], with
 * the derivative maxima taken over [eval_lo, eval_hi] (the whole range
 * when that is empty). This is the expensive step of
 * interpolationBounds: ~1,300 frequency solves.
 */
TransferShape transferShape(const circuit::MonitorChain &chain,
                            double v_lo, double v_hi,
                            double temp_c = circuit::kNominalTempC,
                            double eval_lo = 0.0, double eval_hi = 0.0);

/**
 * Apply Eq. 3/4 and the quantization floor to a transfer shape over
 * [v_lo, v_hi] for `entries` datapoints of `entry_bits` each.
 */
InterpolationBounds interpolationBounds(const TransferShape &shape,
                                        double v_lo, double v_hi,
                                        std::size_t entries,
                                        std::size_t entry_bits);

/**
 * Evaluate Eq. 3/4 for a chain enrolled over the supply range
 * [v_lo, v_hi] with `entries` evenly spaced frequency datapoints
 * stored at `entry_bits` precision.
 *
 * When [eval_lo, eval_hi] is given, the derivative maxima are taken
 * over that sub-range only (e.g. the checkpoint accuracy band) while
 * the datapoint spacing h still reflects the full enrolled range.
 */
InterpolationBounds
interpolationBounds(const circuit::MonitorChain &chain, double v_lo,
                    double v_hi, std::size_t entries,
                    std::size_t entry_bits,
                    double temp_c = circuit::kNominalTempC,
                    double eval_lo = 0.0, double eval_hi = 0.0);

/**
 * Empirical worst-case |converter(count(v)) - v| over a dense grid of
 * true supply voltages in [v_lo, v_hi].
 */
double empiricalMaxError(const CountConverter &conv,
                         const circuit::MonitorChain &chain, double t_en,
                         double v_lo, double v_hi,
                         double temp_c = circuit::kNominalTempC,
                         std::size_t grid = 1024);

} // namespace calib
} // namespace fs

#endif // FS_CALIB_ERROR_BOUNDS_H_
