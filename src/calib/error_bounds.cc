#include "calib/error_bounds.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/numeric.h"

namespace fs {
namespace calib {

TransferShape
transferShape(const circuit::MonitorChain &chain, double v_lo,
              double v_hi, double temp_c, double eval_lo, double eval_hi)
{
    FS_ASSERT(v_hi > v_lo, "empty voltage range");
    if (eval_hi <= eval_lo) {
        eval_lo = v_lo;
        eval_hi = v_hi;
    }

    const Fn freq = [&](double v) { return chain.frequency(v, temp_c); };

    TransferShape out;
    out.freqLow = freq(v_lo);
    out.freqHigh = freq(v_hi);
    if (out.freqLow > out.freqHigh)
        std::swap(out.freqLow, out.freqHigh);

    // Derivatives of the inverse mapping g(f):
    //   g'  =  1 / f'(v)
    //   g'' = -f''(v) / f'(v)^3
    for (double v : linspace(eval_lo, eval_hi, 256)) {
        const double f1 = derivative(freq, v);
        const double f2 = secondDerivative(freq, v);
        if (std::fabs(f1) < 1e3)
            continue; // flat spot: outside the usable monotonic region
        out.maxG1 = std::max(out.maxG1, std::fabs(1.0 / f1));
        out.maxG2 = std::max(out.maxG2, std::fabs(f2 / (f1 * f1 * f1)));
    }
    return out;
}

InterpolationBounds
interpolationBounds(const TransferShape &shape, double v_lo, double v_hi,
                    std::size_t entries, std::size_t entry_bits)
{
    FS_ASSERT(entries >= 1, "need at least one datapoint");
    InterpolationBounds out;
    out.freqLow = shape.freqLow;
    out.freqHigh = shape.freqHigh;
    const double h = (shape.freqHigh - shape.freqLow) / double(entries);
    out.pwcBound = h * shape.maxG1;
    out.pwlBound = h * h / 8.0 * shape.maxG2;
    out.quantFloor = (v_hi - v_lo) / double(1u << entry_bits);
    return out;
}

InterpolationBounds
interpolationBounds(const circuit::MonitorChain &chain, double v_lo,
                    double v_hi, std::size_t entries,
                    std::size_t entry_bits, double temp_c, double eval_lo,
                    double eval_hi)
{
    return interpolationBounds(
        transferShape(chain, v_lo, v_hi, temp_c, eval_lo, eval_hi), v_lo,
        v_hi, entries, entry_bits);
}

double
empiricalMaxError(const CountConverter &conv,
                  const circuit::MonitorChain &chain, double t_en,
                  double v_lo, double v_hi, double temp_c, std::size_t grid)
{
    double worst = 0.0;
    for (double v : linspace(v_lo, v_hi, grid)) {
        const auto sample = chain.sample(v, t_en, temp_c);
        const double est = conv.toVoltage(sample.count);
        worst = std::max(worst, std::fabs(est - v));
    }
    return worst;
}

} // namespace calib
} // namespace fs
