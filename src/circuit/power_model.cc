#include "circuit/power_model.h"

#include <algorithm>
#include <cmath>

#include "circuit/ro_frequency_cache.h"
#include "util/logging.h"

namespace fs {
namespace circuit {

MonitorChain::MonitorChain(const Technology &tech, const ChainSpec &spec)
    : tech_(&tech), spec_(spec),
      ro_(tech, spec.roStages, spec.processSpeed, spec.cell),
      shifter_(tech), counter_(tech, spec.counterBits)
{
    if (spec.hasDivider()) {
        divider_.emplace(tech, spec.dividerTap, spec.dividerTotal,
                         spec.dividerWidth);
    }
    if (spec.useRoCache && RoFrequencyCache::enabled())
        nominal_cache_ = &RoFrequencyCache::shared(
            tech, spec.roStages, spec.cell, kNominalTempC);
}

const RoFrequencyCache *
MonitorChain::cacheFor(double temp_c) const
{
    if (!nominal_cache_)
        return nullptr;
    if (temp_c == kNominalTempC)
        return nominal_cache_;
    return &RoFrequencyCache::shared(*tech_, spec_.roStages, spec_.cell,
                                     temp_c);
}

double
MonitorChain::roFrequencyAt(double v_ro, double temp_c) const
{
    if (const RoFrequencyCache *cache = cacheFor(temp_c))
        return cache->frequency(v_ro, spec_.processSpeed);
    return ro_.frequency(v_ro, temp_c);
}

double
MonitorChain::roDynamicCurrentAt(double v_ro, double temp_c) const
{
    if (const RoFrequencyCache *cache = cacheFor(temp_c))
        return cache->dynamicCurrent(v_ro, spec_.processSpeed);
    return ro_.dynamicCurrent(v_ro, temp_c);
}

const VoltageDivider *
MonitorChain::divider() const
{
    return divider_ ? &*divider_ : nullptr;
}

double
MonitorChain::roVoltage(double v_supply, double temp_c) const
{
    if (!divider_)
        return v_supply;
    // Fixed point: droop depends on the RO current, which depends on
    // the drooped voltage. The damped iteration contracts slowly: for
    // the 9- and 21-stage 1/3-divider chains at 90 nm it needs 17-18
    // steps to meet the 1e-7 V test, so it always stops at the 12-step
    // cap with the last step still moving 2.4-6.3 uV over 1.8-3.6 V
    // (far below any monitor's resolution).
    double v_ro = divider_->unloadedOutput(v_supply);
    for (int i = 0; i < 12; ++i) {
        const double i_ro = roDynamicCurrentAt(v_ro, temp_c);
        const double next = divider_->loadedOutput(v_supply, i_ro);
        if (std::fabs(next - v_ro) < 1e-7) {
            v_ro = next;
            break;
        }
        v_ro = 0.5 * (v_ro + next);
    }
    return v_ro;
}

double
MonitorChain::frequency(double v_supply, double temp_c) const
{
    const double v_ro = roVoltage(v_supply, temp_c);
    const double f = roFrequencyAt(v_ro, temp_c);
    if (f < RingOscillator::kMinOscillationHz)
        return 0.0;
    if (divider_ && !shifter_.canShift(f, v_ro, v_supply, temp_c))
        return 0.0;
    return f;
}

EdgeCounter::Sample
MonitorChain::sample(double v_supply, double t_en, double temp_c) const
{
    return counter_.count(frequency(v_supply, temp_c), t_en);
}

ActiveCurrents
MonitorChain::activeCurrents(double v_supply, double temp_c) const
{
    ActiveCurrents c;
    const double v_ro = roVoltage(v_supply, temp_c);
    const double f = roFrequencyAt(v_ro, temp_c);
    // The RO's charge comes through the divider from the supply rail,
    // so the supply sees the full RO current.
    c.roDynamic = roDynamicCurrentAt(v_ro, temp_c);
    c.dividerBias = divider_ ? divider_->biasCurrent(v_supply) : 0.0;
    c.shifter = divider_ ? shifter_.dynamicCurrent(f, v_supply, temp_c)
                         : 0.0;
    c.counter = counter_.dynamicCurrent(f, v_supply);
    c.staticLeak = idleCurrent(v_supply, temp_c);
    return c;
}

double
MonitorChain::idleCurrent(double v_supply, double temp_c) const
{
    double i = ro_.staticCurrent(v_supply, temp_c) +
               counter_.staticCurrent(v_supply, temp_c);
    if (divider_)
        i += shifter_.staticCurrent(v_supply, temp_c);
    return i;
}

double
MonitorChain::meanCurrent(double v_supply, double t_en, double f_sample,
                          double temp_c) const
{
    FS_ASSERT(t_en >= 0.0 && f_sample >= 0.0, "negative duty parameters");
    const double duty = std::min(1.0, t_en * f_sample);
    const ActiveCurrents active = activeCurrents(v_supply, temp_c);
    const double dynamic = active.total() - active.staticLeak;
    return duty * dynamic + idleCurrent(v_supply, temp_c);
}

std::size_t
MonitorChain::transistorCount() const
{
    std::size_t n = ro_.transistorCount() + counter_.transistorCount();
    if (divider_) {
        n += divider_->transistorCount() + shifter_.transistorCount();
        // Second level shifter for the enable signal into the RO
        // domain (Fig. 2 caption).
        n += shifter_.transistorCount();
    }
    // Digital comparator for interrupt generation (Section III-G):
    // roughly 6 transistors per counter bit.
    n += counter_.bits() * 6;
    return n;
}

} // namespace circuit
} // namespace fs
