#include "harvest/irradiance.h"

#include <algorithm>
#include <cmath>

#include "util/csv.h"
#include "util/logging.h"
#include "util/random.h"

namespace fs {
namespace harvest {

IrradianceTrace::IrradianceTrace(std::vector<double> samples, double dt)
    : samples_(std::move(samples)), dt_(dt)
{
    if (samples_.empty())
        fatal("irradiance trace needs at least one sample");
    if (dt <= 0.0)
        fatal("irradiance sample spacing must be positive");
    for (double &s : samples_)
        s = std::max(0.0, s);
}

double
IrradianceTrace::at(double t) const
{
    if (t < 0.0)
        t = 0.0;
    // Simulations query inside the trace, where fmod(t, span) is t
    // exactly; only a query at or past the end pays for the wrap.
    const double span = duration();
    if (t >= span)
        t = std::fmod(t, span);
    const double idx = t / dt_;
    auto lo = std::size_t(idx);
    const double frac = idx - double(lo);
    // t < span, so lo <= n; lo == n only when t / dt_ rounds up at the
    // last sample, and then it wraps to sample 0 like lo % n would.
    const std::size_t n = samples_.size();
    if (lo >= n)
        lo -= n;
    const std::size_t hi = lo + 1 == n ? 0 : lo + 1;
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double
IrradianceTrace::mean() const
{
    double acc = 0.0;
    for (double s : samples_)
        acc += s;
    return acc / double(samples_.size());
}

double
IrradianceTrace::peak() const
{
    return *std::max_element(samples_.begin(), samples_.end());
}

IrradianceTrace
IrradianceTrace::constant(double wpm2, double duration_s, double dt)
{
    const auto n = std::max<std::size_t>(1, std::size_t(duration_s / dt));
    return IrradianceTrace(std::vector<double>(n, wpm2), dt);
}

IrradianceTrace
IrradianceTrace::nycPedestrianNight(double duration_s, double dt,
                                    std::uint64_t seed)
{
    Rng rng(seed);
    const auto n = std::max<std::size_t>(2, std::size_t(duration_s / dt));
    std::vector<double> out(n, 0.0);

    const double ambient = 0.12; // dim urban night sky + spill light

    // Streetlight lobes: the pedestrian passes a lamp every 20-40 s;
    // each pass is a smooth lobe a few seconds wide.
    double next_lamp = rng.uniform(2.0, 10.0);
    std::vector<std::pair<double, double>> lobes; // (center, peak)
    while (next_lamp < duration_s) {
        lobes.emplace_back(next_lamp, rng.uniform(1.0, 3.0));
        next_lamp += rng.uniform(20.0, 40.0);
    }

    // Dark stretches (parks, alleys): ambient collapses.
    std::vector<std::pair<double, double>> dark; // (start, length)
    double next_dark = rng.uniform(60.0, 240.0);
    while (next_dark < duration_s) {
        dark.emplace_back(next_dark, rng.uniform(30.0, 120.0));
        next_dark += rng.uniform(240.0, 600.0);
    }

    // Only lobes with |d| < 4 contribute. Lobe centres increase, so
    // d falls along the list and rises with t: lobes left behind
    // (d >= 4) are dropped for good, and the scan stops at the first
    // lobe still ahead (d <= -4).
    const double w = 2.5; // lobe half-width (s)
    std::size_t first_lobe = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double t = double(i) * dt;
        double e = ambient;
        while (first_lobe < lobes.size() &&
               (t - lobes[first_lobe].first) / w >= 4.0)
            ++first_lobe;
        for (std::size_t k = first_lobe; k < lobes.size(); ++k) {
            const auto &[center, peak] = lobes[k];
            const double d = (t - center) / w;
            if (d <= -4.0)
                break;
            e += peak * std::exp(-d * d);
        }
        for (const auto &[start, len] : dark) {
            if (t >= start && t < start + len)
                e *= 0.05;
        }
        // Multiplicative gait/occlusion noise.
        e *= std::max(0.0, 1.0 + rng.gaussian(0.0, 0.15));
        out[i] = e;
    }
    return IrradianceTrace(std::move(out), dt);
}

IrradianceTrace
IrradianceTrace::officeLighting(double duration_s, double dt,
                                std::uint64_t seed)
{
    Rng rng(seed);
    const auto n = std::max<std::size_t>(2, std::size_t(duration_s / dt));
    std::vector<double> out(n, 0.0);
    bool lights_on = true;
    double next_toggle = rng.uniform(60.0, 300.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double t = double(i) * dt;
        if (t >= next_toggle) {
            lights_on = !lights_on;
            next_toggle =
                t + (lights_on ? rng.uniform(120.0, 600.0)
                               : rng.uniform(20.0, 90.0));
        }
        double e = lights_on ? 3.0 : 0.05;
        // Occupancy shadowing: brief dips as people pass the desk.
        if (lights_on && rng.bernoulli(0.002))
            e *= 0.3;
        e *= std::max(0.0, 1.0 + rng.gaussian(0.0, 0.05));
        out[i] = e;
    }
    return IrradianceTrace(std::move(out), dt);
}

IrradianceTrace
IrradianceTrace::outdoorDiurnal(double duration_s, double dt,
                                std::uint64_t seed)
{
    Rng rng(seed);
    const auto n = std::max<std::size_t>(2, std::size_t(duration_s / dt));
    std::vector<double> out(n, 0.0);
    double cloud = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double phase = double(i) / double(n); // one "day"
        const double sun =
            std::max(0.0, std::sin(phase * 2.0 * 3.14159265));
        // Cloud cover follows a slow random walk in [0.15, 1].
        cloud += rng.gaussian(0.0, 0.01);
        cloud = std::clamp(cloud, 0.15, 1.0);
        out[i] = 300.0 * sun * sun * cloud;
    }
    return IrradianceTrace(std::move(out), dt);
}

IrradianceTrace
IrradianceTrace::rfBursts(double duration_s, double dt,
                          std::uint64_t seed)
{
    Rng rng(seed);
    const auto n = std::max<std::size_t>(2, std::size_t(duration_s / dt));
    std::vector<double> out(n, 0.02); // near-zero ambient
    double next_burst = rng.uniform(0.5, 4.0);
    double burst_end = 0.0;
    double burst_level = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double t = double(i) * dt;
        if (t >= next_burst) {
            burst_level = rng.uniform(8.0, 25.0);
            burst_end = t + rng.uniform(0.05, 0.4);
            next_burst = burst_end + rng.uniform(0.5, 5.0);
        }
        if (t < burst_end)
            out[i] = burst_level;
    }
    return IrradianceTrace(std::move(out), dt);
}

IrradianceTrace
IrradianceTrace::fromCsv(const std::string &text, double dt)
{
    const auto rows = parseNumericCsv(text);
    if (rows.empty())
        fatal("empty irradiance CSV");
    std::vector<double> samples;
    samples.reserve(rows.size());
    for (const auto &row : rows)
        samples.push_back(row.back()); // value is the last column
    return IrradianceTrace(std::move(samples), dt);
}

} // namespace harvest
} // namespace fs
