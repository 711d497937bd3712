/**
 * @file
 * Tests for the gate-level transient RO simulation: the simulated
 * ring must agree edge-for-edge with the closed-form Eq. 1 model,
 * respond to supply droop within a window, expose jitter, and keep
 * back-to-back windows independent.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "circuit/transient_ro.h"
#include "util/hash.h"
#include "util/stats.h"

namespace fs {
namespace circuit {
namespace {

struct TransientCase {
    const Technology *tech;
    std::size_t stages;
    double volts;
};

class TransientRoTest : public ::testing::TestWithParam<TransientCase>
{
};

TEST_P(TransientRoTest, WindowCountMatchesAnalyticalModel)
{
    const auto [tech, stages, volts] = GetParam();
    RingOscillator ro(*tech, stages);
    TransientRo transient(ro, [v = volts](double) { return v; });

    const double t_en = 20e-6;
    const auto count = transient.runWindow(t_en);
    const double expected = ro.frequency(volts) * t_en;
    // The event simulation quantizes edges; +/-2 edges of slack
    // covers the window-boundary partial periods.
    EXPECT_NEAR(double(count), expected, 2.0)
        << tech->name() << " " << stages << " stages at " << volts;
}

INSTANTIATE_TEST_SUITE_P(
    VoltagesAndLengths, TransientRoTest,
    ::testing::Values(
        TransientCase{&Technology::node130(), 21, 0.6},
        TransientCase{&Technology::node130(), 21, 1.2},
        TransientCase{&Technology::node90(), 7, 0.8},
        TransientCase{&Technology::node90(), 21, 0.65},
        TransientCase{&Technology::node90(), 67, 1.0},
        TransientCase{&Technology::node65(), 11, 0.9}),
    [](const auto &tpi) {
        return tpi.param.tech->name().substr(0, 2) + "nm_" +
               std::to_string(tpi.param.stages) + "s_" +
               std::to_string(int(tpi.param.volts * 100)) + "cV";
    });

TEST(TransientRo, EdgePeriodMatchesFrequency)
{
    RingOscillator ro(Technology::node90(), 21);
    TransientRo transient(ro, [](double) { return 0.9; });
    transient.runWindow(50e-6);

    const auto &times = transient.edgeTimes();
    ASSERT_GE(times.size(), 10u);
    RunningStats periods;
    for (std::size_t i = 1; i < times.size(); ++i)
        periods.add(times[i] - times[i - 1]);
    EXPECT_NEAR(periods.mean(), 1.0 / ro.frequency(0.9),
                0.01 / ro.frequency(0.9));
    // Noiseless ring: periods are identical to tick resolution.
    EXPECT_LT(periods.stddev(), 2e-12);
}

TEST(TransientRo, JitterSpreadsPeriodsButKeepsMean)
{
    RingOscillator ro(Technology::node90(), 21);
    TransientRo transient(ro, [](double) { return 0.9; },
                          /*jitter_sigma=*/0.05, /*seed=*/7);
    transient.runWindow(200e-6);

    const auto &times = transient.edgeTimes();
    ASSERT_GE(times.size(), 100u);
    RunningStats periods;
    for (std::size_t i = 1; i < times.size(); ++i)
        periods.add(times[i] - times[i - 1]);
    const double nominal = 1.0 / ro.frequency(0.9);
    EXPECT_NEAR(periods.mean(), nominal, 0.02 * nominal);
    // Per-gate sigma of 5% averages down by sqrt(2n) per period.
    EXPECT_GT(periods.stddev(), 0.001 * nominal);
    EXPECT_LT(periods.stddev(), 0.05 * nominal);
}

TEST(TransientRo, DroopingSupplySlowsTheRing)
{
    RingOscillator ro(Technology::node90(), 21);
    // Rail collapses linearly from 0.9 V to 0.6 V across the window.
    const double t_en = 40e-6;
    TransientRo transient(ro, [t_en](double t) {
        return 0.9 - 0.3 * std::min(1.0, t / t_en);
    });
    const auto count = transient.runWindow(t_en);
    const double fast = ro.frequency(0.9) * t_en;
    const double slow = ro.frequency(0.6) * t_en;
    EXPECT_LT(double(count), fast);
    EXPECT_GT(double(count), slow);
}

TEST(TransientRo, DeadRailProducesNoEdges)
{
    RingOscillator ro(Technology::node90(), 21);
    TransientRo transient(ro, [](double) { return 0.05; });
    EXPECT_EQ(transient.runWindow(20e-6), 0u);
}

TEST(TransientRo, BackToBackWindowsAreIndependent)
{
    RingOscillator ro(Technology::node90(), 21);
    TransientRo transient(ro, [](double) { return 0.9; });
    const auto first = transient.runWindow(10e-6);
    const auto second = transient.runWindow(10e-6);
    EXPECT_NEAR(double(first), double(second), 1.0);
}

TEST(TransientRo, HistoryLimitBoundsMemory)
{
    RingOscillator ro(Technology::node90(), 3); // fast ring
    TransientRo transient(ro, [](double) { return 1.0; });
    transient.setHistoryLimit(64);
    transient.runWindow(100e-6);
    EXPECT_LE(transient.edgeTimes().size(), 64u);
    EXPECT_GT(transient.edgeCount(), 64u);
}

TEST(TransientRo, RejectsSillyJitter)
{
    RingOscillator ro(Technology::node90(), 21);
    EXPECT_DEATH(TransientRo(ro, [](double) { return 0.9; }, 0.9),
                 "jitter");
}

// Frozen edge streams: per case, three back-to-back 25 us windows,
// each window's edge count and one hashImage64 digest chained over
// the edgeTimes() bytes after every window. Any change to delay
// draws, window boundaries, starvation polling or history trimming
// moves a count or the digest.
struct GoldenCase {
    const char *name;
    std::size_t stages;
    double jitter;
    double (*rail)(double);
    std::size_t historyLimit;
    std::uint64_t counts[3];
    std::uint64_t digest;
};

double
steadyRail(double)
{
    return 0.9;
}

double
fastRail(double)
{
    return 1.0;
}

// 0.9 V collapsing to 0.6 V over the first 25 us, then flat.
double
droopRail(double t)
{
    return 0.9 - 0.3 * std::min(1.0, t / 25e-6);
}

// 4 us on, 2 us off: each outage starves the ring, which then polls
// the rail every 10 us and so resumes mid on-phase, skipping one.
double
onOffRail(double t)
{
    return std::fmod(t, 6e-6) < 4e-6 ? 0.9 : 0.05;
}

TEST(TransientRo, GoldenEdgeStreams)
{
    const GoldenCase cases[] = {
        {"steady", 21, 0.0, steadyRail, 4096, {307, 307, 307},
         14308672665962976755ull},
        {"steady_jitter", 21, 0.05, steadyRail, 4096, {307, 307, 307},
         2883869622900025400ull},
        {"droop", 21, 0.0, droopRail, 4096, {249, 177, 177},
         2824641700828836538ull},
        {"droop_jitter", 21, 0.05, droopRail, 4096, {249, 178, 177},
         4625795473200365626ull},
        {"on_off", 21, 0.0, onOffRail, 4096, {74, 61, 61},
         15166305809067685864ull},
        {"on_off_jitter", 21, 0.05, onOffRail, 4096, {74, 61, 62},
         5330560131572847257ull},
        {"history64", 3, 0.05, fastRail, 64, {2347, 2346, 2347},
         11945216274269087925ull},
    };
    for (const auto &c : cases) {
            RingOscillator ro(Technology::node90(), c.stages);
        TransientRo transient(ro, c.rail, c.jitter, /*seed=*/11);
        transient.setHistoryLimit(c.historyLimit);
        std::uint64_t digest = util::kFnvOffsetBasis;
        for (int w = 0; w < 3; ++w) {
            EXPECT_EQ(transient.runWindow(25e-6), c.counts[w])
                << c.name << " window " << w;
            const auto &times = transient.edgeTimes();
            digest = util::hashImage64(times.data(),
                                       times.size() * sizeof(double),
                                       digest);
        }
        EXPECT_EQ(digest, c.digest) << c.name;
    }
}

class JitterSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(JitterSweep, PeriodSpreadGrowsWithGateNoise)
{
    const double sigma = GetParam();
    RingOscillator ro(Technology::node90(), 21);
    TransientRo transient(ro, [](double) { return 0.9; }, sigma,
                          99);
    transient.runWindow(200e-6);
    const auto &times = transient.edgeTimes();
    ASSERT_GE(times.size(), 50u);
    RunningStats periods;
    for (std::size_t i = 1; i < times.size(); ++i)
        periods.add(times[i] - times[i - 1]);
    const double nominal = 1.0 / ro.frequency(0.9);
    // Per-gate sigma averages down across 2n gate delays per period:
    // expected period sigma ~ sigma / sqrt(2n).
    const double expected = sigma * nominal / std::sqrt(2.0 * 21.0);
    EXPECT_NEAR(periods.mean(), nominal, 0.03 * nominal);
    EXPECT_NEAR(periods.stddev(), expected, 0.5 * expected);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, JitterSweep,
                         ::testing::Values(0.01, 0.03, 0.08),
                         [](const auto &tpi) {
                             return "sigma" +
                                    std::to_string(int(
                                        tpi.param * 100));
                         });

} // namespace
} // namespace circuit
} // namespace fs
