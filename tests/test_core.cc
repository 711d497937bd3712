/**
 * @file
 * Unit and property tests for the core library: configuration
 * validation, the analytical performance model, the FailureSentinels
 * facade (enrollment, measurement accuracy, thresholds, process
 * variation).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "core/failure_sentinels.h"
#include "core/performance_model.h"
#include "util/logging.h"
#include "util/numeric.h"
#include "util/parallel.h"
#include "util/random.h"

namespace fs {
namespace core {
namespace {

FsConfig
lpConfig()
{
    FsConfig cfg;
    cfg.roStages = 21;
    cfg.counterBits = 8;
    cfg.enableTime = 10e-6;
    cfg.sampleRate = 1e3;
    cfg.nvmEntries = 49;
    cfg.entryBits = 8;
    return cfg;
}

FsConfig
hpConfig()
{
    FsConfig cfg;
    cfg.roStages = 9;
    cfg.counterBits = 9;
    cfg.enableTime = 7.5e-6;
    cfg.sampleRate = 10e3;
    cfg.nvmEntries = 80;
    cfg.entryBits = 8;
    return cfg;
}

// ---------------------------------------------------------------------
// FsConfig
// ---------------------------------------------------------------------

TEST(FsConfig, DefaultIsValid)
{
    EXPECT_EQ(FsConfig{}.validate(), "");
}

TEST(FsConfig, DutyCycleComputed)
{
    FsConfig cfg = lpConfig();
    EXPECT_NEAR(cfg.duty(), 0.01, 1e-12);
}

TEST(FsConfig, RejectsOutOfBoundsParameters)
{
    FsConfig cfg = lpConfig();
    cfg.roStages = 75;
    EXPECT_NE(cfg.validate().find("RO length"), std::string::npos);

    cfg = lpConfig();
    cfg.roStages = 20; // even
    EXPECT_NE(cfg.validate().find("odd"), std::string::npos);

    cfg = lpConfig();
    cfg.sampleRate = 20e3;
    EXPECT_NE(cfg.validate().find("sample rate"), std::string::npos);

    cfg = lpConfig();
    cfg.counterBits = 17;
    EXPECT_NE(cfg.validate().find("counter"), std::string::npos);

    cfg = lpConfig();
    cfg.enableTime = 2e-3;
    EXPECT_NE(cfg.validate().find("enable"), std::string::npos);

    cfg = lpConfig();
    cfg.nvmEntries = 200;
    EXPECT_NE(cfg.validate().find("NVM"), std::string::npos);

    cfg = lpConfig();
    cfg.enableTime = 1e-3;
    cfg.sampleRate = 10e3;
    EXPECT_NE(cfg.validate().find("duty"), std::string::npos);
}

TEST(FsConfig, SummaryMentionsKeyParameters)
{
    const std::string s = lpConfig().summary();
    EXPECT_NE(s.find("21-stage"), std::string::npos);
    EXPECT_NE(s.find("1kHz"), std::string::npos);
}

TEST(FsConfig, ChainSpecCarriesStructure)
{
    const auto spec = lpConfig().chainSpec(1.05);
    EXPECT_EQ(spec.roStages, 21u);
    EXPECT_EQ(spec.counterBits, 8u);
    EXPECT_EQ(spec.dividerTap, 1u);
    EXPECT_EQ(spec.dividerTotal, 3u);
    EXPECT_DOUBLE_EQ(spec.processSpeed, 1.05);
}

// ---------------------------------------------------------------------
// Performance model
// ---------------------------------------------------------------------

TEST(PerformanceModel, LowPowerConfigLandsInPaperBand)
{
    PerformanceModel model(circuit::Technology::node90());
    const auto p = model.evaluate(lpConfig());
    ASSERT_TRUE(p.realizable) << p.rejectReason;
    // Table IV FS (LP): ~50 mV at 1 kHz, a fraction of a uA.
    EXPECT_GT(p.granularity, 30e-3);
    EXPECT_LE(p.granularity, 55e-3);
    EXPECT_LT(p.meanCurrent, 0.5e-6);
    EXPECT_EQ(p.nvmBytes, 49u);
}

TEST(PerformanceModel, HighPerformanceConfigLandsInPaperBand)
{
    PerformanceModel model(circuit::Technology::node90());
    const auto p = model.evaluate(hpConfig());
    ASSERT_TRUE(p.realizable) << p.rejectReason;
    // Table IV FS (HP): ~38 mV at 10 kHz.
    EXPECT_GT(p.granularity, 25e-3);
    EXPECT_LE(p.granularity, 45e-3);
    EXPECT_LT(p.meanCurrent, 2e-6);
}

TEST(PerformanceModel, GranularityDecomposes)
{
    PerformanceModel model(circuit::Technology::node90());
    const auto p = model.evaluate(lpConfig());
    EXPECT_NEAR(p.granularity,
                p.quantizationError + p.thermalError +
                    p.interpolationError,
                1e-12);
    EXPECT_GT(p.quantizationError, 0.0);
    EXPECT_GT(p.thermalError, 0.0);
    EXPECT_GT(p.interpolationError, 0.0);
}

TEST(PerformanceModel, RejectsCounterOverflow)
{
    PerformanceModel model(circuit::Technology::node90());
    FsConfig cfg = lpConfig();
    cfg.counterBits = 4;
    const auto p = model.evaluate(cfg);
    EXPECT_FALSE(p.realizable);
    EXPECT_NE(p.rejectReason.find("overflow"), std::string::npos);
}

TEST(PerformanceModel, RejectsNonOscillatingRange)
{
    PerformanceModel model(circuit::Technology::node90());
    FsConfig cfg = lpConfig();
    cfg.vMin = 0.4; // divided RO voltage ~0.13 V: below the floor
    const auto p = model.evaluate(cfg);
    EXPECT_FALSE(p.realizable);
    EXPECT_NE(p.rejectReason.find("oscillate"), std::string::npos);
}

TEST(PerformanceModel, RejectsInvalidDesignParameters)
{
    PerformanceModel model(circuit::Technology::node90());
    FsConfig cfg = lpConfig();
    cfg.enableTime = 1e-3;
    cfg.sampleRate = 10e3;
    EXPECT_FALSE(model.evaluate(cfg).realizable);
}

TEST(PerformanceModel, LongerEnableImprovesGranularity)
{
    // Loose limits: the short-enable point exceeds the Table III
    // granularity cap by design; this test is about the trend.
    PerformanceLimits loose;
    loose.granularityMax = 1.0;
    PerformanceModel model(circuit::Technology::node90(), loose);
    FsConfig coarse = lpConfig();
    FsConfig fine = lpConfig();
    fine.enableTime = 100e-6;
    fine.counterBits = 12;
    coarse.enableTime = 5e-6;
    const auto p_fine = model.evaluate(fine);
    const auto p_coarse = model.evaluate(coarse);
    ASSERT_TRUE(p_fine.realizable) << p_fine.rejectReason;
    ASSERT_TRUE(p_coarse.realizable) << p_coarse.rejectReason;
    EXPECT_LT(p_fine.granularity, p_coarse.granularity);
    EXPECT_GT(p_fine.meanCurrent, p_coarse.meanCurrent);
}

TEST(PerformanceModel, EffectiveBitsInPaperBand)
{
    // Fig. 6: 5-6 bits over a 1.8 V dynamic range.
    PerformanceModel model(circuit::Technology::node90());
    FsConfig cfg = lpConfig();
    cfg.enableTime = 100e-6;
    cfg.counterBits = 12;
    const auto p = model.evaluate(cfg);
    ASSERT_TRUE(p.realizable);
    EXPECT_GE(p.effectiveBits(), 5.0);
    EXPECT_LE(p.effectiveBits(), 6.5);
}

/** Bucket a Performance by the check that decided it. */
std::string
rejectCategory(const Performance &p)
{
    if (p.realizable)
        return "realizable";
    static const char *const kPrefixes[] = {
        "RO does not oscillate", "transfer function not monotonic",
        "counter overflow",      "mean current above limit",
        "granularity above limit", "NVM overhead above limit",
        "transistor count above limit"};
    for (const char *prefix : kPrefixes)
        if (p.rejectReason.rfind(prefix, 0) == 0)
            return prefix;
    return "invalid design parameters";
}

template <typename T>
bool
sameBytes(const T &a, const T &b)
{
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

TEST(PerformanceModel, WarmMemoMatchesFreshModelBitForBit)
{
    // One model evaluates every config (so chain geometries repeat and
    // each later config reads the memo a first config filled); a
    // fresh model per config is the reference. The configs reach
    // every check in evaluate(), with and without the divider, and
    // are evaluated concurrently so the memo is filled under races.
    // The tight transistor limit adds its own reject category.
    PerformanceLimits tight;
    tight.transistorsMax = 400;
    const std::pair<double, double> ranges[] = {
        {1.8, 3.6}, {0.4, 3.6}, {1.0, 8.0}, {2.5, 2.0}};
    for (const auto &[limits, categories] :
         {std::pair{PerformanceLimits{}, std::size_t(8)},
          std::pair{tight, std::size_t(9)}}) {
        const PerformanceModel warm(circuit::Technology::node90(), limits);
        Rng rng(14);
        std::vector<FsConfig> cfgs(600);
        for (FsConfig &c : cfgs) {
            c.roStages = rng.bernoulli(0.1)
                             ? std::size_t(rng.uniformInt(1, 80))
                             : std::size_t(2 * rng.uniformInt(1, 36) + 1);
            c.sampleRate = rng.uniform(1e3, 10e3);
            c.counterBits = std::size_t(rng.uniformInt(1, 16));
            c.enableTime =
                std::exp(rng.uniform(std::log(1e-6), std::log(1e-3)));
            c.nvmEntries = std::size_t(rng.uniformInt(1, 128));
            c.entryBits = std::size_t(rng.uniformInt(1, 16));
            c.strategy = calib::Strategy(rng.uniformInt(0, 3));
            if (rng.bernoulli(0.5))
                c.dividerTotal = 1; // no divider
            const auto &range = ranges[rng.bernoulli(0.7)
                                           ? 0
                                           : rng.uniformInt(1, 3)];
            c.vMin = range.first;
            c.vMax = range.second;
            if (rng.bernoulli(0.3))
                c.granularityBand = 0.1 * double(rng.uniformInt(1, 5));
        }
        util::ThreadPool pool(4);
        const std::vector<Performance> got = pool.parallelMap(
            cfgs.size(),
            [&](std::size_t i) { return warm.evaluate(cfgs[i]); });
        std::map<std::string, int> seen;
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            const Performance want = PerformanceModel(
                circuit::Technology::node90(), limits).evaluate(cfgs[i]);
            const Performance &p = got[i];
            ++seen[rejectCategory(want)];
            EXPECT_EQ(p.rejectReason, want.rejectReason) << i;
            EXPECT_TRUE(sameBytes(p.realizable, want.realizable)) << i;
            EXPECT_TRUE(sameBytes(p.meanCurrent, want.meanCurrent)) << i;
            EXPECT_TRUE(sameBytes(p.sampleRate, want.sampleRate)) << i;
            EXPECT_TRUE(sameBytes(p.granularity, want.granularity)) << i;
            EXPECT_TRUE(sameBytes(p.nvmBytes, want.nvmBytes)) << i;
            EXPECT_TRUE(sameBytes(p.transistors, want.transistors)) << i;
            EXPECT_TRUE(sameBytes(p.quantizationError,
                                  want.quantizationError))
                << i;
            EXPECT_TRUE(sameBytes(p.thermalError, want.thermalError)) << i;
            EXPECT_TRUE(sameBytes(p.interpolationError,
                                  want.interpolationError))
                << i;
        }
        // Every check in evaluate() decided at least one config.
        std::string listed;
        for (const auto &[category, count] : seen)
            listed += category + "=" + std::to_string(count) + "; ";
        EXPECT_EQ(seen.size(), categories) << listed;
    }
}

class PerNodePerformance
    : public ::testing::TestWithParam<const circuit::Technology *>
{
};

FsConfig
perNodeConfig()
{
    // A slightly longer enable than the canonical 90 nm LP point so
    // the least-sensitive node (130 nm) also clears the 50 mV cap,
    // with a counter wide enough for the fastest node (65 nm).
    FsConfig cfg = lpConfig();
    cfg.enableTime = 15e-6;
    cfg.counterBits = 10;
    return cfg;
}

TEST_P(PerNodePerformance, LpClassConfigRealizableOnEveryNode)
{
    PerformanceModel model(*GetParam());
    const auto p = model.evaluate(perNodeConfig());
    ASSERT_TRUE(p.realizable)
        << GetParam()->name() << ": " << p.rejectReason;
    EXPECT_LT(p.meanCurrent, 1e-6) << GetParam()->name();
    EXPECT_LE(p.granularity, 50e-3) << GetParam()->name();
}

TEST_P(PerNodePerformance, SmallerNodesDrawLessActiveCurrent)
{
    // Section V-B's scaling claim concerns the *active* (RO dynamic)
    // draw; at deeply duty-cycled operating points the mean current
    // is leakage-dominated and leakage rises as nodes shrink, so the
    // dynamic component is the right quantity to compare.
    const circuit::MonitorChain here(
        *GetParam(), perNodeConfig().chainSpec());
    const circuit::MonitorChain at130(
        circuit::Technology::node130(), perNodeConfig().chainSpec());
    EXPECT_LE(here.activeCurrents(1.9).roDynamic,
              at130.activeCurrents(1.9).roDynamic * 1.001)
        << GetParam()->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllNodes, PerNodePerformance,
    ::testing::Values(&circuit::Technology::node130(),
                      &circuit::Technology::node90(),
                      &circuit::Technology::node65()),
    [](const auto &tpi) {
        return tpi.param->name().substr(0,
                                         tpi.param->name().size() - 2) +
               "nm";
    });

// ---------------------------------------------------------------------
// FailureSentinels facade
// ---------------------------------------------------------------------

TEST(FailureSentinels, RejectsInvalidConfiguration)
{
    FsConfig cfg = lpConfig();
    cfg.roStages = 2;
    EXPECT_THROW(FailureSentinels(circuit::Technology::node90(), cfg),
                 FatalError);
}

TEST(FailureSentinels, MeasurementRequiresEnrollment)
{
    FailureSentinels fs(circuit::Technology::node90(), lpConfig());
    EXPECT_FALSE(fs.enrolled());
    EXPECT_THROW(fs.readVoltage(2.0), FatalError);
    EXPECT_THROW(fs.measure(2.0), FatalError);
    EXPECT_THROW(fs.countThresholdFor(1.87), FatalError);
    fs.enrollDevice();
    EXPECT_TRUE(fs.enrolled());
    EXPECT_NO_THROW(fs.readVoltage(2.0));
}

TEST(FailureSentinels, MeasurementErrorWithinGranularity)
{
    // The end-to-end measurement path (sample -> convert) must stay
    // within the performance model's granularity at 25 C.
    FailureSentinels fs(circuit::Technology::node90(), lpConfig());
    fs.enrollDevice();
    const double budget = fs.performance().granularity;
    for (double v : linspace(1.8, 2.0, 40)) {
        const double err = std::fabs(fs.readVoltage(v) - v);
        EXPECT_LE(err, budget) << "at " << v << " V";
    }
}

TEST(FailureSentinels, CountsIncreaseWithVoltage)
{
    FailureSentinels fs(circuit::Technology::node90(), lpConfig());
    std::uint32_t prev = 0;
    for (double v : linspace(1.8, 3.6, 19)) {
        const auto c = fs.rawSample(v);
        EXPECT_GE(c, prev);
        prev = c;
    }
}

TEST(FailureSentinels, CountThresholdBracketsVoltage)
{
    FailureSentinels fs(circuit::Technology::node90(), lpConfig());
    fs.enrollDevice();
    const double v_ckpt = 1.87;
    const auto threshold = fs.countThresholdFor(v_ckpt);
    EXPECT_LE(fs.converter().toVoltage(threshold), v_ckpt);
    EXPECT_GT(fs.converter().toVoltage(threshold + 1), v_ckpt);
}

TEST(FailureSentinels, MonitorInterfacePassthrough)
{
    FailureSentinels fs(circuit::Technology::node90(), lpConfig(),
                        "FS (LP)");
    fs.enrollDevice();
    EXPECT_EQ(fs.name(), "FS (LP)");
    EXPECT_DOUBLE_EQ(fs.samplePeriod(), 1e-3);
    EXPECT_DOUBLE_EQ(fs.resolution(), fs.performance().granularity);
    EXPECT_DOUBLE_EQ(fs.meanCurrent(), fs.performance().meanCurrent);
    EXPECT_DOUBLE_EQ(fs.measure(2.2), fs.readVoltage(2.2));
}

TEST(FailureSentinels, MinOperatingVoltageBelowHarvesterRange)
{
    FailureSentinels fs(circuit::Technology::node90(), lpConfig());
    const double v_min = fs.minOperatingVoltage();
    EXPECT_GT(v_min, 0.3);
    EXPECT_LT(v_min, 1.8); // works across the whole 1.8-3.6 V range
}

TEST(FailureSentinels, EnrollmentAbsorbsProcessVariation)
{
    // Two chips at different process corners produce different raw
    // counts, but each chip's own enrollment keeps its measurements
    // accurate (Section III-H).
    FailureSentinels slow(circuit::Technology::node90(), lpConfig(),
                          "slow", 0.92);
    FailureSentinels fast(circuit::Technology::node90(), lpConfig(),
                          "fast", 1.08);
    slow.enrollDevice();
    fast.enrollDevice();
    EXPECT_NE(slow.rawSample(2.4), fast.rawSample(2.4));
    const double budget = slow.performance().granularity * 1.5;
    for (double v : linspace(1.85, 2.05, 20)) {
        EXPECT_LE(std::fabs(slow.readVoltage(v) - v), budget);
        EXPECT_LE(std::fabs(fast.readVoltage(v) - v), budget);
    }
}

class FacadeStrategyTest
    : public ::testing::TestWithParam<calib::Strategy>
{
};

TEST_P(FacadeStrategyTest, EveryStrategyMeasuresAccurately)
{
    FsConfig cfg = lpConfig();
    cfg.strategy = GetParam();
    FailureSentinels fs(circuit::Technology::node90(), cfg);
    fs.enrollDevice();
    EXPECT_EQ(fs.converter().name(),
              calib::strategyName(GetParam()));
    const double budget = fs.performance().granularity * 1.5;
    for (double v : linspace(1.85, 2.05, 10)) {
        EXPECT_LE(std::fabs(fs.readVoltage(v) - v), budget)
            << calib::strategyName(GetParam()) << " at " << v;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, FacadeStrategyTest,
    ::testing::Values(calib::Strategy::FullTable,
                      calib::Strategy::PiecewiseConstant,
                      calib::Strategy::PiecewiseLinear,
                      calib::Strategy::Polynomial),
    [](const auto &tpi) {
        std::string name = calib::strategyName(tpi.param);
        for (auto &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

} // namespace
} // namespace core
} // namespace fs
