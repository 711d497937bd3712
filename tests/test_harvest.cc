/**
 * @file
 * Unit tests for the harvesting environment: irradiance traces, the
 * solar panel, the storage capacitor, load models, the analytical
 * intermittent-system simulation, and the Table IV monitor lineup.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "harvest/checkpoint_study.h"
#include "harvest/system_comparison.h"
#include "harvest/trace_csv.h"
#include "util/hash.h"
#include "util/logging.h"

namespace fs {
namespace harvest {
namespace {

// ---------------------------------------------------------------------
// Irradiance traces
// ---------------------------------------------------------------------

TEST(IrradianceTrace, ConstantTrace)
{
    const auto trace = IrradianceTrace::constant(2.0, 10.0, 0.1);
    EXPECT_NEAR(trace.duration(), 10.0, 0.2);
    EXPECT_DOUBLE_EQ(trace.at(0.0), 2.0);
    EXPECT_DOUBLE_EQ(trace.at(5.37), 2.0);
    EXPECT_DOUBLE_EQ(trace.mean(), 2.0);
    EXPECT_DOUBLE_EQ(trace.peak(), 2.0);
}

TEST(IrradianceTrace, LinearInterpolationBetweenSamples)
{
    IrradianceTrace trace({0.0, 1.0, 2.0, 3.0}, 1.0);
    EXPECT_NEAR(trace.at(0.5), 0.5, 1e-12);
    EXPECT_NEAR(trace.at(1.25), 1.25, 1e-12);
}

TEST(IrradianceTrace, WrapsPastEnd)
{
    IrradianceTrace trace({1.0, 2.0}, 1.0);
    EXPECT_NEAR(trace.at(2.0), trace.at(0.0), 1e-12);
}

TEST(IrradianceTrace, NegativeSamplesClampedToZero)
{
    IrradianceTrace trace({-5.0, 1.0}, 1.0);
    EXPECT_DOUBLE_EQ(trace.at(0.0), 0.0);
}

/** Reference for IrradianceTrace::at: fmod and % on every call. */
double
referenceAt(const std::vector<double> &samples, double dt, double t)
{
    if (t < 0.0)
        t = 0.0;
    const double span = dt * double(samples.size());
    t = std::fmod(t, span);
    const double idx = t / dt;
    const auto lo = std::size_t(idx);
    const std::size_t hi = (lo + 1) % samples.size();
    const double frac = idx - double(lo);
    return samples[lo % samples.size()] * (1.0 - frac) +
           samples[hi] * frac;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

TEST(IrradianceTrace, AtMatchesFmodReferenceBitForBit)
{
    // The in-range path skips fmod and %; it must agree bit for bit
    // with the reference everywhere, including the edge where t just
    // below the end makes t / dt round up to the sample count.
    std::size_t edges = 0;
    for (const double dt : {0.01, 0.05, 0.1, 0.3, 0.7, 1.0}) {
        for (std::size_t n = 1; n <= 40; ++n) {
            std::vector<double> samples(n);
            for (std::size_t i = 0; i < n; ++i)
                samples[i] = 0.25 + double((i * 7919) % 13);
            const IrradianceTrace trace(samples, dt);
            const double span = trace.duration();
            std::vector<double> queries = {-1.0, -0.0, span, 2.5 * span,
                                           7.0 * span + 0.3 * dt, 1e6};
            for (std::size_t i = 0; i <= 2 * n; ++i) {
                const double t = double(i) * dt;
                queries.push_back(t);
                queries.push_back(std::nextafter(t, 1e300));
                queries.push_back(std::nextafter(t, -1e300));
                queries.push_back(t + 0.5 * dt);
            }
            const double last = std::nextafter(span, 0.0);
            queries.push_back(last);
            if (std::size_t(last / dt) == n)
                ++edges;
            for (const double t : queries)
                ASSERT_EQ(bitsOf(trace.at(t)),
                          bitsOf(referenceAt(samples, dt, t)))
                    << "dt=" << dt << " n=" << n << " t=" << t;
        }
    }
    EXPECT_GT(edges, 0u) << "no case reached the lo == n rounding edge";
}

std::uint64_t
traceDigest(const IrradianceTrace &trace)
{
    std::uint64_t h = util::kFnvOffsetBasis;
    for (std::size_t i = 0; i < trace.sampleCount(); ++i) {
        const double v = trace.at(double(i) * trace.dt());
        h = util::fnv1a64(&v, sizeof v, h);
    }
    return h;
}

TEST(IrradianceTrace, PedestrianNightGoldenDigests)
{
    // Golden values from the full-scan generator (every lobe tested at
    // every sample); the windowed scan must reproduce them exactly.
    EXPECT_EQ(traceDigest(IrradianceTrace::nycPedestrianNight(600.0, 0.05,
                                                              42)),
              0x133fa78fa40a312eull);
    EXPECT_EQ(traceDigest(IrradianceTrace::nycPedestrianNight(
                  600.0, 0.05, 20211014)),
              0x12e001d2f0bc81b9ull);
}

TEST(IrradianceTrace, PedestrianNightRegime)
{
    const auto trace = IrradianceTrace::nycPedestrianNight(600.0);
    // Dim overall with occasional streetlight peaks.
    EXPECT_GT(trace.mean(), 0.02);
    EXPECT_LT(trace.mean(), 1.0);
    EXPECT_GT(trace.peak(), 0.8);
    EXPECT_LT(trace.peak(), 5.0);
    for (double t = 0.0; t < 600.0; t += 7.3)
        EXPECT_GE(trace.at(t), 0.0);
}

TEST(IrradianceTrace, GeneratorIsDeterministicPerSeed)
{
    const auto a = IrradianceTrace::nycPedestrianNight(100.0, 0.05, 3);
    const auto b = IrradianceTrace::nycPedestrianNight(100.0, 0.05, 3);
    const auto c = IrradianceTrace::nycPedestrianNight(100.0, 0.05, 4);
    EXPECT_DOUBLE_EQ(a.at(42.0), b.at(42.0));
    EXPECT_NE(a.at(42.0), c.at(42.0));
}

TEST(IrradianceTrace, FromCsvTakesLastColumn)
{
    const auto trace =
        IrradianceTrace::fromCsv("t,irr\n0,1.5\n1,2.5\n2,0.5\n", 1.0);
    EXPECT_EQ(trace.sampleCount(), 3u);
    EXPECT_DOUBLE_EQ(trace.at(0.0), 1.5);
    EXPECT_DOUBLE_EQ(trace.at(1.0), 2.5);
}

TEST(IrradianceTrace, RejectsEmptyInput)
{
    EXPECT_THROW(IrradianceTrace({}, 1.0), FatalError);
    EXPECT_THROW(IrradianceTrace({1.0}, 0.0), FatalError);
    EXPECT_THROW(IrradianceTrace::fromCsv("", 1.0), FatalError);
}

TEST(IrradianceTrace, OfficeLightingRegime)
{
    const auto trace = IrradianceTrace::officeLighting(600.0);
    EXPECT_GT(trace.mean(), 0.5);  // lights mostly on
    EXPECT_LT(trace.mean(), 3.5);
    EXPECT_LT(trace.peak(), 4.5);
}

TEST(IrradianceTrace, OutdoorDiurnalHasDayAndNight)
{
    const auto trace = IrradianceTrace::outdoorDiurnal(600.0);
    // Near-dark at the ends, bright midday.
    EXPECT_LT(trace.at(1.0), 10.0);
    EXPECT_GT(trace.at(150.0), 30.0); // midday (quarter period)
    EXPECT_GT(trace.peak(), 100.0);
}

TEST(IrradianceTrace, RfBurstsAreSparseAndIntense)
{
    const auto trace = IrradianceTrace::rfBursts(60.0);
    EXPECT_GT(trace.peak(), 8.0);
    // Mostly idle: the mean sits far below the peak.
    EXPECT_LT(trace.mean(), 0.4 * trace.peak());
}

// ---------------------------------------------------------------------
// Solar panel
// ---------------------------------------------------------------------

TEST(SolarPanel, PaperPanelPowerMath)
{
    // 5 cm^2 at 15%: 1 W/m^2 -> 75 uW.
    SolarPanel panel;
    EXPECT_NEAR(panel.power(1.0), 75e-6, 1e-9);
    EXPECT_NEAR(panel.power(0.0), 0.0, 1e-12);
    EXPECT_NEAR(panel.power(-2.0), 0.0, 1e-12);
}

TEST(SolarPanel, CurrentDeliversPowerAtCapVoltage)
{
    SolarPanel panel;
    EXPECT_NEAR(panel.current(1.0, 2.5) * 2.5, 75e-6, 1e-9);
    // Floor voltage avoids the v=0 singularity.
    EXPECT_LT(panel.current(1.0, 0.0), 1e-3);
}

TEST(SolarPanel, RejectsBadParameters)
{
    EXPECT_THROW(SolarPanel(0.0), FatalError);
    EXPECT_THROW(SolarPanel(5.0, 1.5), FatalError);
}

// ---------------------------------------------------------------------
// Storage capacitor
// ---------------------------------------------------------------------

TEST(StorageCapacitor, IntegratesCurrent)
{
    StorageCapacitor cap(47e-6, 2.0);
    // 47 uA out for 1 s: dv = 1 V down.
    cap.step(1.0, 0.0, 47e-6);
    EXPECT_NEAR(cap.voltage(), 1.0, 1e-9);
    cap.step(0.5, 94e-6, 0.0);
    EXPECT_NEAR(cap.voltage(), 2.0, 1e-9);
}

TEST(StorageCapacitor, EnergyFormula)
{
    StorageCapacitor cap(47e-6, 3.0);
    EXPECT_NEAR(cap.energy(), 0.5 * 47e-6 * 9.0, 1e-12);
}

TEST(StorageCapacitor, ClampsAtZeroAndRail)
{
    StorageCapacitor cap(1e-6, 0.1);
    cap.step(10.0, 0.0, 1e-3);
    EXPECT_DOUBLE_EQ(cap.voltage(), 0.0);
    cap.step(1000.0, 1e-3, 0.0);
    EXPECT_DOUBLE_EQ(cap.voltage(), cap.maxVoltage());
}

TEST(StorageCapacitor, DischargeTimeMatchesHandCalc)
{
    // Paper anchor: 47 uF dropping 20 mV at ~112 uA takes ~8.4 ms.
    const double t =
        StorageCapacitor::dischargeTime(47e-6, 1.82, 1.80, 112.3e-6);
    EXPECT_NEAR(t, 47e-6 * 0.02 / 112.3e-6, 1e-9);
    EXPECT_NEAR(t, 8.4e-3, 0.3e-3);
}

// ---------------------------------------------------------------------
// Loads
// ---------------------------------------------------------------------

TEST(SystemLoad, PaperSystemCurrentAnchor)
{
    // Ideal-monitor system current in Table IV: 112.3 uA
    // (110 core + 1.8 accel + 0.5 leak).
    SystemLoad load;
    EXPECT_NEAR(load.activeCurrent(), 112.3e-6, 1e-9);
    EXPECT_DOUBLE_EQ(load.offCurrent(), 0.5e-6);
    EXPECT_DOUBLE_EQ(load.coreVmin(), 1.8);
}

TEST(SystemLoad, MonitorCurrentAdds)
{
    SystemLoad load;
    analog::AdcMonitor adc;
    EXPECT_NEAR(load.activeCurrentWith(adc), 377.3e-6, 1e-9);
    analog::ComparatorMonitor comp;
    EXPECT_NEAR(load.activeCurrentWith(comp), 147.3e-6, 1e-9);
}

// ---------------------------------------------------------------------
// Intermittent simulation and Table IV / Fig. 8 shapes
// ---------------------------------------------------------------------

class IntermittentSimTest : public ::testing::Test
{
  protected:
    IntermittentSimTest()
        // Dim enough that the harvester cannot sustain the running
        // load (a bright constant source self-stabilizes above the
        // checkpoint voltage and the system never power-cycles).
        : sim_(IrradianceTrace::constant(1.0, 120.0))
    {
    }

    IntermittentSim sim_;
};

TEST_F(IntermittentSimTest, CheckpointVoltageAnchorsFromPaper)
{
    // Table IV: ideal monitor checkpoints at ~1.82 V; the ADC's extra
    // 265 uA pushes the headroom-only threshold to ~1.87 V.
    analog::IdealMonitor ideal;
    EXPECT_NEAR(sim_.checkpointVoltage(ideal), 1.82, 0.005);
    analog::AdcMonitor adc;
    EXPECT_NEAR(sim_.idealCheckpointVoltage(adc), 1.866, 0.005);
    analog::ComparatorMonitor comp;
    EXPECT_NEAR(sim_.checkpointVoltage(comp), 1.856, 0.01);
}

TEST_F(IntermittentSimTest, BrightTraceProducesChargeDischargeCycles)
{
    analog::IdealMonitor ideal;
    const auto stats = sim_.run(ideal);
    EXPECT_GT(stats.checkpoints, 5u);
    EXPECT_EQ(stats.failedCheckpoints, 0u);
    EXPECT_GT(stats.appSeconds, 1.0);
    EXPECT_GT(stats.chargingSeconds, 1.0);
    EXPECT_NEAR(stats.simulatedSeconds, 120.0, 1.0);
    EXPECT_GT(stats.appFraction(), 0.0);
    EXPECT_LT(stats.appFraction(), 1.0);
}

TEST_F(IntermittentSimTest, MonitorOverheadOrdersAppTime)
{
    analog::IdealMonitor ideal;
    analog::ComparatorMonitor comp;
    comp.setThreshold(sim_.checkpointVoltage(comp));
    analog::AdcMonitor adc;
    const auto s_ideal = sim_.run(ideal);
    const auto s_comp = sim_.run(comp);
    const auto s_adc = sim_.run(adc);
    EXPECT_GT(s_ideal.appSeconds, s_comp.appSeconds);
    EXPECT_GT(s_comp.appSeconds, s_adc.appSeconds);
    EXPECT_EQ(s_comp.failedCheckpoints, 0u);
    EXPECT_EQ(s_adc.failedCheckpoints, 0u);
}

std::string
hexDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

TEST(IntermittentSimGolden, ShortNightScenarioPerMonitor)
{
    // Exact RunStats of a 60 s night scenario per Table IV monitor,
    // recorded before the integrator's trace lookup lost its fmod.
    struct Golden {
        const char *monitor;
        const char *systemCurrent, *resolution, *sampleRate,
            *checkpointVoltage, *appSeconds, *chargingSeconds,
            *checkpointSeconds;
        std::size_t checkpoints, failedCheckpoints;
        const char *simulatedSeconds;
    };
    const Golden golden[] = {
        {"Ideal", "0x1.d70534f326d3bp-14", "0x0p+0", "0x0p+0",
         "0x1.d1cf942bfb82dp+0", "0x1.a10d844cfee33p+2",
         "0x1.ab798c7e5991ap+5", "0x1.930be0ded290ep-5", 6, 0,
         "0x1.e00000003122ap+5"},
        {"FS (LP)", "0x1.d7c542e624959p-14", "0x1.84d4dfcc0663ep-5",
         "0x1.f4p+9", "0x1.ddf846351d0c7p+0", "0x1.97bf487fc952bp+2",
         "0x1.aca353f80043bp+5", "0x1.930be0ded290ep-5", 6, 0,
         "0x1.e00000003122ap+5"},
        {"FS (HP)", "0x1.d962e0330ad39p-14", "0x1.50551ec5d9751p-5",
         "0x1.388p+13", "0x1.dc58ae9d65ec7p+0", "0x1.92e147ae1247dp+2",
         "0x1.ad3f14123725p+5", "0x1.930be0ded290ep-5", 6, 0,
         "0x1.e00000003122ap+5"},
        {"Comparator", "0x1.34e915d8af592p-13", "0x1.eb851eb851eb8p-6",
         "0x1.71e8f83e0f83ep+21", "0x1.db0d74cf03835p+0",
         "0x1.3702de00d06f7p+2", "0x1.b8aa161e80c1fp+5",
         "0x1.d63886594aff2p-5", 7, 0, "0x1.e00000003122ap+5"},
        {"ADC", "0x1.8ba0b2928ee36p-12", "0x1.3333333333333p-12",
         "0x1.869ffffffffffp+17", "0x1.ddb5d1217876ap+0",
         "0x1.cf69446739e21p+0", "0x1.d0fe5c920262bp+5",
         "0x1.0cb295e9e1b4cp-4", 8, 0, "0x1.e00000003122ap+5"},
    };
    const IntermittentSim sim(IrradianceTrace::nycPedestrianNight(60.0,
                                                                  0.05, 5));
    auto comparator = std::make_unique<analog::ComparatorMonitor>();
    comparator->setThreshold(sim.checkpointVoltage(*comparator));
    std::unique_ptr<analog::VoltageMonitor> monitors[] = {
        std::make_unique<analog::IdealMonitor>(), makeFsLowPower(),
        makeFsHighPerformance(), std::move(comparator),
        std::make_unique<analog::AdcMonitor>()};
    for (std::size_t m = 0; m < 5; ++m) {
        const RunStats r = sim.run(*monitors[m]);
        const Golden &g = golden[m];
        EXPECT_EQ(r.monitor, g.monitor);
        EXPECT_EQ(hexDouble(r.systemCurrent), g.systemCurrent) << g.monitor;
        EXPECT_EQ(hexDouble(r.resolution), g.resolution) << g.monitor;
        EXPECT_EQ(hexDouble(r.sampleRate), g.sampleRate) << g.monitor;
        EXPECT_EQ(hexDouble(r.checkpointVoltage), g.checkpointVoltage)
            << g.monitor;
        EXPECT_EQ(hexDouble(r.appSeconds), g.appSeconds) << g.monitor;
        EXPECT_EQ(hexDouble(r.chargingSeconds), g.chargingSeconds)
            << g.monitor;
        EXPECT_EQ(hexDouble(r.checkpointSeconds), g.checkpointSeconds)
            << g.monitor;
        EXPECT_EQ(r.checkpoints, g.checkpoints) << g.monitor;
        EXPECT_EQ(r.failedCheckpoints, g.failedCheckpoints) << g.monitor;
        EXPECT_EQ(hexDouble(r.simulatedSeconds), g.simulatedSeconds)
            << g.monitor;
    }
}

TEST(SystemComparisonShape, Fig8PenaltiesInPaperBands)
{
    // Moderately bright synthetic night trace, long enough for many
    // cycles; the paper's Fig. 8 shape must hold.
    IntermittentSim sim(IrradianceTrace::nycPedestrianNight(400.0));
    SystemComparison comparison(sim);
    const auto rows = comparison.run();
    ASSERT_EQ(rows.size(), 5u);
    EXPECT_EQ(rows[0].stats.monitor, "Ideal");
    EXPECT_DOUBLE_EQ(rows[0].normalizedRuntime, 1.0);

    const double lp = rows[1].normalizedRuntime;
    const double hp = rows[2].normalizedRuntime;
    const double comp = rows[3].normalizedRuntime;
    const double adc = rows[4].normalizedRuntime;
    EXPECT_GT(lp, 0.90);
    EXPECT_GT(hp, 0.90);
    EXPECT_GT(comp, 0.60);
    EXPECT_LT(comp, 0.90);
    EXPECT_GT(adc, 0.15);
    EXPECT_LT(adc, 0.45);
    EXPECT_GT(comp, adc);
    for (const auto &row : rows)
        EXPECT_EQ(row.stats.failedCheckpoints, 0u);
}

TEST(FsOperatingPoints, LpAndHpMatchTableIvCharacter)
{
    auto lp = makeFsLowPower();
    auto hp = makeFsHighPerformance();
    EXPECT_TRUE(lp->performance().realizable);
    EXPECT_TRUE(hp->performance().realizable);
    // LP: ~50 mV at 1 kHz; HP: ~38 mV at 10 kHz (Table IV).
    EXPECT_NEAR(lp->resolution(), 50e-3, 10e-3);
    EXPECT_DOUBLE_EQ(lp->samplePeriod(), 1e-3);
    EXPECT_NEAR(hp->resolution(), 38e-3, 8e-3);
    EXPECT_DOUBLE_EQ(hp->samplePeriod(), 1e-4);
    EXPECT_LT(hp->resolution(), lp->resolution());
    EXPECT_GT(hp->meanCurrent(), lp->meanCurrent());
    // Both add far less than the comparator's 35 uA.
    EXPECT_LT(lp->meanCurrent(), 2e-6);
    EXPECT_LT(hp->meanCurrent(), 2e-6);
}

class TraceSeedRobustness
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TraceSeedRobustness, FsNeverMissesACheckpoint)
{
    // The resolution padding plus the sampling schedule must protect
    // every checkpoint regardless of the harvesting pattern.
    IntermittentSim sim(
        IrradianceTrace::nycPedestrianNight(240.0, 0.05, GetParam()));
    auto lp = makeFsLowPower();
    auto hp = makeFsHighPerformance();
    const auto s_lp = sim.run(*lp);
    const auto s_hp = sim.run(*hp);
    EXPECT_EQ(s_lp.failedCheckpoints, 0u) << "seed " << GetParam();
    EXPECT_EQ(s_hp.failedCheckpoints, 0u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceSeedRobustness,
                         ::testing::Values(1, 7, 42, 1337, 9001));

// ---------------------------------------------------------------------
// Checkpoint-strategy study (Section II-A)
// ---------------------------------------------------------------------

class CheckpointStudyTest : public ::testing::Test
{
  protected:
    CheckpointStudyTest()
        : study_(IrradianceTrace::constant(1.0, 200.0))
    {
    }

    CheckpointStudy study_;
};

TEST_F(CheckpointStudyTest, JitCommitsAtMostOncePerPowerCycle)
{
    analog::IdealMonitor ideal;
    const auto r = study_.runJustInTime(ideal);
    EXPECT_GT(r.checkpoints, 0u);
    EXPECT_LE(r.checkpoints, r.powerFailures);
    EXPECT_GT(r.efficiency(), 0.8);
}

TEST_F(CheckpointStudyTest, PeriodicPaysOverheadOrRollback)
{
    const auto frequent = study_.runPeriodic(0.05);
    const auto rare = study_.runPeriodic(5.0);
    // Frequent checkpoints: overhead dominates losses.
    EXPECT_GT(frequent.checkpointSeconds, frequent.lostSeconds);
    // Rare checkpoints: rollback dominates overhead.
    EXPECT_GT(rare.lostSeconds, rare.checkpointSeconds);
    EXPECT_GT(frequent.checkpoints, rare.checkpoints);
}

TEST_F(CheckpointStudyTest, JitWithCheapMonitorBeatsPeriodicSweep)
{
    auto fs_lp = makeFsLowPower();
    const auto jit = study_.runJustInTime(*fs_lp);
    for (double period : {0.05, 0.2, 1.0, 5.0}) {
        const auto p = study_.runPeriodic(period);
        EXPECT_GT(jit.usefulSeconds, p.usefulSeconds)
            << "period " << period;
    }
}

TEST_F(CheckpointStudyTest, EfficiencyIsAFraction)
{
    const auto r = study_.runPeriodic(0.5);
    EXPECT_GE(r.efficiency(), 0.0);
    EXPECT_LE(r.efficiency(), 1.0);
    EXPECT_NEAR(r.usefulSeconds /
                    (r.usefulSeconds + r.checkpointSeconds +
                     r.lostSeconds),
                r.efficiency(), 1e-12);
}

TEST_F(CheckpointStudyTest, RejectsNonPositivePeriod)
{
    EXPECT_DEATH(study_.runPeriodic(0.0), "period");
}

// ---------------------------------------------------------------------
// Typed environment-trace CSV loader
// ---------------------------------------------------------------------

TEST(TraceCsv, ParsesTwoColumnTrace)
{
    const TraceCsvResult r =
        parseEnvTraceCsv("0,3.0\n10,0.5\n20,2.25\n");
    ASSERT_TRUE(r.ok) << r.error.message;
    ASSERT_EQ(r.trace.sampleCount(), 3u);
    EXPECT_FALSE(r.trace.hasTemperature);
    EXPECT_DOUBLE_EQ(r.trace.duration(), 20.0);
    // Step-hold lookup, wrapping past the end.
    EXPECT_DOUBLE_EQ(r.trace.irradianceAt(0.0), 3.0);
    EXPECT_DOUBLE_EQ(r.trace.irradianceAt(9.9), 3.0);
    EXPECT_DOUBLE_EQ(r.trace.irradianceAt(10.0), 0.5);
    // Past the end the trace is periodic: t=35 wraps to t=15.
    EXPECT_DOUBLE_EQ(r.trace.irradianceAt(35.0), 0.5);
    // No temperature column: the default ambient applies.
    EXPECT_DOUBLE_EQ(r.trace.temperatureAt(0.0), 25.0);
}

TEST(TraceCsv, ParsesThreeColumnTraceWithHeaderCommentsAndCrlf)
{
    const TraceCsvResult r = parseEnvTraceCsv(
        "# measured on the roof\r\n"
        "time_s,irradiance_wpm2,temp_c\r\n"
        "0, 300.0, 21.5\r\n"
        "\r\n"
        "60,\t250.0,\t22.0\r\n");
    ASSERT_TRUE(r.ok) << r.error.message;
    ASSERT_EQ(r.trace.sampleCount(), 2u);
    EXPECT_TRUE(r.trace.hasTemperature);
    EXPECT_DOUBLE_EQ(r.trace.irradianceAt(30.0), 300.0);
    EXPECT_DOUBLE_EQ(r.trace.temperatureAt(61.0), 21.5); // wraps to t=1
}

TEST(TraceCsv, RejectsEmptyInputs)
{
    EXPECT_FALSE(parseEnvTraceCsv("").ok);
    EXPECT_EQ(parseEnvTraceCsv("").error.status,
              TraceCsvStatus::kEmpty);
    // Header/comments/blank lines only: still no data.
    const TraceCsvResult r =
        parseEnvTraceCsv("# nothing\ntime,wpm2\n\n");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error.status, TraceCsvStatus::kEmpty);
}

TEST(TraceCsv, RejectsMalformedRows)
{
    // Wrong arity.
    {
        const TraceCsvResult r = parseEnvTraceCsv("0,1\n5\n");
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.error.status, TraceCsvStatus::kBadArity);
        EXPECT_EQ(r.error.line, 2u);
    }
    // Arity must stay constant across rows.
    {
        const TraceCsvResult r = parseEnvTraceCsv("0,1\n5,2,25\n");
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.error.status, TraceCsvStatus::kBadArity);
    }
    // Trailing junk after a numeric field.
    {
        const TraceCsvResult r = parseEnvTraceCsv("0,1\n5,2.5abc\n");
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.error.status, TraceCsvStatus::kBadField);
        EXPECT_EQ(r.error.line, 2u);
    }
    // Non-numeric field in a data row (only the first row may be a
    // header).
    {
        const TraceCsvResult r = parseEnvTraceCsv("0,1\nten,2\n");
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.error.status, TraceCsvStatus::kBadField);
    }
}

TEST(TraceCsv, RejectsNonFiniteValues)
{
    const TraceCsvResult nan_row = parseEnvTraceCsv("0,nan\n");
    EXPECT_FALSE(nan_row.ok);
    EXPECT_EQ(nan_row.error.status, TraceCsvStatus::kNonFinite);
    const TraceCsvResult inf_row = parseEnvTraceCsv("0,1\n5,inf\n");
    EXPECT_FALSE(inf_row.ok);
    EXPECT_EQ(inf_row.error.status, TraceCsvStatus::kNonFinite);
}

TEST(TraceCsv, RejectsNonMonotonicTimestamps)
{
    const TraceCsvResult dup = parseEnvTraceCsv("0,1\n0,2\n");
    EXPECT_FALSE(dup.ok);
    EXPECT_EQ(dup.error.status, TraceCsvStatus::kNonMonotonic);
    const TraceCsvResult back = parseEnvTraceCsv("0,1\n10,2\n5,3\n");
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.error.status, TraceCsvStatus::kNonMonotonic);
    EXPECT_EQ(back.error.line, 3u);
}

TEST(TraceCsv, LoadsFromFileAndReportsIoError)
{
    const std::string path = testing::TempDir() + "/trace_ok.csv";
    {
        std::ofstream out(path);
        out << "0,1.5\n30,2.5\n";
    }
    const TraceCsvResult r = loadEnvTraceCsv(path);
    ASSERT_TRUE(r.ok) << r.error.message;
    EXPECT_EQ(r.trace.sampleCount(), 2u);
    std::remove(path.c_str());

    const TraceCsvResult missing =
        loadEnvTraceCsv(testing::TempDir() + "/no_such_trace.csv");
    EXPECT_FALSE(missing.ok);
    EXPECT_EQ(missing.error.status, TraceCsvStatus::kIoError);
}

} // namespace
} // namespace harvest
} // namespace fs
