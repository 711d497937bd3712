/**
 * @file
 * `paper` workload: the paper-regeneration scenario grid through
 * harvest::IntermittentSim::run (Table IV, Fig. 8, the capacitor
 * sweep, the harvesting environments and the checkpoint-strategy
 * ablation) plus dse::exploreDesignSpace at 130, 90 and 65 nm, all
 * fanned across the shared pool as one task per scenario.
 *
 * The irradiance traces are drawn from the seed. Gates: the Table IV
 * and Fig. 8 shape tolerances the paper benches assert must hold. The
 * Table IV cells are also compared against the paper's published
 * values (model_err_pct in the output).
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analog/adc_monitor.h"
#include "analog/comparator_monitor.h"
#include "analog/ideal_monitor.h"
#include "bench.h"
#include "circuit/ro_frequency_cache.h"
#include "circuit/technology.h"
#include "dse/fs_design_space.h"
#include "harvest/checkpoint_study.h"
#include "harvest/system_comparison.h"
#include "inputs.h"
#include "util/parallel.h"

namespace fsbench {

using namespace fs;
using namespace fs::harvest;

namespace {

/** One published Table IV row. */
struct PaperRow {
    const char *monitor;
    double current;    ///< system current (A)
    double resolution; ///< V; 0 = not applicable (the ideal monitor)
    double vckpt;      ///< checkpoint voltage (V)
};

/** Table IV as published, in SystemComparison row order. */
const PaperRow kTable4[5] = {
    {"Ideal", 112.3e-6, 0.0, 1.82},
    {"FS (LP)", 112.5e-6, 50e-3, 1.87},
    {"FS (HP)", 113.6e-6, 38e-3, 1.86},
    {"Comparator", 147.3e-6, 30e-3, 1.86},
    {"ADC", 377.3e-6, 0.293e-3, 1.87},
};

} // namespace

std::unique_ptr<analog::VoltageMonitor>
makeMonitor(int which, const IntermittentSim &sim)
{
    switch (which) {
    case 0:
        return std::make_unique<analog::IdealMonitor>();
    case 1:
        return makeFsLowPower();
    case 2:
        return makeFsHighPerformance();
    case 3: {
        auto comp = std::make_unique<analog::ComparatorMonitor>();
        comp->setThreshold(sim.checkpointVoltage(*comp));
        return comp;
    }
    default:
        return std::make_unique<analog::AdcMonitor>();
    }
}

PaperTraces
makePaperTraces(std::uint64_t seed)
{
    const auto s = [&](std::uint64_t k) {
        return util::mixSeed(seed, k);
    };
    return PaperTraces{
        IrradianceTrace::nycPedestrianNight(600.0, 0.05, s(1)),
        IrradianceTrace::nycPedestrianNight(900.0, 0.05, s(2)),
        {IrradianceTrace::nycPedestrianNight(400.0, 0.05, s(3)),
         IrradianceTrace::officeLighting(400.0, 0.1, s(4)),
         IrradianceTrace::rfBursts(120.0, 0.01, s(5)),
         IrradianceTrace::outdoorDiurnal(400.0, 0.1, s(6))},
        IrradianceTrace::nycPedestrianNight(600.0, 0.05, s(7)),
    };
}

namespace {

/** Build the RO lookup tables the grid uses: into the process-wide
 *  registry, or as fresh throwaway tables (the timed set-up repeats). */
void
fillRoCaches(bool shared_registry)
{
    for (const circuit::Technology *tech :
         {&circuit::Technology::node130(), &circuit::Technology::node90(),
          &circuit::Technology::node65()}) {
        for (const std::size_t stages : {std::size_t(9), std::size_t(21)}) {
            if (shared_registry) {
                circuit::RoFrequencyCache::shared(
                    *tech, stages, circuit::InverterCell::Simple);
            } else {
                const circuit::RoFrequencyCache fresh(
                    *tech, stages, circuit::InverterCell::Simple);
                (void)fresh;
            }
        }
    }
}

/** Max relative error (%) of Table IV rows (in Table IV order). */
double
table4ErrorPct(const std::vector<RunStats> &rows)
{
    double worst = 0.0;
    const auto rel = [&](double got, double want) {
        worst = std::max(worst, std::fabs(got - want) / want);
    };
    for (std::size_t i = 0; i < rows.size() && i < 5; ++i) {
        rel(rows[i].systemCurrent, kTable4[i].current);
        rel(rows[i].checkpointVoltage, kTable4[i].vckpt);
        if (kTable4[i].resolution > 0.0)
            rel(rows[i].resolution, kTable4[i].resolution);
    }
    return 100.0 * worst;
}

} // namespace

void
reportModelError(Result &res)
{
    const IntermittentSim sim(IrradianceTrace::constant(1.0, 1.0));
    std::vector<RunStats> rows;
    for (int m = 0; m < 5; ++m)
        rows.push_back(sim.run(*makeMonitor(m, sim)));
    const double pct = table4ErrorPct(rows);
    std::printf("model_err_pct = %.4f %% (max relative error of the Table "
                "IV current, resolution and V_ckpt cells vs. the paper)\n",
                pct);
    res.metric("model_err_pct", pct, "%");
}

namespace {

struct Scenario {
    std::string group; ///< table4, fig8, capacitor, environments, ...
    std::function<RunStats()> run;
    RunStats stats; ///< IntermittentSim scenarios' result
    double ms = 0.0;
};

/** The full grid, in a fixed order. Checkpoint-study and DSE scenarios
 *  return an empty RunStats; only their run time is used. */
std::vector<Scenario>
makeGrid(const PaperTraces &traces, std::uint64_t seed)
{
    std::vector<Scenario> grid;
    const auto add = [&](const char *group, std::function<RunStats()> fn) {
        Scenario sc;
        sc.group = group;
        sc.run = std::move(fn);
        grid.push_back(std::move(sc));
    };
    const auto sims = [&](const char *group, IntermittentSim sim,
                          std::initializer_list<int> monitors) {
        auto shared = std::make_shared<IntermittentSim>(std::move(sim));
        for (const int m : monitors)
            add(group, [shared, m] {
                return shared->run(*makeMonitor(m, *shared));
            });
    };
    sims("table4", IntermittentSim(traces.table4), {0, 1, 2, 3, 4});
    sims("fig8", IntermittentSim(traces.fig8), {0, 1, 2, 3, 4});
    for (const double cap_uf : {2.2, 4.7, 10.0, 22.0, 47.0, 100.0}) {
        ScenarioParams params;
        params.capacitance = cap_uf * 1e-6;
        params.simStep = cap_uf < 10.0 ? 10e-6 : 50e-6;
        sims("capacitor",
             IntermittentSim(IrradianceTrace::constant(1.0, 60.0),
                             SolarPanel(), SystemLoad(), params),
             {0, 1, 2});
    }
    for (const IrradianceTrace &env : traces.environments)
        sims("environments", IntermittentSim(env), {0, 1, 3, 4});

    auto study = std::make_shared<CheckpointStudy>(traces.strategy);
    add("ckpt_strategy", [study] {
        study->runJustInTime(*makeFsLowPower());
        return RunStats{};
    });
    add("ckpt_strategy", [study] {
        study->runJustInTime(analog::AdcMonitor());
        return RunStats{};
    });
    for (const double period : {0.05, 0.1, 0.2, 0.5, 1.0, 2.0})
        add("ckpt_strategy", [study, period] {
            study->runPeriodic(period);
            return RunStats{};
        });

    for (const circuit::Technology *tech :
         {&circuit::Technology::node130(), &circuit::Technology::node90(),
          &circuit::Technology::node65()})
        add("dse", [tech, seed] {
            dse::Nsga2::Options o;
            o.populationSize = 48;
            o.generations = 24;
            o.seed = seed;
            o.threads = 1;
            dse::exploreDesignSpace(*tech, o);
            return RunStats{};
        });
    return grid;
}

/** The Table IV and Fig. 8 shape checks of the paper benches. */
void
checkShapes(const Options &opts, const std::vector<Scenario> &grid,
            Result &res)
{
    std::vector<RunStats> t4, f8;
    for (const Scenario &sc : grid) {
        if (sc.group == "table4")
            t4.push_back(sc.stats);
        if (sc.group == "fig8")
            f8.push_back(sc.stats);
    }
    // The self-test corrupts one byte of the published ideal current.
    double ideal_ref = kTable4[0].current;
    if (corrupting(opts, "paper.table4")) {
        std::vector<std::uint8_t> b(sizeof ideal_ref);
        std::memcpy(b.data(), &ideal_ref, b.size());
        flipByte(b, 6);
        std::memcpy(&ideal_ref, b.data(), b.size());
    }
    const double ideal = t4[0].systemCurrent;
    res.check(std::fabs(ideal - ideal_ref) < 0.2e-6,
              "Table IV: ideal system current not ~112.3 uA");
    res.check(t4[1].systemCurrent - ideal < 1e-6 &&
                  t4[2].systemCurrent - ideal < 1e-6,
              "Table IV: FS adds >= 1 uA");
    res.check(std::fabs(t4[3].systemCurrent - ideal - 35e-6) < 1e-6,
              "Table IV: comparator does not add ~35 uA");
    res.check(std::fabs(t4[4].systemCurrent - ideal - 265e-6) < 1e-6,
              "Table IV: ADC does not add ~265 uA");
    for (const RunStats &s : t4) {
        res.check(s.checkpointVoltage >= 1.80 && s.checkpointVoltage <= 1.92,
                  "Table IV: V_ckpt outside 1.80-1.92 V for " + s.monitor);
        res.check(s.failedCheckpoints == 0,
                  "Table IV: failed checkpoints for " + s.monitor);
    }

    std::vector<double> norm;
    for (const RunStats &s : f8)
        norm.push_back(f8[0].appSeconds > 0.0
                           ? s.appSeconds / f8[0].appSeconds
                           : 0.0);
    // The self-test corrupts one byte of the comparator band's top.
    double comp_hi = 0.85;
    if (corrupting(opts, "paper.fig8")) {
        std::vector<std::uint8_t> b(sizeof comp_hi);
        std::memcpy(b.data(), &comp_hi, b.size());
        flipByte(b, 7);
        std::memcpy(&comp_hi, b.data(), b.size());
    }
    res.check(norm[1] > 0.95, "Fig. 8: FS (LP) not within 5% of ideal");
    res.check(norm[2] > 0.95, "Fig. 8: FS (HP) not within 5% of ideal");
    res.check(norm[3] > 0.65 && norm[3] < comp_hi,
              "Fig. 8: comparator penalty outside 15-35%");
    res.check(norm[4] > 0.20 && norm[4] < 0.40,
              "Fig. 8: ADC penalty outside 60-80%");
    res.check(norm[1] > norm[3] && norm[2] > norm[3] && norm[3] > norm[4],
              "Fig. 8: ordering FS > comparator > ADC violated");
    std::printf("Fig. 8 normalized runtime: LP %.3f HP %.3f comparator "
                "%.3f ADC %.3f\n",
                norm[1], norm[2], norm[3], norm[4]);
    std::printf("Table IV cells on the seeded trace: max relative error "
                "%.4f %% vs. the paper\n",
                table4ErrorPct(t4));
}

} // namespace

void
runPaper(const Options &opts, Result &res)
{
    util::ThreadPool &pool = util::ThreadPool::shared();

    // Set-up: seeded trace generation and the RO lookup tables.
    std::vector<double> setups;
    PaperTraces traces;
    fillRoCaches(true);
    for (int i = 0; i < 7; ++i) {
        const double t0 = nowSeconds();
        {
            trace::Span s("harvest.traces");
            traces = makePaperTraces(opts.seed);
        }
        {
            trace::Span s("circuit.RoFrequencyCache");
            fillRoCaches(false);
        }
        setups.push_back(nowSeconds() - t0);
    }

    std::vector<double> rates[2], scenario_ms;
    std::vector<Scenario> last;
    double traced_t0 = 0.0;
    const double start = nowSeconds();
    for (std::uint64_t round = 0;; ++round) {
        const double elapsed = nowSeconds() - start;
        if (elapsed >= opts.seconds && round >= 2)
            break;
        const bool traced = opts.trace && elapsed >= opts.seconds / 2;
        if (traced && !trace::enabled()) {
            trace::setEnabled(true);
            traced_t0 = nowSeconds();
        }
        std::vector<Scenario> grid = makeGrid(traces, opts.seed);
        const double r0 = nowSeconds();
        {
            trace::Span round_span("harvest.grid");
            const std::uint64_t parent = round_span.id();
            pool.parallelFor(grid.size(), [&](std::size_t i) {
                Scenario &sc = grid[i];
                trace::Span s((sc.group == "dse"
                                   ? "dse.exploreDesignSpace"
                                   : "harvest.run." + sc.group),
                              parent);
                const double t0 = nowSeconds();
                sc.stats = sc.run();
                sc.ms = (nowSeconds() - t0) * 1e3;
            });
        }
        rates[traced ? 1 : 0].push_back(double(grid.size()) /
                                        (nowSeconds() - r0));
        for (const Scenario &sc : grid)
            scenario_ms.push_back(sc.ms);
        std::printf("round %llu: %zu scenarios in %.3f s%s\n",
                    (unsigned long long)round, grid.size(),
                    nowSeconds() - r0, traced ? " (traced)" : "");
        last = std::move(grid);
    }
    trace::setEnabled(false);
    const double end = nowSeconds();

    res.tally(scenario_ms.size(), 0);
    checkShapes(opts, last, res);

    if (opts.trace) {
        const double uncovered = trace::printLayerTable(
            "paper", trace::snapshot(), traced_t0, end);
        res.metric("trace_uncovered_pct", 100.0 * uncovered, "%");
        reportTraceOverhead(res, median(rates[0]), median(rates[1]));
        return;
    }
    const Tail tail = tailPercentile(scenario_ms);
    const double rate = median(rates[0]);
    std::printf("scenarios_per_s = %.3f scenarios/s (median of %zu rounds)\n"
                "setup_s = %.4f s (median of %zu)\n"
                "scenario latency: p50 %.3f ms, p%.0f %.3f ms over %zu "
                "scenario runs\n",
                rate, rates[0].size(), median(setups), setups.size(),
                median(scenario_ms), tail.percentile, tail.value,
                tail.samples);
    res.metric("setup_s", median(setups), "s");
    res.metric("work_per_s", rate, "1/s");
    res.metric("latency_p50_ms", median(scenario_ms), "ms");
    res.metric("latency_p99_ms", tail.value, "ms");
}

} // namespace fsbench
