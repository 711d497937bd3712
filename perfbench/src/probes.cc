/**
 * @file
 * Per-layer probes of a traced run: small, fixed-size calls into each
 * module's public entry points, timed from the benchmark's side. Every
 * traced run reports the same metric names whatever the workload, so
 * a later change can be traced to the layer it moved. Counts marked
 * "simulated" below are pure functions of the seed and must repeat
 * exactly; everything else is host time.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench.h"
#include "circuit/ro_frequency_cache.h"
#include "circuit/technology.h"
#include "dse/fs_design_space.h"
#include "fault/torture_rig.h"
#include "harvest/checkpoint_study.h"
#include "harvest/system_comparison.h"
#include "inputs.h"
#include "serve.h"
#include "soc/guest_programs.h"
#include "soc/soc.h"
#include "swarm/swarm.h"
#include "util/parallel.h"
#include "util/random.h"

namespace fsbench {

namespace {

using namespace fs;

/** A fresh rig with its golden pass done (set-up, untimed here). */
std::unique_ptr<fault::TortureRig>
readyRig(std::uint64_t seed, util::ThreadPool &pool)
{
    auto rig = std::make_unique<fault::TortureRig>(gradeProgram(seed),
                                                   gradeConfig());
    rig->cleanRunCycles();
    rig->runKills({}, &pool);
    return rig;
}

/** riscv + soc: the campaign program's clean schedule on a bare Soc. */
void
probeIss(const Options &opts, Result &res)
{
    const soc::GuestProgram prog = gradeProgram(opts.seed);
    const fault::TortureConfig config = gradeConfig();
    const auto monitor = harvest::makeFsLowPower();
    const double v_ckpt =
        fault::TortureRig(prog, config).checkpointVolts();
    const std::uint32_t threshold = monitor->countThresholdFor(v_ckpt);

    const auto make_soc = [&](std::shared_ptr<double> volts) {
        soc::CheckpointLayout layout;
        layout.sramSize = config.sramSize;
        auto sys = std::make_unique<soc::Soc>(
            *monitor, [volts](double) { return *volts; }, layout);
        sys->loadRuntime(threshold);
        sys->loadGuest(prog);
        return sys;
    };

    std::vector<double> mips;
    riscv::DbtStats dbt;
    const double start = nowSeconds();
    while (mips.size() < 5 || nowSeconds() - start < 0.5) {
        auto volts = std::make_shared<double>(config.stableVolts);
        auto sys = make_soc(volts);
        trace::Span s("riscv.clean_run");
        const double t0 = nowSeconds();
        sys->powerOn();
        for (std::size_t c = 0; c < config.maxPowerCycles; ++c) {
            *volts = config.stableVolts;
            sys->run(config.stableCycles);
            if (sys->appFinished())
                break;
            *volts = v_ckpt - 0.02;
            sys->run(config.lowCycles);
            if (sys->appFinished())
                break;
            sys->powerFail();
            sys->powerOn();
        }
        const double secs = nowSeconds() - t0;
        res.check(sys->appFinished() &&
                      sys->guestResult(prog) == prog.expected,
                  "riscv probe: clean run got a wrong answer");
        mips.push_back(double(sys->hart().instructionsRetired()) / secs /
                       1e6);
        dbt = sys->hart().dbtCache().stats();
    }
    res.metric("riscv.guest_mips", median(mips), "MIPS");
    res.metric("riscv.dbt_translations", double(dbt.translations), "count");
    res.metric("riscv.dbt_chain_transfers", double(dbt.chainTransfers),
               "count");
    res.metric("riscv.dbt_dispatch_exits", double(dbt.dispatchExits),
               "count");
    res.metric("riscv.dbt_flushes", double(dbt.flushes), "count");

    // Snapshots: a copy-on-write chain along the stable phase, then
    // every one restored into a second SoC.
    auto volts = std::make_shared<double>(config.stableVolts);
    auto sys = make_soc(volts);
    auto other = make_soc(std::make_shared<double>(config.stableVolts));
    sys->powerOn();
    std::vector<soc::Snapshot> snaps;
    std::vector<double> save_us, restore_us;
    for (int i = 0; i < 64 && !sys->appFinished(); ++i) {
        sys->run(2048);
        const double t0 = nowSeconds();
        snaps.push_back(sys->saveSnapshot(snaps.empty() ? nullptr
                                                        : &snaps.back()));
        save_us.push_back((nowSeconds() - t0) * 1e6);
    }
    for (int rep = 0; rep < 4; ++rep)
        for (const soc::Snapshot &snap : snaps) {
            const double t0 = nowSeconds();
            other->restoreSnapshot(snap);
            restore_us.push_back((nowSeconds() - t0) * 1e6);
        }
    res.metric("soc.snapshot_save_us", median(save_us), "us");
    res.metric("soc.snapshot_restore_us", median(restore_us), "us");
}

void
probeFault(const Options &opts, Result &res)
{
    util::ThreadPool one(1);
    std::vector<double> golden_ms;
    for (int i = 0; i < 5; ++i) {
        const double t0 = nowSeconds();
        readyRig(opts.seed, one);
        golden_ms.push_back((nowSeconds() - t0) * 1e3);
    }
    res.metric("fault.golden_ms", median(golden_ms), "ms");

    // Single-kill batches at 1 thread, cold rig.
    {
        auto rig = readyRig(opts.seed, one);
        Rng rng(opts.seed ^ 0x666f726bULL);
        std::vector<double> us;
        for (int i = 0; i < 400; ++i) {
            fault::PowerKill k;
            k.cycle = std::uint64_t(rng.uniformInt(
                0, std::int64_t(rig->cleanRunCycles()) - 1));
            k.tearBytesKept = unsigned(rng.uniformInt(0, 4));
            k.tearFlipMask = std::uint32_t(rng.uniformInt(0, 0xffffffffLL));
            const double t0 = nowSeconds();
            rig->runKills({k}, &one);
            us.push_back((nowSeconds() - t0) * 1e6);
        }
        const Tail tail = tailPercentile(us);
        res.metric("fault.fork_kill_us_p50", median(us), "us");
        res.metric("fault.fork_kill_us_p99", tail.value, "us");
    }

    // Memo accounting on a 1-thread campaign (exact at 1 thread).
    auto rig = readyRig(opts.seed, one);
    const std::size_t n = 3000;
    rig->runKills(uniformKills(rig->cleanRunCycles(), n, opts.seed), &one);
    const fault::ConvergeStats cs = rig->convergeStats();
    res.metric("fault.memo_hit_ratio", double(cs.memoHits) / double(n),
               "ratio");
    res.metric("fault.memo_entries", double(cs.memoEntries), "count");
    res.metric("fault.golden_snapshots", double(cs.goldenSnapshots), "count");
    res.metric("fault.snapshot_mb",
               double(rig->snapshotMemoryBytes()) / (1024.0 * 1024.0), "MiB");
}

/** The swarm workload's config for profile `p`. */
swarm::SwarmConfig
fleetConfig(std::uint64_t seed, swarm::HarvestProfile p)
{
    for (const swarm::SwarmConfig &cfg : swarmFleetConfigs(seed))
        if (cfg.profile == p)
            return cfg;
    return {};
}

void
probeSwarm(const Options &opts, Result &res)
{
    util::ThreadPool one(1);
    const std::uint64_t devices = 2 * swarm::kSwarmBlock;
    double total_s = 0.0;
    std::uint64_t events = 0, total_devices = 0;
    for (swarm::SwarmConfig cfg : swarmFleetConfigs(opts.seed)) {
        cfg.spanDevices = devices;
        const double t0 = nowSeconds();
        const swarm::SwarmAggregates agg = swarm::runSwarmShard(cfg, one);
        const double secs = nowSeconds() - t0;
        const std::string name =
            cfg.profile == swarm::HarvestProfile::kTraceCsv
                ? "trace_csv"
                : swarm::harvestProfileName(cfg.profile);
        res.metric("swarm.device_us." + name,
                   secs / double(devices) * 1e6, "us");
        total_s += secs;
        events += agg.boots + agg.checkpoints;
        total_devices += devices;
    }
    res.metric("swarm.ns_per_event", total_s / double(events) * 1e9, "ns");
    res.metric("swarm.events_per_device",
               double(events) / double(total_devices), "count");

    swarm::SwarmConfig cfg =
        fleetConfig(opts.seed, swarm::HarvestProfile::kOffice);
    cfg.spanDevices = swarm::kSwarmBlock;
    const swarm::SwarmAggregates a = swarm::runSwarmShard(cfg, one);
    cfg.firstDevice = swarm::kSwarmBlock;
    const swarm::SwarmAggregates b = swarm::runSwarmShard(cfg, one);
    std::vector<double> merge_us, fixed_us;
    for (int i = 0; i < 200; ++i) {
        swarm::SwarmAggregates into = a;
        const double t0 = nowSeconds();
        const std::string err = swarm::mergeAggregates(&into, b);
        merge_us.push_back((nowSeconds() - t0) * 1e6);
        res.check(err.empty(), "swarm probe: merge refused: " + err);
    }
    // One-block shard holding a single device: the fixed per-shard
    // cost (config validation, aggregate set-up and fold).
    cfg.deviceCount = 1;
    cfg.firstDevice = 0;
    cfg.spanDevices = 0;
    for (int i = 0; i < 100; ++i) {
        const double t0 = nowSeconds();
        swarm::runSwarmShard(cfg, one);
        fixed_us.push_back((nowSeconds() - t0) * 1e6);
    }
    res.metric("swarm.merge_us", median(merge_us), "us");
    res.metric("swarm.shard_fixed_us", median(fixed_us), "us");
}

void
probeHarvest(const Options &opts, Result &res)
{
    using namespace fs::harvest;
    std::vector<double> gen_ms, ro_ms;
    PaperTraces traces;
    for (int i = 0; i < 3; ++i) {
        const double t0 = nowSeconds();
        traces = makePaperTraces(opts.seed);
        gen_ms.push_back((nowSeconds() - t0) * 1e3);
    }
    for (int i = 0; i < 5; ++i) {
        const double t0 = nowSeconds();
        const circuit::RoFrequencyCache fresh(
            circuit::Technology::node90(), 21, circuit::InverterCell::Simple);
        ro_ms.push_back((nowSeconds() - t0) * 1e3);
    }
    res.metric("harvest.trace_gen_ms", median(gen_ms), "ms");
    res.metric("circuit.ro_cache_build_ms", median(ro_ms), "ms");

    // One representative scenario per group, FS (LP) where a monitor
    // is involved; each run is one IntermittentSim::run (or the
    // checkpoint study's just-in-time run on the same integrator).
    double steps = 0.0, secs_total = 0.0;
    std::size_t ckpts = 0, failed = 0;
    const auto sim_group = [&](const char *group, const IntermittentSim &sim) {
        const auto mon = makeMonitor(1, sim);
        const double t0 = nowSeconds();
        const RunStats s = sim.run(*mon);
        const double secs = nowSeconds() - t0;
        res.metric(std::string("harvest.run_ms.") + group, secs * 1e3, "ms");
        steps += s.simulatedSeconds / sim.params().simStep;
        secs_total += secs;
        ckpts += s.checkpoints;
        failed += s.failedCheckpoints;
    };
    sim_group("table4", IntermittentSim(traces.table4));
    sim_group("fig8", IntermittentSim(traces.fig8));
    {
        ScenarioParams params;
        params.capacitance = 4.7e-6;
        params.simStep = 10e-6;
        sim_group("capacitor",
                  IntermittentSim(IrradianceTrace::constant(1.0, 60.0),
                                  SolarPanel(), SystemLoad(), params));
    }
    sim_group("environments", IntermittentSim(traces.environments[1]));
    {
        const CheckpointStudy study(traces.strategy);
        const auto mon = makeFsLowPower();
        const double t0 = nowSeconds();
        const StrategyResult r = study.runJustInTime(*mon);
        res.metric("harvest.run_ms.ckpt_strategy",
                   (nowSeconds() - t0) * 1e3, "ms");
        ckpts += r.checkpoints;
    }
    res.metric("harvest.steps_per_s", steps / secs_total, "1/s");
    res.metric("harvest.checkpoints", double(ckpts), "count");
    res.metric("harvest.failed_checkpoints", double(failed), "count");
}

void
probeDse(const Options &opts, Result &res)
{
    const dse::FsDesignSpace space(circuit::Technology::node90());
    dse::Nsga2::Options o;
    o.populationSize = 48;
    o.generations = 24;
    o.seed = opts.seed;
    o.threads = 1;
    dse::Nsga2 optimizer(space, o);
    const double t0 = nowSeconds();
    optimizer.run();
    const double secs = nowSeconds() - t0;
    std::size_t front = 0;
    for (const auto &ind : optimizer.paretoFront())
        front += ind.eval.feasible ? 1 : 0;
    res.metric("dse.evals_per_s", double(optimizer.evaluations()) / secs,
               "1/s");
    res.metric("dse.front_size", double(front), "count");
}

void
probeServe(const Options &opts, Result &res)
{
    const SessionConfig cfg = sessionConfig(opts, 2.0, 1);
    const SessionResult s = runSession(cfg);
    if (!res.check(s.error.empty(), "serve probe: fleet start failed"))
        return;
    const Verification v = verifySession(cfg, s, false);
    res.check(v.mismatched == 0 && s.repeatMismatches == 0,
              "serve probe: routed replies differ from direct execution");

    std::vector<std::vector<double>> by_kind(7);
    std::map<std::uint64_t, double> exec;
    for (const auto &[base, ms] : v.execMs) {
        by_kind[baseRequest(cfg.seed, base).index()].push_back(ms);
        exec[base] = ms;
    }
    for (std::size_t k = 0; k < 7; ++k)
        res.metric(std::string("serve.exec_ms.") + kKindNames[k],
                   median(by_kind[k]), "ms");
    res.metric("serve.encode_us", median(s.encodeUs), "us");
    res.metric("serve.decode_us", median(s.decodeUs), "us");
    res.metric("serve.cache_hit_ratio",
               double(s.cache.hits) /
                   double(std::max<std::uint64_t>(
                       1, s.cache.hits + s.cache.misses)),
               "ratio");
    res.metric("serve.batches", double(s.server.batches), "count");
    res.metric("serve.max_batch", double(s.server.maxBatch), "count");
    res.metric("serve.batch_dups", double(s.server.batchDuplicates),
               "count");

    // Routed minus direct time, on each request's first occurrence.
    std::vector<double> overhead;
    std::map<std::uint64_t, bool> seen;
    for (const Completed &c : s.done)
        if (c.ok && !seen[c.base]) {
            seen[c.base] = true;
            overhead.push_back(c.latencyMs - exec[c.base]);
        }
    res.metric("fleet.overhead_ms_p50", median(overhead), "ms");
    res.metric("fleet.overhead_ms_p99", tailPercentile(overhead).value, "ms");
    std::uint64_t total = 0, most = 0;
    for (const std::uint64_t n : s.perWorkerRequests) {
        total += n;
        most = std::max(most, n);
    }
    res.metric("fleet.worker_share_max",
               double(most) / double(std::max<std::uint64_t>(1, total)),
               "ratio");
    res.metric("fleet.retries", double(s.router.retries), "count");
    res.metric("fleet.hedges", double(s.router.hedges), "count");
    res.metric("fleet.pooled_reuses", double(s.router.pooledReuses), "count");
    res.metric("fleet.typed_errors", double(s.router.typedErrors), "count");
}

void
probeParallel(const Options &opts, Result &res)
{
    util::ThreadPool &shared = util::ThreadPool::shared();
    util::ThreadPool one(1);
    const double n = double(shared.threadCount());

    const auto grade_rate = [&](util::ThreadPool &pool) {
        auto rig = readyRig(opts.seed, pool);
        const auto kills = uniformKills(rig->cleanRunCycles(), 4000,
                                        opts.seed ^ 0x70617261ULL);
        const double t0 = nowSeconds();
        rig->runKills(kills, &pool);
        return double(kills.size()) / (nowSeconds() - t0);
    };
    const double g1 = grade_rate(one), gn = grade_rate(shared);
    res.metric("parallel.efficiency.grade", gn / (n * g1), "ratio");

    const auto swarm_rate = [&](util::ThreadPool &pool) {
        swarm::SwarmConfig cfg =
            fleetConfig(opts.seed, swarm::HarvestProfile::kOffice);
        cfg.spanDevices = 16 * swarm::kSwarmBlock;
        const double t0 = nowSeconds();
        swarm::runSwarmShard(cfg, pool);
        return double(cfg.spanDevices) / (nowSeconds() - t0);
    };
    const double s1 = swarm_rate(one), sn = swarm_rate(shared);
    res.metric("parallel.efficiency.swarm", sn / (n * s1), "ratio");
    std::printf("parallel efficiency (rate at %zu threads / (%zu x "
                "1-thread rate)): grade %.3f, swarm %.3f\n",
                shared.threadCount(), shared.threadCount(), gn / (n * g1),
                sn / (n * s1));
}

} // namespace

void
runLayerProbes(const Options &opts, Result &res)
{
    const std::pair<const char *, void (*)(const Options &, Result &)>
        probes[] = {{"riscv+soc", probeIss},   {"fault", probeFault},
                    {"swarm", probeSwarm},     {"harvest+circuit", probeHarvest},
                    {"dse", probeDse},         {"serve+fleet", probeServe},
                    {"parallel", probeParallel}};
    std::printf("\n-- layer probes (host time unless marked count) --\n");
    for (const auto &[name, fn] : probes) {
        const std::size_t first = res.metrics.size();
        const double t0 = nowSeconds();
        fn(opts, res);
        std::printf("[%s] %.2f s\n", name, nowSeconds() - t0);
        for (std::size_t i = first; i < res.metrics.size(); ++i)
            std::printf("  %-30s %14.6g %s\n", res.metrics[i].name.c_str(),
                        res.metrics[i].value, res.metrics[i].unit.c_str());
    }
}

} // namespace fsbench
