/**
 * @file
 * `swarm` workload: a mixed-profile device fleet through
 * swarm::runSwarmShard, in block-aligned shards folded per profile
 * with swarm::mergeAggregates.
 *
 * The fleet mixes the night, office, diurnal and rf profiles plus a
 * seeded CSV trace profile, and every 50th device belongs to an
 * injected-anomaly cohort. No ISS runs here: the closed-form device
 * model and the streaming sketches do all the work. Gates: each
 * profile's cohort meets the 80% recall / 2% false-flag bar, and the
 * 2-shard merge of one profile byte-equals the unsharded aggregate of
 * the same device prefix.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <string>
#include <vector>

#include "bench.h"
#include "inputs.h"
#include "serve/wire.h"
#include "swarm/swarm.h"
#include "util/parallel.h"
#include "util/random.h"

namespace fsbench {

namespace {

using fs::swarm::HarvestProfile;
using fs::swarm::SwarmAggregates;
using fs::swarm::SwarmConfig;

constexpr std::uint64_t kShardBlocks = 16; ///< blocks per shard
constexpr std::uint64_t kShardDevices = kShardBlocks * fs::swarm::kSwarmBlock;
constexpr std::uint64_t kAnomalyEvery = 50;

const HarvestProfile kProfiles[] = {
    HarvestProfile::kNight, HarvestProfile::kOffice,
    HarvestProfile::kDiurnal, HarvestProfile::kRf,
    HarvestProfile::kTraceCsv};
constexpr std::size_t kProfileCount = 5;

/** A seeded irradiance/temperature trace in the swarm CSV format: a
 *  fixed two-minute light cycle with seeded noise on every sample. */
std::string
makeTraceCsv(std::uint64_t seed)
{
    fs::Rng rng(seed ^ 0x63737674726163ULL);
    std::string csv = "time_s,irradiance_wpm2,temp_c\n";
    char row[96];
    for (int t = 0; t <= 600; t += 5) {
        const double cycle = std::sin(2.0 * std::numbers::pi * t / 120.0);
        const double wpm2 =
            std::max(0.05, 2.0 + 1.5 * cycle + rng.uniform(-0.5, 0.5));
        const double temp = 22.0 + rng.uniform(-3.0, 3.0);
        std::snprintf(row, sizeof row, "%d,%.4f,%.2f\n", t, wpm2, temp);
        csv += row;
    }
    return csv;
}

std::vector<std::uint8_t>
aggregateBytes(const SwarmAggregates &agg)
{
    trace::Span s("serve.encodeResponsePayload");
    fs::serve::SwarmResult r;
    r.agg = agg;
    return fs::serve::encodeResponsePayload(fs::serve::Response{r});
}

} // namespace

std::vector<SwarmConfig>
swarmFleetConfigs(std::uint64_t seed)
{
    std::vector<SwarmConfig> cfgs;
    for (const HarvestProfile p : kProfiles) {
        SwarmConfig cfg;
        cfg.deviceCount = std::uint64_t(1) << 30;
        cfg.seed = fs::util::mixSeed(seed, std::uint64_t(p));
        cfg.profile = p;
        cfg.traceSeconds = 600.0;
        cfg.anomalyEvery = kAnomalyEvery;
        cfg.anomalyFactor = 0.25;
        if (p == HarvestProfile::kTraceCsv) {
            trace::Span s("harvest.trace_csv");
            cfg.traceCsv = makeTraceCsv(seed);
        }
        cfgs.push_back(std::move(cfg));
    }
    return cfgs;
}

void
runSwarm(const Options &opts, Result &res)
{
    fs::util::ThreadPool &pool = fs::util::ThreadPool::shared();

    // Set-up: config construction and CSV generation + parse,
    // repeated so the median is steady.
    std::vector<double> setups;
    std::vector<SwarmConfig> cfgs;
    for (int i = 0; i < 101; ++i) {
        const double t0 = nowSeconds();
        cfgs = swarmFleetConfigs(opts.seed);
        for (const SwarmConfig &cfg : cfgs) {
            trace::Span s("swarm.validateConfig");
            const std::string err = fs::swarm::validateConfig(cfg);
            if (!err.empty())
                res.check(false, "swarm config invalid: " + err);
        }
        setups.push_back(nowSeconds() - t0);
    }

    std::vector<SwarmAggregates> folded(kProfileCount);
    std::vector<std::uint64_t> next_device(kProfileCount, 0);
    SwarmAggregates two_shard; ///< profile 0..4 chosen by seed
    const std::size_t probe_profile = std::size_t(opts.seed % kProfileCount);
    std::vector<double> rates[2], slice_ms;
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
        trace::Span round_span("swarm.round");
        const double r0 = nowSeconds();
        for (std::size_t p = 0; p < kProfileCount; ++p) {
            SwarmConfig cfg = cfgs[p];
            cfg.firstDevice = next_device[p];
            cfg.spanDevices = kShardDevices;
            next_device[p] += kShardDevices;
            SwarmAggregates shard;
            {
                trace::Span s(std::string("swarm.runSwarmShard.") +
                              fs::swarm::harvestProfileName(cfg.profile));
                shard = fs::swarm::runSwarmShard(cfg, pool);
            }
            std::string err;
            {
                trace::Span s("swarm.mergeAggregates");
                err = fs::swarm::mergeAggregates(&folded[p], shard);
            }
            res.check(err.empty(), "shard merge refused: " + err);
            if (p == probe_profile && round == 1)
                two_shard = folded[p];
        }
        const double round_s = nowSeconds() - r0;
        slice_ms.push_back(round_s * 1e3);
        rates[traced ? 1 : 0].push_back(
            double(kShardDevices * kProfileCount) / round_s);
    }
    trace::setEnabled(false);
    const double end = nowSeconds();

    // Gate 1: every profile's cohort is exactly one device in 50, and
    // on the office profile -- where bench_swarm and test_swarm make
    // the claim -- it is flagged at >= 80% recall with <= 2% false
    // flags among the clean devices. Other profiles' recall is printed
    // but not gated: night, rf and trace devices can boot too rarely
    // after the drift for the timing monitor to flag them.
    std::uint64_t devices = 0, events = 0;
    for (std::size_t p = 0; p < kProfileCount; ++p) {
        const SwarmAggregates &agg = folded[p];
        const char *name = fs::swarm::harvestProfileName(kProfiles[p]);
        const std::uint64_t false_flags =
            agg.flaggedDevices - agg.flaggedInCohort;
        const std::uint64_t clean = agg.deviceCount - agg.cohortDevices;
        std::printf("%-8s %8llu devices: cohort %llu/%llu flagged "
                    "(recall %.3f), %llu false flags\n",
                    name, (unsigned long long)agg.deviceCount,
                    (unsigned long long)agg.flaggedInCohort,
                    (unsigned long long)agg.cohortDevices,
                    double(agg.flaggedInCohort) /
                        double(std::max<std::uint64_t>(1, agg.cohortDevices)),
                    (unsigned long long)false_flags);
        devices += agg.deviceCount;
        events += agg.boots + agg.checkpoints;

        std::uint64_t cohort =
            (agg.deviceCount + kAnomalyEvery - 1) / kAnomalyEvery;
        std::vector<std::uint8_t> want(8);
        for (std::size_t i = 0; i < 8; ++i)
            want[i] = std::uint8_t(cohort >> (8 * i));
        if (corrupting(opts, "swarm.anomaly"))
            flipByte(want);
        cohort = 0;
        for (std::size_t i = 0; i < 8; ++i)
            cohort |= std::uint64_t(want[i]) << (8 * i);
        res.check(agg.cohortDevices == cohort && cohort > 0,
                  std::string(name) + ": anomaly cohort is not 1 in 50");
        if (kProfiles[p] != HarvestProfile::kOffice)
            continue;
        res.check(agg.flaggedInCohort * 5 >= cohort * 4,
                  std::string(name) + ": anomaly recall below 80%");
        res.check(false_flags * 50 <= clean,
                  std::string(name) + ": false-flag rate above 2%");
    }
    res.tally(devices, 0);

    // Gate 2: the 2-shard fold equals the unsharded run of the prefix.
    {
        SwarmConfig whole = cfgs[probe_profile];
        whole.firstDevice = 0;
        whole.spanDevices = 2 * kShardDevices;
        std::vector<std::uint8_t> want;
        {
            trace::Span s("swarm.runSwarmShard.unsharded");
            want = aggregateBytes(fs::swarm::runSwarmShard(whole, pool));
        }
        if (corrupting(opts, "swarm.merge"))
            flipByte(want, want.size() / 2);
        res.check(aggregateBytes(two_shard) == want,
                  "2-shard merge differs from the unsharded aggregate");
    }

    if (opts.trace) {
        const double uncovered = trace::printLayerTable(
            "swarm", trace::snapshot(), traced_t0, end);
        res.metric("trace_uncovered_pct", 100.0 * uncovered, "%");
        reportTraceOverhead(res, median(rates[0]), median(rates[1]));
        return;
    }
    const Tail tail = tailPercentile(slice_ms);
    const double rate = median(rates[0]);
    std::printf("devices_per_s = %.1f devices/s (median of %zu rounds of "
                "%llu devices)\n"
                "setup_s = %.5f s (median of %zu)\n"
                "fleet-slice latency (one %llu-device shard of every "
                "profile): p50 %.3f ms, p%.0f %.3f ms over %zu slices\n"
                "simulated events/device = %.4f\n",
                rate, rates[0].size(),
                (unsigned long long)(kShardDevices * kProfileCount),
                median(setups), setups.size(),
                (unsigned long long)kShardDevices, median(slice_ms),
                tail.percentile, tail.value, tail.samples,
                double(events) / double(devices));
    res.metric("setup_s", median(setups), "s");
    res.metric("work_per_s", rate, "1/s");
    res.metric("latency_p50_ms", median(slice_ms), "ms");
    res.metric("latency_p99_ms", tail.value, "ms");
}

} // namespace fsbench
