/**
 * @file
 * `grade` workload: exhaustive snapshot-fork torture campaigns over
 * the crc32-4k checkpointing firmware (fault::TortureRig::runKills on
 * its default fork+converge path, shared pool).
 *
 * Each campaign builds a fresh rig (cold DBT caches and recovery
 * memo, as every real campaign starts), runs its golden pass, then
 * grades kill points uniformly spread over the clean run plus a dense
 * sweep of every commit window, in fixed-size shards the way a
 * sharded campaign is fanned out. Tear bytes and flip masks come from
 * the seed. Every kill must recover the bit-exact answer with zero
 * torn restores, and a seeded sample must match the from-boot
 * runKill() reference.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "inputs.h"
#include "fault/torture_rig.h"
#include "soc/guest_programs.h"
#include "util/parallel.h"
#include "util/random.h"

namespace fsbench {

namespace {

using fs::fault::PowerKill;
using fs::fault::TortureOutcome;
using fs::fault::TortureRig;

constexpr std::size_t kUniformPoints = 20000; ///< per campaign
constexpr std::size_t kWindowPoints = 100;    ///< per commit window
/** Kills per runKills call. Each call ends when its slowest thread
 *  does, so large shards keep a stalled host CPU from stretching every
 *  call by the length of the stall. */
constexpr std::size_t kShardPoints = 5000;
constexpr std::size_t kReferenceSample = 8;  ///< per campaign

std::vector<std::uint8_t>
outcomeBytes(const TortureOutcome &o)
{
    std::vector<std::uint8_t> b;
    const auto put = [&](std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            b.push_back(std::uint8_t(v >> (8 * i)));
    };
    put(o.killed);
    put(o.killTore);
    put(std::uint32_t(o.validSlots));
    put(std::uint32_t(o.tornSlots));
    put(o.newestSeq);
    put(o.coldRestart);
    put(o.finished);
    put(o.resultCorrect);
    put(o.result);
    return b;
}

/** The campaign's kill list: uniform points plus commit-window sweeps,
 *  in a seeded order. */
std::vector<PowerKill>
campaignKills(TortureRig &rig, std::uint64_t seed)
{
    std::vector<PowerKill> kills =
        uniformKills(rig.cleanRunCycles(), kUniformPoints, seed);
    fs::Rng rng(seed ^ 0x77696e646f77ULL);
    for (std::size_t w = 0; w < rig.checkpointCount(); ++w) {
        const fs::fault::CommitWindow win = rig.commitWindow(w);
        const std::uint64_t stride =
            std::max<std::uint64_t>(1, win.length() / kWindowPoints);
        for (std::uint64_t c = win.begin; c < win.end; c += stride) {
            PowerKill k;
            k.cycle = c;
            k.tearBytesKept = unsigned(rng.uniformInt(0, 3));
            k.tearFlipMask =
                std::uint32_t(rng.uniformInt(0, 0xffffffffLL));
            kills.push_back(k);
        }
    }
    // Seeded shuffle, so every shard samples the whole run and shard
    // latencies share one distribution.
    for (std::size_t i = kills.size(); i > 1; --i)
        std::swap(kills[i - 1],
                  kills[std::size_t(rng.uniformInt(0, std::int64_t(i) - 1))]);
    return kills;
}

struct Campaign {
    double setupS = 0.0;
    double gradeS = 0.0;
    std::size_t kills = 0;
    std::vector<double> shardMs;
};

Campaign
runCampaign(const Options &opts, std::uint64_t campaign_seed,
            Result &res)
{
    fs::util::ThreadPool &pool = fs::util::ThreadPool::shared();
    Campaign c;
    trace::Span top("fault.campaign");

    const double t0 = nowSeconds();
    std::unique_ptr<TortureRig> rig;
    const fs::soc::GuestProgram prog = gradeProgram(opts.seed);
    {
        trace::Span s("fault.TortureRig");
        rig = std::make_unique<TortureRig>(prog, gradeConfig());
    }
    {
        // Golden pass: clean-run instrumentation plus the snapshot
        // capture that runKills() performs before its first fork.
        trace::Span s("fault.golden");
        rig->cleanRunCycles();
        rig->runKills({}, &pool);
    }
    c.setupS = nowSeconds() - t0;

    const std::vector<PowerKill> kills = campaignKills(*rig, campaign_seed);
    std::vector<TortureOutcome> outcomes;
    outcomes.reserve(kills.size());
    const double g0 = nowSeconds();
    for (std::size_t at = 0; at < kills.size(); at += kShardPoints) {
        const std::vector<PowerKill> shard(
            kills.begin() + std::ptrdiff_t(at),
            kills.begin() +
                std::ptrdiff_t(std::min(kills.size(), at + kShardPoints)));
        const double s0 = nowSeconds();
        std::vector<TortureOutcome> got;
        {
            trace::Span s("fault.runKills");
            got = rig->runKills(shard, &pool);
        }
        c.shardMs.push_back((nowSeconds() - s0) * 1e3);
        outcomes.insert(outcomes.end(), got.begin(), got.end());
    }
    c.gradeS = nowSeconds() - g0;
    c.kills = kills.size();

    // Gate 1: every kill recovers the bit-exact answer, no torn slot.
    std::vector<std::uint8_t> expected(4);
    std::memcpy(expected.data(), &prog.expected, 4);
    if (corrupting(opts, "grade.result"))
        flipByte(expected);
    std::uint32_t want = 0;
    std::memcpy(&want, expected.data(), 4);
    std::uint64_t bad = 0;
    for (const TortureOutcome &o : outcomes)
        bad += (o.finished && o.result == want && o.tornSlots == 0) ? 0 : 1;
    res.tally(outcomes.size(), bad);
    if (bad)
        res.failures.push_back(std::to_string(bad) +
                               " kills recovered a wrong answer or tore");

    // Gate 2: a seeded sample matches the from-boot reference.
    fs::Rng pick(campaign_seed ^ 0x7265666572ULL);
    std::vector<std::size_t> sample;
    for (std::size_t i = 0; i < kReferenceSample; ++i)
        sample.push_back(std::size_t(
            pick.uniformInt(0, std::int64_t(kills.size()) - 1)));
    std::vector<TortureOutcome> refs;
    {
        trace::Span s("fault.runKill");
        refs = pool.parallelMap(sample.size(), [&](std::size_t i) {
            return rig->runKill(kills[sample[i]]);
        });
    }
    for (std::size_t i = 0; i < sample.size(); ++i) {
        std::vector<std::uint8_t> ref = outcomeBytes(refs[i]);
        if (corrupting(opts, "grade.reference") && i == 0)
            flipByte(ref, 32);
        res.check(outcomeBytes(outcomes[sample[i]]) == ref,
                  "forked kill #" + std::to_string(sample[i]) +
                      " differs from the from-boot reference");
    }
    return c;
}

} // namespace

fs::soc::GuestProgram
gradeProgram(std::uint64_t seed)
{
    return fs::soc::makeCrc32Program(4096, seed);
}

fs::fault::TortureConfig
gradeConfig()
{
    fs::fault::TortureConfig config;
    config.stableCycles = 60'000;
    config.lowCycles = 30'000;
    return config;
}

std::vector<PowerKill>
uniformKills(std::uint64_t span, std::size_t n, std::uint64_t seed)
{
    std::vector<PowerKill> kills;
    for (std::size_t i = 0; i < n; ++i) {
        fs::Rng rng = fs::util::rngForIndex(seed, i);
        PowerKill k;
        k.cycle = std::uint64_t(i) * span / n;
        k.tearBytesKept = unsigned(rng.uniformInt(0, 4));
        k.tearFlipMask = std::uint32_t(rng.uniformInt(0, 0xffffffffLL));
        kills.push_back(k);
    }
    return kills;
}

void
runGrade(const Options &opts, Result &res)
{
    std::vector<double> setups, rates[2], shard_ms;
    double traced_t0 = 0.0;
    const double start = nowSeconds();
    for (std::uint64_t n = 0;; ++n) {
        const double elapsed = nowSeconds() - start;
        if (elapsed >= opts.seconds && n >= 2)
            break;
        // Traced runs spend the second half of the budget traced.
        const bool traced = opts.trace && elapsed >= opts.seconds / 2;
        if (traced && !trace::enabled()) {
            trace::setEnabled(true);
            traced_t0 = nowSeconds();
        }
        const Campaign c =
            runCampaign(opts, fs::util::mixSeed(opts.seed, n), res);
        setups.push_back(c.setupS);
        rates[traced ? 1 : 0].push_back(double(c.kills) / c.gradeS);
        shard_ms.insert(shard_ms.end(), c.shardMs.begin(), c.shardMs.end());
        std::printf("campaign %llu: %zu kills, setup %.3f s, %.0f "
                    "kills/s%s\n",
                    (unsigned long long)n, c.kills, c.setupS,
                    double(c.kills) / c.gradeS, traced ? " (traced)" : "");
    }
    trace::setEnabled(false);
    const double end = nowSeconds();

    if (opts.trace) {
        const double uncovered = trace::printLayerTable(
            "grade", trace::snapshot(), traced_t0, end);
        res.metric("trace_uncovered_pct", 100.0 * uncovered, "%");
        reportTraceOverhead(res, median(rates[0]), median(rates[1]));
        return;
    }
    const Tail tail = tailPercentile(shard_ms);
    const double rate = median(rates[0]);
    std::printf("kills_per_s = %.1f kills/s (median of %zu campaigns)\n"
                "setup_s = %.4f s (median of %zu rig builds + golden "
                "passes)\n"
                "shard latency: p50 %.3f ms, p%.0f %.3f ms over %zu "
                "shards of %zu kills\n",
                rate, rates[0].size(), median(setups), setups.size(),
                median(shard_ms), tail.percentile, tail.value,
                tail.samples, kShardPoints);
    res.metric("setup_s", median(setups), "s");
    res.metric("work_per_s", rate, "1/s");
    res.metric("latency_p50_ms", median(shard_ms), "ms");
    res.metric("latency_p99_ms", tail.value, "ms");
}

} // namespace fsbench
