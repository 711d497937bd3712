/**
 * @file
 * fs_client: command-line client for the fs_served daemon.
 *
 * Builds one typed job from the command line, runs it either against
 * a daemon (--endpoint, or FS_SERVE_SOCKET) or fully in-process
 * (--local), and prints a deterministic key=value rendering of the
 * response. Because the engine is byte-deterministic, the rendering
 * of a served response diffs clean against the same job run with
 * --local -- the CI smoke job relies on exactly that.
 *
 *   fs_client --endpoint /tmp/fs.sock ro-sweep --tech 90nm
 *   fs_client --local dse --pop 24 --gens 4
 *   fs_client guest --workload matmul --a 12
 *
 * Exit codes: 0 = response printed, 1 = error response or transport
 * failure, 2 = usage error.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lint_images.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "swarm/audit_log.h"
#include "swarm/swarm.h"
#include "util/env.h"
#include "util/hash.h"

namespace {

using namespace fs::serve;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: fs_client [--endpoint EP] [--local] [--threads N] JOB"
        " [job options]\n"
        "  EP defaults to $FS_SERVE_SOCKET; --local runs in-process\n"
        "jobs:\n"
        "  ro-sweep     [--tech T --stages N --cell simple|starved\n"
        "                --speed F --temp C --vstart V --vend V"
        " --vstep V]\n"
        "  design-point [--tech T --ro-stages N --sample-rate F\n"
        "                --counter-bits N --enable-us F"
        " --nvm-entries N\n"
        "                --entry-bits N --divider-tap N"
        " --divider-total N\n"
        "                --strategy 0..3]\n"
        "  dse          [--tech T --pop N --gens N --seed N\n"
        "                --fixed-rate F --explore-divider]\n"
        "  torture      [--workload crc32|fir|sort|matmul --a N --b N\n"
        "                --wseed N --sram N --stable N --low N"
        " --seed N\n"
        "                --kills-per-window N --random-kills N\n"
        "                --exhaustive N --offset N --count N"
        " --coverage]\n"
        "  campaign     [torture options --exhaustive N --shards K\n"
        "                --digest --coverage-json FILE]"
        " (sharded fan-out)\n"
        "  guest        [--workload ... --a N --b N --wseed N"
        " --no-trace]\n"
        "               (--no-trace: interpreter only, DBT off)\n"
        "  lint         [--image NAME --no-pruning]"
        " (names: fs_lint --list)\n"
        "  swarm        [--devices N --seed N --profile"
        " night|office|diurnal|rf\n"
        "                --trace FILE --trace-seconds F"
        " --segment-seconds F\n"
        "                --ckpt-period F --z F --warmup N --trips N\n"
        "                --anomaly-every N --anomaly-factor F"
        " --shards K\n"
        "                --audit PATH (audit needs --local)]\n"
        "  audit-verify --log PATH [--json FILE]"
        " (exit 0 iff chain ok)\n");
    return 2;
}

bool
parseWorkload(const std::string &name, WorkloadSpec &spec)
{
    if (name == "crc32")
        spec.kind = WorkloadSpec::Kind::kCrc32;
    else if (name == "fir")
        spec.kind = WorkloadSpec::Kind::kFir;
    else if (name == "sort")
        spec.kind = WorkloadSpec::Kind::kSort;
    else if (name == "matmul")
        spec.kind = WorkloadSpec::Kind::kMatmul;
    else
        return false;
    return true;
}

void
printDouble(const char *key, double v)
{
    std::printf("%s=%.17g\n", key, v);
}

void
printConfig(const char *prefix, const ConfigWire &c)
{
    std::printf("%sro_stages=%llu\n", prefix,
                (unsigned long long)c.roStages);
    std::printf("%ssample_rate=%.17g\n", prefix, c.sampleRate);
    std::printf("%scounter_bits=%llu\n", prefix,
                (unsigned long long)c.counterBits);
    std::printf("%senable_time=%.17g\n", prefix, c.enableTime);
    std::printf("%snvm_entries=%llu\n", prefix,
                (unsigned long long)c.nvmEntries);
    std::printf("%sentry_bits=%llu\n", prefix,
                (unsigned long long)c.entryBits);
    std::printf("%sdivider_tap=%llu\n", prefix,
                (unsigned long long)c.dividerTap);
    std::printf("%sdivider_total=%llu\n", prefix,
                (unsigned long long)c.dividerTotal);
    std::printf("%sstrategy=%u\n", prefix, unsigned(c.strategy));
}

void
printPerf(const char *prefix, const fs::core::Performance &p)
{
    std::printf("%srealizable=%u\n", prefix, unsigned(p.realizable));
    std::printf("%sreject_reason=%s\n", prefix,
                p.rejectReason.c_str());
    std::printf("%smean_current=%.17g\n", prefix, p.meanCurrent);
    std::printf("%ssample_rate=%.17g\n", prefix, p.sampleRate);
    std::printf("%sgranularity=%.17g\n", prefix, p.granularity);
    std::printf("%snvm_bytes=%llu\n", prefix,
                (unsigned long long)p.nvmBytes);
    std::printf("%stransistors=%llu\n", prefix,
                (unsigned long long)p.transistors);
    std::printf("%squantization_error=%.17g\n", prefix,
                p.quantizationError);
    std::printf("%sthermal_error=%.17g\n", prefix, p.thermalError);
    std::printf("%sinterpolation_error=%.17g\n", prefix,
                p.interpolationError);
}

/** Render per-kill records as one FNV digest instead of one line
 *  each (10^6-point campaigns would otherwise print 10^6 lines). */
bool g_digest = false;
/** When non-empty, also write the coverage map as JSON to this file. */
std::string g_coverage_json;

void
writeCoverageJson(const TortureResult &t)
{
    std::FILE *f = std::fopen(g_coverage_json.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "fs_client: cannot write %s\n",
                     g_coverage_json.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"points\": %u,\n  \"coverage\": [\n",
                 t.points);
    for (std::size_t i = 0; i < t.coverage.size(); ++i) {
        const TortureCoverageWire &c = t.coverage[i];
        std::fprintf(f,
                     "    {\"addr\": %u, \"class\": %u, \"rank\": %u, "
                     "\"points\": %u, \"killed\": %u, \"correct\": %u, "
                     "\"incorrect\": %u, \"cold_restarts\": %u, "
                     "\"kill_tears\": %u}%s\n",
                     c.addr, unsigned(c.cls), c.rank, c.points,
                     c.killed, c.correct, c.incorrect, c.coldRestarts,
                     c.killTears,
                     i + 1 < t.coverage.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

void
printRunningStats(const char *name, const fs::RunningStats &s)
{
    std::printf("%s.count=%zu\n", name, s.count());
    std::printf("%s.mean=%.17g\n", name, s.mean());
    std::printf("%s.stddev=%.17g\n", name, s.stddev());
    std::printf("%s.min=%.17g\n", name, s.min());
    std::printf("%s.max=%.17g\n", name, s.max());
}

void
printLogHistogram(const char *name, const fs::LogHistogram &h)
{
    std::printf("%s.total=%llu\n", name,
                (unsigned long long)h.total());
    std::printf("%s.underflow=%llu\n", name,
                (unsigned long long)h.underflow());
    std::printf("%s.overflow=%llu\n", name,
                (unsigned long long)h.overflow());
    std::printf("%s.p50=%.17g\n", name, h.quantile(0.50));
    std::printf("%s.p90=%.17g\n", name, h.quantile(0.90));
    std::printf("%s.p99=%.17g\n", name, h.quantile(0.99));
}

/**
 * Deterministic swarm rendering. The digest is the FNV of the
 * canonical response payload bytes, so a fleet-sharded merge diffs
 * clean against an unsharded in-process run iff the aggregates are
 * byte-identical.
 */
int
printSwarmResult(const SwarmResult &s)
{
    const fs::swarm::SwarmAggregates &a = s.agg;
    std::printf("swarm devices=%llu\n",
                (unsigned long long)a.deviceCount);
    std::printf("blocks=%zu\n", a.blocks.size());
    std::printf("boots=%llu\n", (unsigned long long)a.boots);
    std::printf("checkpoints=%llu\n",
                (unsigned long long)a.checkpoints);
    std::printf("failed_checkpoints=%llu\n",
                (unsigned long long)a.failedCheckpoints);
    std::printf("flagged_devices=%llu\n",
                (unsigned long long)a.flaggedDevices);
    std::printf("cohort_devices=%llu\n",
                (unsigned long long)a.cohortDevices);
    std::printf("flagged_in_cohort=%llu\n",
                (unsigned long long)a.flaggedInCohort);
    std::printf("never_booted=%llu\n",
                (unsigned long long)a.neverBooted);
    const fs::swarm::BlockStats folded = a.foldStats();
    printRunningStats("lifetime", folded.lifetime);
    printRunningStats("cadence", folded.cadence);
    printRunningStats("dead", folded.dead);
    printLogHistogram("lifetime_hist", a.lifetimeHist);
    printLogHistogram("cadence_hist", a.cadenceHist);
    printLogHistogram("dead_hist", a.deadHist);
    std::printf("lifetime_sample.n=%zu\n",
                a.lifetimeSample.sorted().size());
    std::printf("cadence_sample.n=%zu\n",
                a.cadenceSample.sorted().size());
    std::printf("dead_sample.n=%zu\n", a.deadSample.sorted().size());
    const std::vector<std::uint8_t> bytes =
        encodeResponsePayload(Response{s});
    std::printf("aggregate_digest=%016llx\n",
                (unsigned long long)fs::util::fnv1a64(bytes.data(),
                                                      bytes.size()));
    return 0;
}

/** Deterministic rendering; identical for served and --local runs. */
int
printResponse(const Response &resp)
{
    if (const auto *e = std::get_if<ErrorResult>(&resp)) {
        std::printf("error code=%u message=%s\n", unsigned(e->code),
                    e->message.c_str());
        return 1;
    }
    if (const auto *ro = std::get_if<RoSweepResult>(&resp)) {
        std::printf("ro-sweep points=%zu\n",
                    ro->frequenciesHz.size());
        for (std::size_t i = 0; i < ro->frequenciesHz.size(); ++i)
            std::printf("f[%zu]=%.17g\n", i, ro->frequenciesHz[i]);
        return 0;
    }
    if (const auto *dp = std::get_if<DesignPointResult>(&resp)) {
        std::printf("design-point\n");
        printPerf("perf.", dp->perf);
        return 0;
    }
    if (const auto *dse = std::get_if<DseShardResult>(&resp)) {
        std::printf("dse front=%zu\n", dse->front.size());
        for (std::size_t i = 0; i < dse->front.size(); ++i) {
            char prefix[48];
            std::snprintf(prefix, sizeof prefix, "p%zu.config.", i);
            printConfig(prefix, dse->front[i].config);
            std::snprintf(prefix, sizeof prefix, "p%zu.perf.", i);
            printPerf(prefix, dse->front[i].perf);
        }
        return 0;
    }
    if (const auto *t = std::get_if<TortureResult>(&resp)) {
        std::printf("torture points=%u\n", t->points);
        std::printf("clean_cycles=%llu\n",
                    (unsigned long long)t->cleanCycles);
        std::printf("checkpoints=%u\n", t->checkpoints);
        printDouble("checkpoint_volts", t->checkpointVolts);
        std::printf("killed=%u\n", t->killed);
        std::printf("kill_tears=%u\n", t->killTears);
        std::printf("cold_restarts=%u\n", t->coldRestarts);
        std::printf("torn_restores=%u\n", t->tornRestores);
        std::printf("correct=%u\n", t->correct);
        std::printf("incorrect=%u\n", t->incorrect);
        if (g_digest) {
            std::uint64_t h = fs::util::fnv1a64(
                t->outcomeFlags.data(), t->outcomeFlags.size());
            h = fs::util::fnv1a64(
                t->results.data(),
                t->results.size() * sizeof(std::uint32_t), h);
            std::printf("digest=%016llx\n", (unsigned long long)h);
        } else {
            for (std::size_t i = 0; i < t->outcomeFlags.size(); ++i)
                std::printf("kill[%zu]=flags:%02x result:%08x\n", i,
                            unsigned(t->outcomeFlags[i]),
                            unsigned(t->results[i]));
        }
        for (const TortureCoverageWire &c : t->coverage)
            std::printf("cov[%08x]=class:%u rank:%u points:%u"
                        " killed:%u correct:%u incorrect:%u cold:%u"
                        " tears:%u\n",
                        c.addr, unsigned(c.cls), c.rank, c.points,
                        c.killed, c.correct, c.incorrect,
                        c.coldRestarts, c.killTears);
        if (!g_coverage_json.empty())
            writeCoverageJson(*t);
        return 0;
    }
    if (const auto *l = std::get_if<LintImageResult>(&resp)) {
        std::printf("lint image=%s\n", l->image.c_str());
        std::printf("errors=%u\n", l->errors);
        std::printf("warnings=%u\n", l->warnings);
        std::printf("notes=%u\n", l->notes);
        std::printf("commit_cycles=%llu\n",
                    (unsigned long long)l->worstCaseCommitCycles);
        std::printf("budget_cycles=%llu\n",
                    (unsigned long long)l->budgetCycles);
        printDouble("static_energy_bound", l->staticEnergyBound);
        printDouble("energy_budget", l->energyBudgetJoules);
        std::printf("report=%s\n", l->reportJson.c_str());
        std::printf("pruning=%s\n", l->pruningJson.c_str());
        return 0;
    }
    if (const auto *s = std::get_if<SwarmResult>(&resp))
        return printSwarmResult(*s);
    const auto &g = std::get<GuestRunResult>(resp);
    std::printf("guest name=%s\n", g.name.c_str());
    std::printf("result=%08x\n", unsigned(g.result));
    std::printf("expected=%08x\n", unsigned(g.expected));
    std::printf("correct=%u\n", unsigned(g.correct));
    std::printf("instructions=%llu\n",
                (unsigned long long)g.instructions);
    return 0;
}

/**
 * Exhaustive campaign fan-out: split [0, exhaustivePoints) into point
 * ranges, grade every shard (in-process or against the endpoint,
 * where fs_router spreads the shards across the fleet), and merge the
 * results in point order. Because shard tear parameters are a pure
 * function of (seed, point index), the merged rendering is
 * byte-identical to running the whole campaign as one job.
 */
int
runCampaign(const TortureJob &base, std::uint64_t shards,
            const std::string &endpoint, bool local,
            std::size_t threads)
{
    const std::uint64_t points = base.exhaustivePoints;
    const std::uint64_t min_shards = (points + 99'999) / 100'000;
    if (shards < min_shards)
        shards = min_shards;
    if (shards > points)
        shards = points;

    std::vector<TortureJob> jobs;
    jobs.reserve(std::size_t(shards));
    std::uint64_t offset = 0;
    for (std::uint64_t s = 0; s < shards; ++s) {
        const std::uint64_t count =
            points / shards + (s < points % shards ? 1 : 0);
        TortureJob shard = base;
        shard.pointOffset = offset;
        shard.pointCount = count;
        jobs.push_back(shard);
        offset += count;
    }

    std::vector<Response> responses(jobs.size());
    if (local) {
        Engine engine(Engine::Options{threads, 64u << 20, ""});
        for (std::size_t s = 0; s < jobs.size(); ++s)
            responses[s] = engine.execute(Request{jobs[s]});
    } else {
        if (endpoint.empty()) {
            std::fprintf(stderr,
                         "fs_client: no endpoint (use --endpoint,"
                         " FS_SERVE_SOCKET, or --local)\n");
            return 2;
        }
        // One connection per worker thread; shards drain from a
        // shared cursor so slow shards do not serialize fast ones.
        const std::size_t workers =
            std::min<std::size_t>(jobs.size(), 16);
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            pool.emplace_back([&] {
                Client client;
                std::string err;
                bool connected = client.connect(endpoint, err);
                for (std::size_t s =
                         next.fetch_add(1, std::memory_order_relaxed);
                     s < jobs.size();
                     s = next.fetch_add(1, std::memory_order_relaxed)) {
                    if (!connected ||
                        !client.call(Request{jobs[s]}, responses[s],
                                     err))
                        responses[s] = ErrorResult{
                            ErrorCode::kInternal,
                            "shard transport failure: " + err};
                }
            });
        for (std::thread &t : pool)
            t.join();
    }

    TortureResult merged;
    for (std::size_t s = 0; s < responses.size(); ++s) {
        if (const auto *e = std::get_if<ErrorResult>(&responses[s])) {
            std::fprintf(stderr,
                         "fs_client: shard %zu failed: %s\n", s,
                         e->message.c_str());
            return 1;
        }
        const auto *t = std::get_if<TortureResult>(&responses[s]);
        if (!t) {
            std::fprintf(stderr,
                         "fs_client: shard %zu returned an unexpected "
                         "response kind\n", s);
            return 1;
        }
        if (s == 0) {
            merged = *t;
            continue;
        }
        std::string err;
        if (!mergeTortureResult(merged, *t, err)) {
            std::fprintf(stderr, "fs_client: shard %zu merge: %s\n", s,
                         err.c_str());
            return 1;
        }
    }
    return printResponse(Response{merged});
}

/**
 * Swarm fan-out: split the fleet into block-aligned device ranges,
 * simulate every shard (in-process or against the endpoint), and merge
 * in shard order. Per-block Welford transport makes the merged
 * aggregates byte-identical to one unsharded run, which is what the
 * aggregate_digest line lets CI diff.
 */
int
runSwarm(const SwarmJob &base, std::uint64_t shards,
         const std::string &endpoint, bool local, std::size_t threads,
         const std::string &audit_path)
{
    const std::uint64_t block = fs::swarm::kSwarmBlock;
    const std::uint64_t total_blocks =
        (base.deviceCount + block - 1) / block;
    if (shards == 0)
        shards = 1;
    if (shards > total_blocks)
        shards = total_blocks;

    std::vector<SwarmJob> jobs;
    jobs.reserve(std::size_t(shards));
    std::uint64_t block0 = 0;
    for (std::uint64_t s = 0; s < shards; ++s) {
        const std::uint64_t nblocks =
            total_blocks / shards +
            (s < total_blocks % shards ? 1 : 0);
        SwarmJob shard = base;
        shard.firstDevice = block0 * block;
        // The last shard runs through the fleet end (its span is not
        // necessarily block-aligned).
        shard.spanDevices = s + 1 < shards ? nblocks * block : 0;
        jobs.push_back(shard);
        block0 += nblocks;
    }

    std::vector<Response> responses(jobs.size());
    if (!audit_path.empty()) {
        // Audit logs are written by the simulating process, so the
        // audited path runs in-process regardless of sharding.
        if (!local) {
            std::fprintf(stderr,
                         "fs_client: --audit requires --local\n");
            return 2;
        }
        Engine engine(Engine::Options{threads, 64u << 20, ""});
        const std::uint64_t audit_every = fs::util::envU64(
            "FS_SWARM_AUDIT_EVERY", 1000, 1, 1'000'000'000);
        fs::swarm::AuditWriter audit(audit_path);
        for (std::size_t s = 0; s < jobs.size(); ++s) {
            const fs::swarm::SwarmConfig cfg = fromWire(jobs[s]);
            const std::string reason =
                fs::swarm::validateConfig(cfg);
            if (!reason.empty()) {
                std::fprintf(stderr, "fs_client: %s\n",
                             reason.c_str());
                return 2;
            }
            SwarmResult res;
            res.agg = fs::swarm::runSwarmShard(cfg, engine.pool(),
                                               &audit, audit_every);
            responses[s] = res;
        }
    } else if (local) {
        Engine engine(Engine::Options{threads, 64u << 20, ""});
        for (std::size_t s = 0; s < jobs.size(); ++s)
            responses[s] = engine.execute(Request{jobs[s]});
    } else {
        if (endpoint.empty()) {
            std::fprintf(stderr,
                         "fs_client: no endpoint (use --endpoint,"
                         " FS_SERVE_SOCKET, or --local)\n");
            return 2;
        }
        const std::size_t workers =
            std::min<std::size_t>(jobs.size(), 16);
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            pool.emplace_back([&] {
                Client client;
                std::string err;
                bool connected = client.connect(endpoint, err);
                for (std::size_t s =
                         next.fetch_add(1, std::memory_order_relaxed);
                     s < jobs.size();
                     s = next.fetch_add(1, std::memory_order_relaxed)) {
                    if (!connected ||
                        !client.call(Request{jobs[s]}, responses[s],
                                     err))
                        responses[s] = ErrorResult{
                            ErrorCode::kInternal,
                            "shard transport failure: " + err};
                }
            });
        for (std::thread &t : pool)
            t.join();
    }

    SwarmResult merged;
    for (std::size_t s = 0; s < responses.size(); ++s) {
        if (const auto *e = std::get_if<ErrorResult>(&responses[s])) {
            std::fprintf(stderr, "fs_client: shard %zu failed: %s\n",
                         s, e->message.c_str());
            return 1;
        }
        const auto *r = std::get_if<SwarmResult>(&responses[s]);
        if (!r) {
            std::fprintf(stderr,
                         "fs_client: shard %zu returned an unexpected "
                         "response kind\n", s);
            return 1;
        }
        std::string err;
        if (!mergeSwarmResult(merged, *r, err)) {
            std::fprintf(stderr, "fs_client: shard %zu merge: %s\n", s,
                         err.c_str());
            return 1;
        }
    }
    return printSwarmResult(merged);
}

/** Verify an audit log; prints the report, exit 0 iff the chain is
 *  intact end to end. */
int
runAuditVerify(const std::string &log_path,
               const std::string &json_path)
{
    const fs::swarm::AuditVerifyReport report =
        fs::swarm::verifyAuditLog(log_path);
    std::printf("status=%s\n",
                fs::swarm::auditStatusName(report.status));
    std::printf("records=%llu\n",
                (unsigned long long)report.records);
    std::printf("gaps=%llu\n", (unsigned long long)report.gaps);
    std::printf("trailing_bytes=%llu\n",
                (unsigned long long)report.trailingBytes);
    if (report.status == fs::swarm::AuditStatus::kCorrupt)
        std::printf("first_bad_record=%llu\n",
                    (unsigned long long)report.firstBadRecord);
    if (!report.message.empty())
        std::printf("message=%s\n", report.message.c_str());
    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "fs_client: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::fprintf(f,
                     "{\n  \"status\": \"%s\",\n  \"records\": %llu,\n"
                     "  \"gaps\": %llu,\n  \"trailing_bytes\": %llu,\n"
                     "  \"first_bad_record\": %llu\n}\n",
                     fs::swarm::auditStatusName(report.status),
                     (unsigned long long)report.records,
                     (unsigned long long)report.gaps,
                     (unsigned long long)report.trailingBytes,
                     (unsigned long long)report.firstBadRecord);
        std::fclose(f);
    }
    return report.status == fs::swarm::AuditStatus::kOk ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string endpoint = Client::defaultEndpoint();
    bool local = false;
    std::size_t threads = 0;
    int i = 1;
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--endpoint" && i + 1 < argc)
            endpoint = argv[++i];
        else if (arg == "--local")
            local = true;
        else if (arg == "--threads" && i + 1 < argc)
            threads = std::size_t(std::atol(argv[++i]));
        else
            break;
    }
    if (i >= argc)
        return usage();
    const std::string job_name = argv[i++];

    // Generic key=value option scan shared by all job builders.
    auto opt = [&](const char *name, std::string &out) {
        for (int j = i; j + 1 < argc; ++j)
            if (std::strcmp(argv[j], name) == 0) {
                out = argv[j + 1];
                return true;
            }
        return false;
    };
    auto optU = [&](const char *name, auto &out) {
        std::string v;
        if (opt(name, v))
            out = static_cast<std::remove_reference_t<decltype(out)>>(
                std::strtoull(v.c_str(), nullptr, 0));
    };
    auto optD = [&](const char *name, double &out) {
        std::string v;
        if (opt(name, v))
            out = std::strtod(v.c_str(), nullptr);
    };
    auto hasFlag = [&](const char *name) {
        for (int j = i; j < argc; ++j)
            if (std::strcmp(argv[j], name) == 0)
                return true;
        return false;
    };
    auto optWorkload = [&](WorkloadSpec &spec) {
        std::string v;
        if (opt("--workload", v) && !parseWorkload(v, spec))
            return false;
        optU("--a", spec.a);
        optU("--b", spec.b);
        optU("--wseed", spec.seed);
        return true;
    };

    Request req;
    if (job_name == "ro-sweep") {
        RoSweepJob job;
        opt("--tech", job.tech);
        optU("--stages", job.stages);
        std::string cell;
        if (opt("--cell", cell))
            job.cell = cell == "starved" ? 1 : 0;
        optD("--speed", job.speed);
        optD("--temp", job.tempC);
        optD("--vstart", job.vStart);
        optD("--vend", job.vEnd);
        optD("--vstep", job.vStep);
        req = job;
    } else if (job_name == "design-point") {
        DesignPointJob job;
        opt("--tech", job.tech);
        optU("--ro-stages", job.config.roStages);
        optD("--sample-rate", job.config.sampleRate);
        optU("--counter-bits", job.config.counterBits);
        double enable_us = 0.0;
        std::string v;
        if (opt("--enable-us", v)) {
            enable_us = std::strtod(v.c_str(), nullptr);
            job.config.enableTime = enable_us * 1e-6;
        }
        optU("--nvm-entries", job.config.nvmEntries);
        optU("--entry-bits", job.config.entryBits);
        optU("--divider-tap", job.config.dividerTap);
        optU("--divider-total", job.config.dividerTotal);
        optU("--strategy", job.config.strategy);
        req = job;
    } else if (job_name == "dse") {
        DseShardJob job;
        opt("--tech", job.tech);
        optU("--pop", job.populationSize);
        optU("--gens", job.generations);
        optU("--seed", job.seed);
        optD("--fixed-rate", job.fixedRate);
        if (hasFlag("--explore-divider"))
            job.exploreDivider = 1;
        req = job;
    } else if (job_name == "torture" || job_name == "campaign") {
        TortureJob job;
        if (!optWorkload(job.workload))
            return usage();
        optU("--sram", job.sramSize);
        optU("--stable", job.stableCycles);
        optU("--low", job.lowCycles);
        optU("--seed", job.seed);
        optU("--kills-per-window", job.killsPerWindow);
        optU("--random-kills", job.randomKills);
        optU("--exhaustive", job.exhaustivePoints);
        optU("--offset", job.pointOffset);
        optU("--count", job.pointCount);
        if (hasFlag("--coverage"))
            job.coverageMap = 1;
        g_digest = hasFlag("--digest");
        opt("--coverage-json", g_coverage_json);
        if (!g_coverage_json.empty())
            job.coverageMap = 1;
        if (job_name == "campaign") {
            if (job.exhaustivePoints == 0) {
                std::fprintf(stderr, "fs_client: campaign needs "
                                     "--exhaustive N\n");
                return 2;
            }
            std::uint64_t shards = 0;
            optU("--shards", shards);
            return runCampaign(job, shards, endpoint, local, threads);
        }
        req = job;
    } else if (job_name == "guest") {
        GuestRunJob job;
        if (!optWorkload(job.workload))
            return usage();
        if (hasFlag("--no-trace"))
            job.allowDbt = 0;
        req = job;
    } else if (job_name == "lint") {
        LintImageJob job;
        job.name = "checkpoint-runtime";
        opt("--image", job.name);
        if (hasFlag("--no-pruning"))
            job.emitPruning = 0;
        // The request carries the image words so the server's result
        // cache is addressed by content, not just by name.
        const std::vector<fs::analysis::LintImage> images =
            fs::analysis::lintImages();
        const fs::analysis::LintImage *image =
            fs::analysis::findLintImage(images, job.name);
        if (!image) {
            std::fprintf(stderr,
                         "fs_client: unknown lint image '%s'\n",
                         job.name.c_str());
            return 2;
        }
        job.code = image->code;
        req = std::move(job);
    } else if (job_name == "swarm") {
        SwarmJob job;
        optU("--devices", job.deviceCount);
        optU("--seed", job.seed);
        std::string profile;
        if (opt("--profile", profile)) {
            if (profile == "night")
                job.profile = 0;
            else if (profile == "office")
                job.profile = 1;
            else if (profile == "diurnal")
                job.profile = 2;
            else if (profile == "rf")
                job.profile = 3;
            else
                return usage();
        }
        std::string trace_path;
        if (opt("--trace", trace_path)) {
            std::FILE *f = std::fopen(trace_path.c_str(), "rb");
            if (!f) {
                std::fprintf(stderr,
                             "fs_client: cannot read %s\n",
                             trace_path.c_str());
                return 2;
            }
            char buf[4096];
            std::size_t n;
            while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
                job.traceCsv.append(buf, n);
            std::fclose(f);
            job.profile = 4; // HarvestProfile::kTraceCsv
        }
        optD("--trace-seconds", job.traceSeconds);
        optD("--segment-seconds", job.segmentSeconds);
        optD("--ckpt-period", job.ckptPeriodS);
        optD("--z", job.zThreshold);
        optU("--warmup", job.warmup);
        optU("--trips", job.tripsToFlag);
        optU("--anomaly-every", job.anomalyEvery);
        optD("--anomaly-factor", job.anomalyFactor);
        std::uint64_t shards = 1;
        optU("--shards", shards);
        std::string audit;
        opt("--audit", audit);
        return runSwarm(job, shards, endpoint, local, threads,
                        audit);
    } else if (job_name == "audit-verify") {
        std::string log_path;
        if (!opt("--log", log_path))
            return usage();
        std::string json_path;
        opt("--json", json_path);
        return runAuditVerify(log_path, json_path);
    } else {
        return usage();
    }

    Response resp;
    if (local) {
        Engine engine(Engine::Options{threads, 64u << 20, ""});
        resp = engine.execute(req);
        return printResponse(resp);
    }
    if (endpoint.empty()) {
        std::fprintf(stderr, "fs_client: no endpoint (use --endpoint,"
                             " FS_SERVE_SOCKET, or --local)\n");
        return 2;
    }
    Client client;
    std::string err;
    if (!client.connect(endpoint, err) ||
        !client.call(req, resp, err)) {
        std::fprintf(stderr, "fs_client: %s\n", err.c_str());
        return 1;
    }
    return printResponse(resp);
}
