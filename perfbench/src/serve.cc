/**
 * @file
 * `serve` workload: a closed loop from one process. nproc/2 client
 * threads each send a request through fleet::Router and wait for its
 * reply before sending the next. The router fronts an in-process
 * fleet::Fleet of three workers; each worker's Engine has its own
 * 1-thread pool (Engine::Options::threads = 1), the way separate
 * fs_served processes run, and disk spill is off.
 *
 * The seeded request mix is small jobs of all seven kinds; a fixed
 * share of requests repeats a recent one, so the result caches (empty
 * at the start) warm during the run. Gate: every routed reply matches
 * a direct Engine::execute of the same request (kind, length and
 * payload digest), and every repeat matches its first answer.
 */

#include "serve.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

#include "analysis/lint_images.h"
#include "fleet/fleet.h"
#include "serve/engine.h"
#include "util/parallel.h"
#include "util/random.h"

namespace fsbench {

using namespace fs;
using serve::Request;

const char *const kKindNames[7] = {"ro_sweep",  "design_point",
                                   "dse_shard", "torture",
                                   "guest_run", "lint_image",
                                   "swarm"};

namespace {

constexpr std::size_t kWorkers = 3;
constexpr double kRepeatShare = 0.15; ///< requests that repeat one before
/** A repeat picks one of this many most recent requests, so the working
 *  set -- and the hit ratio -- stay flat over the run. */
constexpr std::size_t kRepeatWindow = 256;
/** Per-worker result-cache budget: small enough that the caches fill
 *  within seconds, so peak memory does not grow with the number of
 *  requests a run manages to send. */
constexpr std::size_t kCacheBytes = 1u << 20;

std::size_t
cores()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

const std::vector<analysis::LintImage> &
lintRegistry()
{
    static const std::vector<analysis::LintImage> images =
        analysis::lintImages();
    return images;
}

const char *
pickTech(Rng &rng)
{
    static const char *const techs[] = {"130nm", "90nm", "65nm"};
    return techs[rng.uniformInt(0, 2)];
}

/** Base request index of every request id, repeats drawn from the
 *  seed: request i repeats one of the `window` requests before it,
 *  uniformly chosen, with probability `repeat_share`. */
std::vector<std::uint64_t>
requestBases(std::uint64_t seed, std::size_t n, double repeat_share,
             std::size_t window)
{
    Rng rng(seed ^ 0x726570656174ULL);
    std::vector<std::uint64_t> bases(n);
    std::uint64_t fresh = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (i > 0 && rng.uniform() < repeat_share)
            bases[i] = bases[std::size_t(rng.uniformInt(
                std::int64_t(i - std::min(i, window)), std::int64_t(i) - 1))];
        else
            bases[i] = fresh++;
    }
    return bases;
}

} // namespace

Request
baseRequest(std::uint64_t seed, std::uint64_t b)
{
    Rng rng = util::rngForIndex(seed ^ 0x7365727665ULL, b);
    const std::uint32_t seed32 = std::uint32_t(rng.uniformInt(1, 1 << 30));
    // Kind weights: design points (one performance-model evaluation,
    // about a millisecond) are five times as common as each other
    // kind, so the median request sits inside that cluster of real
    // model work rather than on the edge of the round-trip cluster.
    static const int kWeightedKinds[11] = {0, 1, 1, 1, 1, 1, 2, 3, 4, 5, 6};
    switch (kWeightedKinds[rng.uniformInt(0, 10)]) {
    case 0: {
        serve::RoSweepJob j;
        j.tech = pickTech(rng);
        j.stages = std::uint32_t(2 * rng.uniformInt(2, 15) + 1);
        j.cell = std::uint8_t(rng.uniformInt(0, 1));
        j.speed = rng.uniform(0.9, 1.1);
        j.tempC = rng.uniform(0.0, 60.0);
        j.vStep = 0.01;
        return j;
    }
    case 1: {
        serve::DesignPointJob j;
        j.tech = pickTech(rng);
        j.config.roStages = std::uint64_t(2 * rng.uniformInt(2, 15) + 1);
        j.config.sampleRate = 100.0 * double(rng.uniformInt(1, 100));
        j.config.counterBits = std::uint64_t(rng.uniformInt(6, 10));
        j.config.nvmEntries = std::uint64_t(rng.uniformInt(20, 80));
        j.config.strategy = std::uint8_t(rng.uniformInt(0, 3));
        return j;
    }
    case 2: {
        serve::DseShardJob j;
        j.tech = pickTech(rng);
        j.populationSize = std::uint32_t(rng.uniformInt(4, 6));
        j.generations = 1;
        j.seed = seed32;
        return j;
    }
    case 3: {
        serve::TortureJob j;
        j.workload.kind = serve::WorkloadSpec::Kind::kCrc32;
        j.workload.a = std::uint32_t(rng.uniformInt(256, 384));
        j.workload.seed = seed32;
        j.killsPerWindow = std::uint32_t(rng.uniformInt(0, 2));
        j.randomKills = std::uint32_t(rng.uniformInt(4, 8));
        j.seed = seed32;
        return j;
    }
    case 4: {
        serve::GuestRunJob j;
        j.workload.seed = seed32;
        switch (rng.uniformInt(0, 3)) {
        case 0:
            j.workload.kind = serve::WorkloadSpec::Kind::kCrc32;
            j.workload.a = std::uint32_t(rng.uniformInt(512, 4096));
            break;
        case 1:
            j.workload.kind = serve::WorkloadSpec::Kind::kFir;
            j.workload.a = std::uint32_t(rng.uniformInt(8, 32));
            j.workload.b = std::uint32_t(rng.uniformInt(64, 256));
            break;
        case 2:
            j.workload.kind = serve::WorkloadSpec::Kind::kSort;
            j.workload.a = std::uint32_t(rng.uniformInt(64, 256));
            break;
        default:
            j.workload.kind = serve::WorkloadSpec::Kind::kMatmul;
            j.workload.a = std::uint32_t(rng.uniformInt(4, 12));
            break;
        }
        return j;
    }
    case 5: {
        const auto &images = lintRegistry();
        const analysis::LintImage &img =
            images[std::size_t(rng.uniformInt(0, std::int64_t(images.size()) - 1))];
        serve::LintImageJob j;
        j.name = img.name;
        j.code = img.code;
        j.emitPruning = std::uint8_t(rng.uniformInt(0, 1));
        return j;
    }
    default: {
        serve::SwarmJob j;
        j.deviceCount = std::uint64_t(rng.uniformInt(64, 192));
        j.seed = seed32;
        j.profile = std::uint32_t(rng.uniformInt(0, 3));
        j.traceSeconds = 300.0;
        j.anomalyEvery = 50;
        return j;
    }
    }
}

ReplyDigest
ReplyDigest::of(serve::MsgKind kind, const std::vector<std::uint8_t> &payload)
{
    return {kind, payload.size(),
            serve::fnv1a64(payload.data(), payload.size())};
}

SessionResult
runSession(const SessionConfig &cfg)
{
    SessionResult out;
    ::mkdir(cfg.socketDir.c_str(), 0755);
    const std::vector<std::uint64_t> bases =
        requestBases(cfg.seed, 400000, kRepeatShare, kRepeatWindow);
    // Half the cores as closed-loop clients: with three single-threaded
    // workers, most requests then find their worker idle.
    out.clients = std::max<std::size_t>(1, cores() / 2);
    out.workers = kWorkers;

    fleet::Fleet::Options fopts;
    fopts.workers = kWorkers;
    fopts.socketDir = cfg.socketDir;
    fopts.engine.threads = 1;
    fopts.engine.cacheBytes = kCacheBytes;
    fopts.engine.spillDir = "";
    fleet::Router::Options ropts;
    ropts.maxInFlight = 2 * out.clients;

    std::unique_ptr<fleet::Fleet> fleet;
    std::unique_ptr<fleet::Router> router;
    for (int rep = 0; rep < cfg.setupRepeats; ++rep) {
        if (router) {
            router->stop();
            fleet->stop();
            router.reset();
            fleet.reset();
        }
        trace::Span s("fleet.start");
        const double t0 = nowSeconds();
        fleet = std::make_unique<fleet::Fleet>(fopts);
        if (!fleet->start(out.error))
            return out;
        ropts.endpoints = fleet->endpoints();
        router = std::make_unique<fleet::Router>(ropts);
        router->start();
        out.setupS.push_back(nowSeconds() - t0);
    }

    std::atomic<std::size_t> next{0};
    std::mutex mu; // guards every `out` member the clients touch
    std::map<std::uint64_t, ReplyDigest> first;
    const double start = nowSeconds();
    const double deadline = start + cfg.seconds;
    const auto client = [&] {
        std::vector<Completed> local;
        std::vector<double> enc, dec;
        for (;;) {
            if (nowSeconds() >= deadline)
                break;
            const std::size_t i = next.fetch_add(1);
            if (i >= bases.size())
                break;
            const std::uint64_t b = bases[i];
            const Request req = baseRequest(cfg.seed, b);
            trace::Span rs("serve.request", 0, i + 1);
            double t0 = nowSeconds();
            std::vector<std::uint8_t> payload;
            {
                trace::Span s("serve.encodeRequestPayload", rs.id(), i + 1);
                payload = serve::encodeRequestPayload(req);
            }
            enc.push_back((nowSeconds() - t0) * 1e6);
            serve::Frame reply;
            t0 = nowSeconds();
            {
                trace::Span s("fleet.Router.callRaw", rs.id(), i + 1);
                router->callRaw(serve::requestKind(req), payload, reply);
            }
            Completed c;
            c.index = i;
            c.base = b;
            c.latencyMs = (nowSeconds() - t0) * 1e3;
            t0 = nowSeconds();
            {
                trace::Span s("serve.decodeResponsePayload", rs.id(), i + 1);
                serve::Response resp;
                std::string err;
                c.ok = reply.kind != serve::MsgKind::kErrorReply &&
                       serve::decodeResponsePayload(
                           reply.kind, reply.payload.data(),
                           reply.payload.size(), resp, err);
            }
            dec.push_back((nowSeconds() - t0) * 1e6);
            local.push_back(c);
            const ReplyDigest digest =
                ReplyDigest::of(reply.kind, reply.payload);
            std::lock_guard<std::mutex> lock(mu);
            const auto [it, inserted] = first.emplace(b, digest);
            if (!inserted && !(it->second == digest))
                ++out.repeatMismatches;
        }
        std::lock_guard<std::mutex> lock(mu);
        out.done.insert(out.done.end(), local.begin(), local.end());
        out.encodeUs.insert(out.encodeUs.end(), enc.begin(), enc.end());
        out.decodeUs.insert(out.decodeUs.end(), dec.begin(), dec.end());
    };
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < out.clients; ++t)
        threads.emplace_back(client);
    for (std::thread &t : threads)
        t.join();
    out.wallS = nowSeconds() - start;
    out.firstReply.assign(first.begin(), first.end());

    for (std::size_t w = 0; w < fleet->size(); ++w) {
        const serve::Server::Stats s = fleet->server(w).stats();
        const serve::ResultCache::Stats c =
            fleet->server(w).engine().cache().stats();
        out.server.requests += s.requests;
        out.server.batches += s.batches;
        out.server.maxBatch = std::max(out.server.maxBatch, s.maxBatch);
        out.server.batchDuplicates += s.batchDuplicates;
        out.server.errors += s.errors;
        out.cache.hits += c.hits;
        out.cache.misses += c.misses;
        out.perWorkerRequests.push_back(s.requests);
    }
    out.router = router->stats();
    router->stop();
    fleet->stop();
    for (const std::string &ep : fleet->endpoints())
        ::unlink(ep.c_str());
    ::rmdir(cfg.socketDir.c_str());
    std::sort(out.done.begin(), out.done.end(),
              [](const Completed &a, const Completed &b) {
                  return a.index < b.index;
              });
    return out;
}

Verification
verifySession(const SessionConfig &cfg, const SessionResult &session,
              bool corrupt_first)
{
    Verification v;
    const auto &replies = session.firstReply;
    std::vector<double> ms(replies.size(), 0.0);
    std::vector<std::uint8_t> bad(replies.size(), 0);
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        serve::Engine::Options eo;
        eo.threads = 1;
        eo.spillDir = "";
        const serve::Engine engine(eo);
        for (;;) {
            const std::size_t k = next.fetch_add(1);
            if (k >= replies.size())
                return;
            const Request req = baseRequest(cfg.seed, replies[k].first);
            const double t0 = nowSeconds();
            serve::Response resp;
            {
                trace::Span s(std::string("serve.Engine.execute.") +
                              kKindNames[req.index()]);
                resp = engine.execute(req);
            }
            ms[k] = (nowSeconds() - t0) * 1e3;
            std::vector<std::uint8_t> want =
                serve::encodeResponsePayload(resp);
            if (corrupt_first && k == 0)
                flipByte(want, want.size() / 2);
            bad[k] = !(replies[k].second ==
                       ReplyDigest::of(serve::responseKind(resp), want));
        }
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < cores(); ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    for (std::size_t k = 0; k < replies.size(); ++k) {
        ++v.checked;
        v.mismatched += bad[k];
        v.execMs.push_back({replies[k].first, ms[k]});
    }
    return v;
}

SessionConfig
sessionConfig(const Options &opts, double seconds, int setup_repeats)
{
    SessionConfig cfg;
    cfg.seed = opts.seed;
    cfg.seconds = seconds;
    cfg.setupRepeats = setup_repeats;
    cfg.socketDir = opts.outDir + "/sock-serve";
    return cfg;
}

namespace {

/** Latencies with failed requests counted as missing every limit
 *  (charged the whole session). */
std::vector<double>
latencies(const SessionResult &s)
{
    std::vector<double> v;
    for (const Completed &c : s.done)
        v.push_back(c.ok ? c.latencyMs : s.wallS * 1e3);
    return v;
}

} // namespace

void
runServe(const Options &opts, Result &res)
{
    // Traced runs: an untraced session then a traced one, each half
    // the budget and each from empty caches.
    const double span = opts.trace ? opts.seconds / 2 : opts.seconds;
    const SessionConfig cfg = sessionConfig(opts, span, 31);
    const SessionResult s = runSession(cfg);
    if (!res.check(s.error.empty(), "fleet start failed: " + s.error))
        return;
    double traced_rate = 0.0, t0 = 0.0, t1 = 0.0;
    if (opts.trace) {
        trace::setEnabled(true);
        t0 = nowSeconds();
        const SessionResult ts = runSession(sessionConfig(opts, span, 31));
        t1 = nowSeconds();
        trace::setEnabled(false);
        traced_rate = double(ts.done.size()) / ts.wallS;
        res.check(ts.error.empty(), "traced fleet start failed");
    }

    std::uint64_t failed = s.repeatMismatches;
    for (const Completed &c : s.done)
        failed += c.ok ? 0 : 1;
    res.tally(s.done.size(), failed);
    if (failed)
        res.failures.push_back(std::to_string(failed) +
                               " routed requests errored or disagreed");
    const Verification v =
        verifySession(cfg, s, corrupting(opts, "serve.reply"));
    res.tally(v.checked, v.mismatched);
    if (v.mismatched)
        res.failures.push_back(std::to_string(v.mismatched) +
                               " routed replies differ from a direct "
                               "Engine::execute");

    const double rate = double(s.done.size()) / s.wallS;
    if (opts.trace) {
        const double uncovered =
            trace::printLayerTable("serve", trace::snapshot(), t0, t1);
        res.metric("trace_uncovered_pct", 100.0 * uncovered, "%");
        reportTraceOverhead(res, rate, traced_rate);
        return;
    }
    const std::vector<double> lat = latencies(s);
    const Tail tail = tailPercentile(lat);
    std::printf("latency deciles (ms):");
    for (int d = 1; d < 10; ++d)
        std::printf(" %.3f", quantile(lat, d / 10.0));
    std::printf("\n");
    const double hit_ratio =
        double(s.cache.hits) /
        double(std::max<std::uint64_t>(1, s.cache.hits + s.cache.misses));
    std::printf("req_per_s = %.2f req/s (%zu requests in %.3f s, %zu "
                "closed-loop clients, %zu workers)\n"
                "latency_p50_ms = %.4f ms\n"
                "latency_p99_ms = %.4f ms (p%.0f of %zu samples)\n"
                "setup_s = %.5f s (median of %zu fleet starts)\n"
                "cache hit ratio %.3f (hits / lookups), %llu distinct "
                "requests verified against direct execution\n",
                rate, s.done.size(), s.wallS, s.clients, s.workers,
                median(lat), tail.value, tail.percentile, tail.samples,
                median(s.setupS), s.setupS.size(), hit_ratio,
                (unsigned long long)v.checked);
    res.metric("setup_s", median(s.setupS), "s");
    res.metric("work_per_s", rate, "1/s");
    res.metric("latency_p50_ms", median(lat), "ms");
    res.metric("latency_p99_ms", tail.value, "ms");
}

} // namespace fsbench
