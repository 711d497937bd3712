/**
 * @file
 * Tests for the fs::serve subsystem: canonical wire format (encode /
 * decode round-trips under fuzzed inputs, framing edge cases, version
 * mismatch answered with a typed error), the content-addressed result
 * cache (LRU eviction, disk spill, kill switch), and the determinism
 * contract that makes caching sound -- cold, cached, and batched
 * responses are byte-identical at 1 and 8 worker threads, in-process
 * and across a live Unix-domain socket.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "analysis/lint_images.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "swarm/swarm.h"
#include "util/parallel.h"
#include "util/random.h"

namespace fs {
namespace serve {
namespace {

// --- fuzzed round-trips ----------------------------------------------

std::string
randomString(Rng &rng, std::size_t max_len)
{
    const std::size_t len = std::size_t(
        rng.uniformInt(0, std::int64_t(max_len)));
    std::string s;
    for (std::size_t i = 0; i < len; ++i)
        s.push_back(char(rng.uniformInt(1, 255)));
    return s;
}

ConfigWire
randomConfig(Rng &rng)
{
    ConfigWire c;
    c.roStages = std::uint64_t(rng.uniformInt(3, 501));
    c.sampleRate = rng.uniform(1.0, 1e6);
    c.counterBits = std::uint64_t(rng.uniformInt(1, 24));
    c.enableTime = rng.uniform(0.0, 1e-3);
    c.nvmEntries = std::uint64_t(rng.uniformInt(1, 4096));
    c.entryBits = std::uint64_t(rng.uniformInt(1, 32));
    c.dividerTap = std::uint64_t(rng.uniformInt(1, 7));
    c.dividerTotal = std::uint64_t(rng.uniformInt(1, 9));
    c.strategy = std::uint8_t(rng.uniformInt(0, 3));
    return c;
}

core::Performance
randomPerf(Rng &rng)
{
    core::Performance p;
    p.realizable = rng.uniformInt(0, 1) != 0;
    p.rejectReason = randomString(rng, 24);
    p.meanCurrent = rng.uniform(-1.0, 1.0);
    p.sampleRate = rng.uniform(0.0, 1e7);
    p.granularity = rng.uniform(0.0, 1.0);
    p.nvmBytes = std::size_t(rng.uniformInt(0, 1 << 20));
    p.transistors = std::size_t(rng.uniformInt(0, 1 << 24));
    p.quantizationError = rng.uniform(0.0, 0.5);
    p.thermalError = rng.uniform(0.0, 0.5);
    p.interpolationError = rng.uniform(0.0, 0.5);
    return p;
}

WorkloadSpec
randomWorkload(Rng &rng)
{
    WorkloadSpec w;
    w.kind = WorkloadSpec::Kind(rng.uniformInt(0, 3));
    w.a = std::uint32_t(rng.uniformInt(1, 1 << 16));
    w.b = std::uint32_t(rng.uniformInt(0, 1 << 16));
    w.seed = std::uint64_t(rng.uniformInt(0, 1 << 30));
    return w;
}

std::vector<Request>
randomRequests(Rng &rng)
{
    RoSweepJob ro;
    ro.tech = randomString(rng, 16);
    ro.stages = std::uint32_t(rng.uniformInt(3, 501));
    ro.cell = std::uint8_t(rng.uniformInt(0, 1));
    ro.speed = rng.uniform(0.5, 1.5);
    ro.tempC = rng.uniform(-40.0, 125.0);
    ro.vStart = rng.uniform(0.1, 1.0);
    ro.vEnd = ro.vStart + rng.uniform(0.0, 3.0);
    ro.vStep = rng.uniform(0.01, 0.5);

    DesignPointJob dp;
    dp.tech = randomString(rng, 16);
    dp.config = randomConfig(rng);

    DseShardJob dse;
    dse.tech = randomString(rng, 16);
    dse.populationSize = std::uint32_t(rng.uniformInt(4, 512));
    dse.generations = std::uint32_t(rng.uniformInt(0, 200));
    dse.seed = std::uint64_t(rng.uniformInt(0, 1 << 30));
    dse.fixedRate = rng.uniform(0.0, 1e5);
    dse.exploreDivider = std::uint8_t(rng.uniformInt(0, 1));

    TortureJob torture;
    torture.workload = randomWorkload(rng);
    torture.sramSize = std::uint32_t(rng.uniformInt(256, 1 << 16));
    torture.stableCycles = std::uint64_t(rng.uniformInt(1, 1 << 20));
    torture.lowCycles = std::uint64_t(rng.uniformInt(1, 1 << 20));
    torture.seed = std::uint64_t(rng.uniformInt(0, 1 << 30));
    torture.killsPerWindow = std::uint32_t(rng.uniformInt(0, 64));
    torture.randomKills = std::uint32_t(rng.uniformInt(0, 64));
    torture.exhaustivePoints = std::uint64_t(rng.uniformInt(0, 1 << 30));
    torture.pointOffset = std::uint64_t(rng.uniformInt(0, 1 << 20));
    torture.pointCount = std::uint64_t(rng.uniformInt(0, 1 << 20));
    torture.coverageMap = std::uint8_t(rng.uniformInt(0, 1));

    GuestRunJob guest;
    guest.workload = randomWorkload(rng);
    guest.allowDbt = std::uint8_t(rng.uniformInt(0, 1));

    LintImageJob lint;
    lint.name = randomString(rng, 16);
    const std::size_t words =
        std::size_t(rng.uniformInt(1, 48));
    for (std::size_t i = 0; i < words; ++i)
        lint.code.push_back(
            std::uint32_t(rng.uniformInt(0, 0xffffffffLL)));
    lint.emitPruning = std::uint8_t(rng.uniformInt(0, 1));

    SwarmJob swarm;
    swarm.deviceCount = std::uint64_t(rng.uniformInt(1, 1 << 20));
    swarm.firstDevice = std::uint64_t(rng.uniformInt(0, 64)) * 512;
    swarm.spanDevices = std::uint64_t(rng.uniformInt(0, 1 << 16));
    swarm.seed = std::uint64_t(rng.uniformInt(0, 1 << 30));
    swarm.profile = std::uint32_t(rng.uniformInt(0, 4));
    swarm.traceSeconds = rng.uniform(1.0, 3600.0);
    swarm.segmentSeconds = rng.uniform(0.1, 60.0);
    swarm.ckptPeriodS = rng.uniform(0.01, 10.0);
    swarm.zThreshold = rng.uniform(1.0, 8.0);
    swarm.warmup = std::uint32_t(rng.uniformInt(0, 64));
    swarm.tripsToFlag = std::uint32_t(rng.uniformInt(1, 8));
    swarm.anomalyEvery = std::uint64_t(rng.uniformInt(0, 1000));
    swarm.anomalyFactor = rng.uniform(0.0, 1.0);
    swarm.traceCsv = randomString(rng, 48);

    return {ro, dp, dse, torture, guest, lint, swarm};
}

/**
 * A swarm shard with every aggregate populated: three blocks of
 * Welford moments, non-zero histogram buckets and reservoir entries.
 */
const SwarmResult &
populatedSwarmResult()
{
    static const SwarmResult res = [] {
        swarm::SwarmConfig cfg;
        cfg.deviceCount = 1100;
        cfg.seed = 42;
        cfg.traceSeconds = 120.0;
        cfg.anomalyEvery = 64;
        util::ThreadPool pool(1);
        SwarmResult r;
        r.agg = swarm::runSwarmShard(cfg, pool);
        return r;
    }();
    return res;
}

std::vector<Response>
randomResponses(Rng &rng)
{
    RoSweepResult ro;
    const std::size_t points =
        std::size_t(rng.uniformInt(0, 64));
    for (std::size_t i = 0; i < points; ++i)
        ro.frequenciesHz.push_back(rng.uniform(0.0, 1e8));

    DesignPointResult dp{randomPerf(rng)};

    DseShardResult dse;
    const std::size_t front = std::size_t(rng.uniformInt(0, 16));
    for (std::size_t i = 0; i < front; ++i)
        dse.front.push_back({randomConfig(rng), randomPerf(rng)});

    TortureResult torture;
    torture.cleanCycles = std::uint64_t(rng.uniformInt(0, 1 << 30));
    torture.checkpoints = std::uint32_t(rng.uniformInt(0, 64));
    torture.checkpointVolts = rng.uniform(1.0, 3.0);
    const std::size_t kills = std::size_t(rng.uniformInt(0, 32));
    torture.points = std::uint32_t(kills);
    for (std::size_t i = 0; i < kills; ++i) {
        torture.outcomeFlags.push_back(
            std::uint8_t(rng.uniformInt(0, 31)));
        torture.results.push_back(
            std::uint32_t(rng.uniformInt(0, 0xffffffffLL)));
    }
    const std::size_t sites = std::size_t(rng.uniformInt(0, 8));
    for (std::size_t i = 0; i < sites; ++i) {
        TortureCoverageWire c;
        c.addr = std::uint32_t(rng.uniformInt(0, 0xffffffffLL));
        c.cls = std::uint8_t(rng.uniformInt(0, 2));
        c.rank = std::uint32_t(rng.uniformInt(0, 64));
        c.points = std::uint32_t(rng.uniformInt(0, 1 << 16));
        c.killed = std::uint32_t(rng.uniformInt(0, 1 << 16));
        c.correct = std::uint32_t(rng.uniformInt(0, 1 << 16));
        c.incorrect = std::uint32_t(rng.uniformInt(0, 1 << 16));
        c.coldRestarts = std::uint32_t(rng.uniformInt(0, 1 << 16));
        c.killTears = std::uint32_t(rng.uniformInt(0, 1 << 16));
        torture.coverage.push_back(c);
    }

    GuestRunResult guest;
    guest.name = randomString(rng, 24);
    guest.result = std::uint32_t(rng.uniformInt(0, 0xffffffffLL));
    guest.expected = std::uint32_t(rng.uniformInt(0, 0xffffffffLL));
    guest.correct = std::uint8_t(rng.uniformInt(0, 1));
    guest.instructions = std::uint64_t(rng.uniformInt(0, 1 << 30));

    LintImageResult lint;
    lint.image = randomString(rng, 24);
    lint.errors = std::uint32_t(rng.uniformInt(0, 64));
    lint.warnings = std::uint32_t(rng.uniformInt(0, 64));
    lint.notes = std::uint32_t(rng.uniformInt(0, 64));
    lint.worstCaseCommitCycles =
        std::uint64_t(rng.uniformInt(0, 1 << 30));
    lint.budgetCycles = std::uint64_t(rng.uniformInt(0, 1 << 30));
    lint.staticEnergyBound = rng.uniform(0.0, 1e-3);
    lint.energyBudgetJoules = rng.uniform(0.0, 1e-3);
    lint.reportJson = randomString(rng, 64);
    lint.pruningJson = randomString(rng, 64);

    ErrorResult error;
    error.code = ErrorCode(rng.uniformInt(1, 6));
    error.message = randomString(rng, 64);

    return {ro, dp, dse, torture, guest, lint, populatedSwarmResult(),
            error};
}

/** One canonical payload together with the decoder for its kind. */
struct Decodable {
    std::string name;
    std::vector<std::uint8_t> bytes;
    std::function<bool(const std::uint8_t *, std::size_t, std::string &)>
        decode;
};

template <class T>
Decodable
controlDecodable(const std::string &name, const T &msg)
{
    return {name, encodeControl(msg),
            [](const std::uint8_t *d, std::size_t n, std::string &err) {
                T m;
                return decodeControl(d, n, m, err);
            }};
}

/** Every request, every response and every control-plane message. */
std::vector<Decodable>
decodables(Rng &rng)
{
    std::vector<Decodable> out;
    for (const Request &req : randomRequests(rng)) {
        const MsgKind kind = requestKind(req);
        out.push_back({"request " + std::to_string(unsigned(kind)),
                       encodeRequestPayload(req),
                       [kind](const std::uint8_t *d, std::size_t n,
                              std::string &err) {
                           Request r;
                           return decodeRequestPayload(kind, d, n, r,
                                                       err);
                       }});
    }
    for (const Response &resp : randomResponses(rng)) {
        const MsgKind kind = responseKind(resp);
        out.push_back({"response " + std::to_string(unsigned(kind)),
                       encodeResponsePayload(resp),
                       [kind](const std::uint8_t *d, std::size_t n,
                              std::string &err) {
                           Response r;
                           return decodeResponsePayload(kind, d, n, r,
                                                        err);
                       }});
    }
    PingJob ping;
    ping.nonce = std::uint64_t(rng.uniformInt(0, 1 << 30));
    out.push_back(controlDecodable("ping", ping));
    PingResult pong;
    pong.nonce = ping.nonce;
    pong.queueDepth = 3;
    pong.cacheEntries = 9;
    pong.draining = 1;
    out.push_back(controlDecodable("ping_reply", pong));
    CacheInsertJob insert;
    insert.key = std::uint64_t(rng.uniformInt(0, 1 << 30));
    insert.kind = std::uint16_t(MsgKind::kGuestRunReply);
    insert.payload = {1, 2, 3, 4, 5};
    out.push_back(controlDecodable("cache_insert", insert));
    CacheInsertResult stored;
    stored.stored = 1;
    out.push_back(controlDecodable("cache_insert_reply", stored));
    return out;
}

TEST(Wire, RequestRoundTripFuzz)
{
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        Rng rng(seed);
        for (const Request &req : randomRequests(rng)) {
            const MsgKind kind = requestKind(req);
            const std::vector<std::uint8_t> bytes =
                encodeRequestPayload(req);
            Request decoded;
            std::string err;
            ASSERT_TRUE(decodeRequestPayload(
                kind, bytes.data(), bytes.size(), decoded, err))
                << "seed " << seed << ": " << err;
            // Canonical encoding: decode then re-encode reproduces
            // the exact bytes (this is what content addressing needs).
            EXPECT_EQ(encodeRequestPayload(decoded), bytes)
                << "seed " << seed << " kind "
                << unsigned(kind);
            EXPECT_EQ(requestKey(kind, bytes),
                      requestKey(kind, encodeRequestPayload(decoded)));
        }
    }
}

TEST(Wire, ResponseRoundTripFuzz)
{
    for (std::uint64_t seed = 100; seed < 116; ++seed) {
        Rng rng(seed);
        for (const Response &resp : randomResponses(rng)) {
            const MsgKind kind = responseKind(resp);
            const std::vector<std::uint8_t> bytes =
                encodeResponsePayload(resp);
            Response decoded;
            std::string err;
            ASSERT_TRUE(decodeResponsePayload(
                kind, bytes.data(), bytes.size(), decoded, err))
                << "seed " << seed << ": " << err;
            EXPECT_EQ(encodeResponsePayload(decoded), bytes)
                << "seed " << seed << " kind "
                << unsigned(kind);
        }
    }
}

TEST(Wire, TruncatedPayloadsAreRejectedAtEveryLength)
{
    Rng rng(7);
    for (const Decodable &d : decodables(rng)) {
        std::string err;
        ASSERT_TRUE(d.decode(d.bytes.data(), d.bytes.size(), err))
            << d.name << ": " << err;
        for (std::size_t len = 0; len < d.bytes.size(); ++len) {
            EXPECT_FALSE(d.decode(d.bytes.data(), len, err))
                << d.name << " prefix " << len << "/" << d.bytes.size();
        }
    }
}

TEST(Wire, TrailingBytesAreRejected)
{
    Rng rng(8);
    for (const Decodable &d : decodables(rng)) {
        std::vector<std::uint8_t> bytes = d.bytes;
        bytes.push_back(0);
        std::string err;
        EXPECT_FALSE(d.decode(bytes.data(), bytes.size(), err))
            << d.name;
        EXPECT_FALSE(err.empty()) << d.name;
    }
    const Request req = RoSweepJob{};
    std::vector<std::uint8_t> bytes = encodeRequestPayload(req);
    bytes.push_back(0);
    Request decoded;
    std::string err;
    EXPECT_FALSE(decodeRequestPayload(requestKind(req), bytes.data(),
                                      bytes.size(), decoded, err));
    EXPECT_NE(err.find("trailing"), std::string::npos);
}

TEST(Wire, FrameParsingHandlesPartialBadAndOversized)
{
    const std::vector<std::uint8_t> payload =
        encodeRequestPayload(Request(GuestRunJob{}));
    const std::vector<std::uint8_t> framed =
        frameMessage(MsgKind::kGuestRun, payload);

    Frame frame;
    std::size_t consumed = 0;
    // Every strict prefix is kNeedMore, never kOk and never an error.
    for (std::size_t len = 0; len < framed.size(); ++len) {
        EXPECT_EQ(parseFrame(framed.data(), len, frame, consumed),
                  FrameStatus::kNeedMore)
            << "prefix " << len;
        EXPECT_EQ(consumed, 0u);
    }
    ASSERT_EQ(parseFrame(framed.data(), framed.size(), frame,
                         consumed),
              FrameStatus::kOk);
    EXPECT_EQ(consumed, framed.size());
    EXPECT_EQ(frame.kind, MsgKind::kGuestRun);
    EXPECT_EQ(frame.payload, payload);

    std::vector<std::uint8_t> bad_magic = framed;
    bad_magic[0] ^= 0xff;
    EXPECT_EQ(parseFrame(bad_magic.data(), bad_magic.size(), frame,
                         consumed),
              FrameStatus::kBadMagic);

    std::vector<std::uint8_t> oversized = framed;
    const std::uint32_t huge = kMaxFramePayload + 1;
    std::memcpy(oversized.data() + 8, &huge, 4);
    EXPECT_EQ(parseFrame(oversized.data(), oversized.size(), frame,
                         consumed),
              FrameStatus::kOversized);
}

TEST(Wire, VersionMismatchConsumesTheFrame)
{
    const std::vector<std::uint8_t> payload =
        encodeRequestPayload(Request(RoSweepJob{}));
    std::vector<std::uint8_t> framed =
        frameMessage(MsgKind::kRoSweep, payload);
    const std::uint16_t wrong = kWireVersion + 1;
    std::memcpy(framed.data() + 4, &wrong, 2);
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(parseFrame(framed.data(), framed.size(), frame,
                         consumed),
              FrameStatus::kVersionMismatch);
    // Consuming the whole frame keeps the stream in sync so the
    // server can answer with a typed error instead of hanging.
    EXPECT_EQ(consumed, framed.size());
    EXPECT_EQ(frame.version, wrong);
}

/** Little-endian bytes of `v`, `n` of them. */
void
appendLe(std::vector<std::uint8_t> &out, std::uint64_t v, int n)
{
    for (int i = 0; i < n; ++i)
        out.push_back(std::uint8_t(v >> (8 * i)));
}

/**
 * A 20-byte swarm reply that claims 0xFFFFFFFF blocks, with a device
 * count that agrees with it, and nothing after the count.
 */
std::vector<std::uint8_t>
hostileSwarmReply()
{
    std::vector<std::uint8_t> bytes;
    appendLe(bytes, 0, 8); // firstBlock
    appendLe(bytes, 0xFFFFFFFFull * swarm::kSwarmBlock, 8); // devices
    appendLe(bytes, 0xFFFFFFFFu, 4); // block count
    return bytes;
}

TEST(Wire, HostileCountsAreTypedErrorsNotAllocations)
{
    const std::vector<std::uint8_t> swarm = hostileSwarmReply();
    ASSERT_EQ(swarm.size(), 20u);
    Response resp;
    std::string err;
    bool ok = true;
    EXPECT_NO_THROW(ok = decodeResponsePayload(MsgKind::kSwarmReply,
                                               swarm.data(), swarm.size(),
                                               resp, err));
    EXPECT_FALSE(ok);
    EXPECT_FALSE(err.empty());

    std::vector<std::uint8_t> lint;
    appendLe(lint, 0, 4);           // empty image name
    appendLe(lint, 0xFFFFFFFFu, 4); // code word count
    Request req;
    err.clear();
    ok = true;
    EXPECT_NO_THROW(ok = decodeRequestPayload(MsgKind::kLintImage,
                                              lint.data(), lint.size(),
                                              req, err));
    EXPECT_FALSE(ok);
    EXPECT_FALSE(err.empty());
}

TEST(Wire, BoolFieldsRejectBytesOtherThanZeroAndOne)
{
    core::Performance perf;
    perf.realizable = true;
    std::vector<std::uint8_t> bytes =
        encodeResponsePayload(DesignPointResult{perf});
    ASSERT_EQ(bytes.front(), 1u); // realizable leads the payload
    Response resp;
    std::string err;
    ASSERT_TRUE(decodeResponsePayload(MsgKind::kDesignPointReply,
                                      bytes.data(), bytes.size(), resp,
                                      err))
        << err;
    bytes.front() = 2;
    EXPECT_FALSE(decodeResponsePayload(MsgKind::kDesignPointReply,
                                       bytes.data(), bytes.size(), resp,
                                       err));
    EXPECT_FALSE(err.empty());
}

TEST(Wire, RequestKeyDistinguishesKindAndContent)
{
    GuestRunJob a;
    GuestRunJob b = a;
    b.workload.seed += 1;
    const auto pa = encodeRequestPayload(Request(a));
    const auto pb = encodeRequestPayload(Request(b));
    EXPECT_NE(requestKey(MsgKind::kGuestRun, pa),
              requestKey(MsgKind::kGuestRun, pb));
    // Same payload bytes under a different kind must address
    // differently too.
    EXPECT_NE(requestKey(MsgKind::kGuestRun, pa),
              requestKey(MsgKind::kTorture, pa));
}

// --- frozen v3 wire bytes --------------------------------------------

/** One canonical payload, named for the golden table. */
struct GoldenPayload {
    std::string name;
    std::vector<std::uint8_t> bytes;
};

/**
 * One fixed request and one fixed reply of each of the nine message
 * kinds (guest runs with allowDbt 0 and 1, plus the error reply),
 * encoded with the current codecs.
 */
std::vector<GoldenPayload>
goldenPayloads()
{
    std::vector<GoldenPayload> out;
    const auto request = [&out](const std::string &name,
                                const Request &req) {
        out.push_back({name, encodeRequestPayload(req)});
    };
    const auto reply = [&out](const std::string &name,
                              const Response &resp) {
        out.push_back({name, encodeResponsePayload(resp)});
    };

    RoSweepJob ro;
    ro.tech = "65nm";
    ro.stages = 31;
    ro.cell = 1;
    ro.speed = 0.95;
    ro.tempC = 85.0;
    ro.vStart = 0.5;
    ro.vEnd = 1.5;
    ro.vStep = 0.25;
    request("ro_sweep", ro);

    DesignPointJob dp;
    dp.tech = "130nm";
    dp.config.roStages = 15;
    dp.config.sampleRate = 2.5e3;
    dp.config.counterBits = 10;
    dp.config.strategy = 1;
    request("design_point", dp);

    DseShardJob dse;
    dse.populationSize = 32;
    dse.generations = 6;
    dse.seed = 0xabcdef;
    dse.fixedRate = 5e3;
    dse.exploreDivider = 1;
    request("dse_shard", dse);

    TortureJob torture;
    torture.workload.kind = WorkloadSpec::Kind::kFir;
    torture.workload.a = 8;
    torture.workload.b = 64;
    torture.workload.seed = 9;
    torture.sramSize = 2048;
    torture.killsPerWindow = 3;
    torture.exhaustivePoints = 1000;
    torture.pointOffset = 250;
    torture.pointCount = 500;
    torture.coverageMap = 1;
    request("torture", torture);

    GuestRunJob guest;
    guest.workload.kind = WorkloadSpec::Kind::kSort;
    guest.workload.a = 64;
    guest.workload.seed = 3;
    request("guest_run_dbt", guest);
    guest.allowDbt = 0;
    request("guest_run_interp", guest);

    LintImageJob lint;
    lint.name = "golden";
    lint.code = {0x00000013u, 0x00100073u, 0xdeadbeefu};
    lint.emitPruning = 0;
    request("lint_image", lint);

    SwarmJob swarm;
    swarm.deviceCount = 4096;
    swarm.firstDevice = 1024;
    swarm.spanDevices = 2048;
    swarm.seed = 77;
    swarm.profile = 4;
    swarm.anomalyEvery = 50;
    swarm.traceCsv = "t,v\n0,1.5\n";
    request("swarm", swarm);

    PingJob ping;
    ping.nonce = 0x0123456789abcdefull;
    out.push_back({"ping", encodeControl(ping)});
    // One whole frame pins the v3 header layout too.
    out.push_back(
        {"ping_frame", frameMessage(MsgKind::kPing, out.back().bytes)});

    CacheInsertJob insert;
    insert.key = 0xfeedfacecafebeefull;
    insert.kind = std::uint16_t(MsgKind::kGuestRunReply);
    insert.payload = {1, 2, 3, 4};
    out.push_back({"cache_insert", encodeControl(insert)});

    RoSweepResult ro_res;
    ro_res.frequenciesHz = {1.25e6, 2.5e6, 5e6};
    reply("ro_sweep_reply", ro_res);

    core::Performance perf;
    perf.realizable = true;
    perf.rejectReason = "none";
    perf.meanCurrent = 1.5e-7;
    perf.sampleRate = 1e3;
    perf.granularity = 0.0125;
    perf.nvmBytes = 49;
    perf.transistors = 1234;
    perf.quantizationError = 0.01;
    perf.thermalError = 0.02;
    perf.interpolationError = 0.03;
    reply("design_point_reply", DesignPointResult{perf});

    DseShardResult dse_res;
    dse_res.front.push_back({dp.config, perf});
    reply("dse_shard_reply", dse_res);

    TortureResult torture_res;
    torture_res.cleanCycles = 123456;
    torture_res.checkpoints = 2;
    torture_res.checkpointVolts = 1.87;
    torture_res.points = 2;
    torture_res.killed = 2;
    torture_res.killTears = 1;
    torture_res.correct = 2;
    torture_res.outcomeFlags = {kOutcomeKilled | kOutcomeCorrect,
                                kOutcomeKilled | kOutcomeKillTore};
    torture_res.results = {0x11223344u, 0x55667788u};
    TortureCoverageWire site;
    site.addr = 0x1000;
    site.cls = 2;
    site.rank = 1;
    site.points = 2;
    site.killed = 2;
    site.correct = 2;
    torture_res.coverage.push_back(site);
    reply("torture_reply", torture_res);

    GuestRunResult guest_res;
    guest_res.name = "sort-64";
    guest_res.result = 0xcafef00du;
    guest_res.expected = 0xcafef00du;
    guest_res.correct = 1;
    guest_res.instructions = 98765;
    reply("guest_run_reply", guest_res);

    LintImageResult lint_res;
    lint_res.image = "golden";
    lint_res.errors = 1;
    lint_res.warnings = 2;
    lint_res.notes = 3;
    lint_res.worstCaseCommitCycles = 33000;
    lint_res.budgetCycles = 40000;
    lint_res.staticEnergyBound = 1e-6;
    lint_res.energyBudgetJoules = 2e-6;
    lint_res.reportJson = "{}";
    lint_res.pruningJson = "[]";
    reply("lint_image_reply", lint_res);

    SwarmResult swarm_res;
    swarm_res.agg.firstBlock = 4;
    swarm_res.agg.deviceCount = 8;
    swarm_res.agg.boots = 100;
    swarm_res.agg.checkpoints = 90;
    swarm_res.agg.failedCheckpoints = 1;
    swarm_res.agg.flaggedDevices = 2;
    reply("swarm_reply", swarm_res);
    reply("swarm_reply_populated", populatedSwarmResult());

    PingResult pong;
    pong.nonce = ping.nonce;
    pong.queueDepth = 5;
    pong.cacheEntries = 17;
    pong.draining = 1;
    out.push_back({"ping_reply", encodeControl(pong)});

    CacheInsertResult stored;
    stored.stored = 1;
    out.push_back({"cache_insert_reply", encodeControl(stored)});

    ErrorResult error;
    error.code = ErrorCode::kBadRequest;
    error.message = "bad voltage grid";
    reply("error_reply", error);
    return out;
}

std::string
toHex(const std::vector<std::uint8_t> &bytes)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string hex;
    for (const std::uint8_t b : bytes) {
        hex += kDigits[b >> 4];
        hex += kDigits[b & 0xf];
    }
    return hex;
}

/** The v3 payload bytes, frozen: any codec change that moves a byte
 *  of an existing message kind breaks deployed clients and caches. */
const std::map<std::string, std::string> kGoldenHex = {
    {"ro_sweep",
     "0400000036356e6d1f00000001666666666666ee3f0000000000405540000000"
     "000000e03f000000000000f83f000000000000d03f"},
    {"design_point",
     "050000003133306e6d0f00000000000000000000000088a3400a000000000000"
     "00f168e388b5f8e43e3100000000000000080000000000000001000000000000"
     "00030000000000000001"},
    {"dse_shard",
     "0400000039306e6d2000000006000000efcdab0000000000000000000088b340"
     "01"},
    {"torture",
     "01080000004000000009000000000000000008000060ea000000000000307500"
     "0000000000eeffc0f5000000000300000010000000e803000000000000fa0000"
     "0000000000f40100000000000001"},
    {"guest_run_dbt",
     "024000000000000000030000000000000001"},
    {"guest_run_interp",
     "024000000000000000030000000000000000"},
    {"lint_image",
     "06000000676f6c64656e030000001300000073001000efbeadde00"},
    {"swarm",
     "0010000000000000000400000000000000080000000000004d00000000000000"
     "040000000000000000c082400000000000001440000000000000f03f00000000"
     "0000104010000000020000003200000000000000000000000000d03f0a000000"
     "742c760a302c312e350a"},
    {"ping",
     "efcdab8967452301"},
    {"ping_frame",
     "565253460300060008000000efcdab8967452301"},
    {"cache_insert",
     "efbefecacefaedfe05800400000001020304"},
    {"ro_sweep_reply",
     "0300000000000000d012334100000000d012434100000000d0125341"},
    {"design_point_reply",
     "01040000006e6f6e6576830df4f521843e0000000000408f409a999999999989"
     "3f3100000000000000d2040000000000007b14ae47e17a843f7b14ae47e17a94"
     "3fb81e85eb51b89e3f"},
    {"dse_shard_reply",
     "010000000f00000000000000000000000088a3400a00000000000000f168e388"
     "b5f8e43e31000000000000000800000000000000010000000000000003000000"
     "000000000101040000006e6f6e6576830df4f521843e0000000000408f409a99"
     "99999999893f3100000000000000d2040000000000007b14ae47e17a843f7b14"
     "ae47e17a943fb81e85eb51b89e3f"},
    {"torture_reply",
     "40e201000000000002000000ec51b81e85ebfd3f020000000200000001000000"
     "0000000000000000020000000000000002000000110302000000443322118877"
     "6655010000000010000002010000000200000002000000020000000000000000"
     "00000000000000"},
    {"guest_run_reply",
     "07000000736f72742d36340df0feca0df0feca01cd81010000000000"},
    {"lint_image_reply",
     "06000000676f6c64656e010000000200000003000000e880000000000000409c"
     "0000000000008dedb5a0f7c6b03e8dedb5a0f7c6c03e020000007b7d02000000"
     "5b5d"},
    {"swarm_reply",
     "0400000000000000080000000000000000000000feffffff0400000008000000"
     "3000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000fdffffff0300000008000000"
     "3000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000feffffff0400000008000000"
     "3000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "000000000000000000000000000000000000000040000000656d69746566696c"
     "00000000400000002165636e656461630000000040000000656d697464616564"
     "0000000064000000000000005a00000000000000010000000000000002000000"
     "00000000000000000000000000000000000000000000000000000000"},
    {"swarm_reply_populated",
     "00000000000000004c04000000000000030000002134000000000000ec5c49ee"
     "ee7100406a186d6ebfecd04000dd68603443e33f5067e5b60d74344052850000"
     "00000000a761e06bf260e93fd8fc1612ad5da94000e0b5a0f7c6803f10e00bbe"
     "60dbf03f133300000000000054dda6fd793e0240aefc46d5a23b044100bcb33a"
     "7e98e33f70e4ff73bebd30408d34000000000000e9874d748e110040ce46b918"
     "1861d0406052d97aeb38e33fa0ac67b3e7d638400286000000000000fb1288e5"
     "5efee83f1ec628666345aa4000e0b5a0f7c6803f80b4467d13eaf03f6d330000"
     "0000000014ae5934f16a02407ba592ba018004410011ae4370d4e33f2e58a292"
     "f8ba30408b07000000000000d9a018efb61a014028a7011775f1a14000e03b0e"
     "44b9e33fb0c5579e1ed72640d0130000000000009088e20c147de93f76319ca1"
     "dc1a7e4000e0b5a0f7c6803f406fca7936cbf03f6207000000000000b3953f11"
     "ae600240f4f5dbb504ddd74040a8755a9f4fe53f9ec7499ddac33040feffffff"
     "0400000008000000300000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "00000000000000000000000000000000000000000000000000000000ce000000"
     "00000000a9010000000000002e120000000000007527000000000000301a0000"
     "00000000960e000000000000ce06000000000000c20200000000000020010000"
     "000000006a000000000000003100000000000000090000000000000003000000"
     "0000000002000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "00000000000000000000000000000000000000000000000000000000fdffffff"
     "0300000008000000300000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "00000000b800000000000000400000000000000053000000000000006a000000"
     "00000000a500000000000000cb00000000000000440100000000000096010000"
     "0000000033020000000000002a03000000000000ab0400000000000049070000"
     "00000000af11000000000000a80e000000000000d411000000000000e0120000"
     "00000000526c0000000000007756000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "00000000000000000000000000000000000000000000000000000000feffffff"
     "0400000008000000300000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000078010000"
     "00000000e120000000000000f02d000000000000ae1100000000000087000000"
     "000000000a0000000000000014000000000000001e0000000000000021000000"
     "000000002f000000000000008f06000000000000490400000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000040000000"
     "656d69746566696c40000000700200000000000020f93506b126f23fc8000000"
     "000000002f97239563911240bb0000000000000005a87a7dd030f93f02010000"
     "0000000010b820c3c9da054019030000000000008eba6b6f42b0fb3faa020000"
     "00000000fb3e0cbb4b1af93f1401000000000000dd327badd9a20f40d7010000"
     "000000000c78d491ddb506407e030000000000003bb0f1d374571240fd000000"
     "000000005ef945916af2f33f9203000000000000cc0b55f4635df63f07010000"
     "000000001c4cb21f4327044090010000000000006c97c32715cbfe3fa7020000"
     "0000000087f801533ebe0d40ae00000000000000436ffc633078f13f48000000"
     "00000000dae603616128fa3f05010000000000003e96f4a8fc9cf63f79010000"
     "00000000afd09ef53ff203404303000000000000dbf77f1b59bef83fc8030000"
     "00000000c7f9c470fa7afd3f0e02000000000000cf423263144ef33fdc000000"
     "00000000a7fd3c3c0008f53f8203000000000000fe328c88b861f63f00020000"
     "000000007affa2a3e58dfd3f24040000000000008b7d5018f6a20540c3030000"
     "000000009981b4487ce9054008030000000000001d249548daae08402c010000"
     "0000000024cafb02a87efe3f5900000000000000dec14a52fa66044020040000"
     "00000000006df65b365c0040d20100000000000086b93ae86b24084066010000"
     "000000006fd0dd50b6d114403803000000000000ac4ccc5fc1aaf63f3f010000"
     "00000000df528b41d45e0740fd0100000000000092ec9839ba4ffd3fce000000"
     "00000000826ab52eda190c40ec030000000000000d25d650eb300f40d5030000"
     "00000000a46767d4158ffb3f2d04000000000000127ef023fd93024074000000"
     "000000007c7a1274887f0740ed00000000000000bac62b6730dbfd3fcf000000"
     "000000004d5ed105726211401e0400000000000068584f21a9591a409e030000"
     "00000000b564946287a900402a0100000000000016a9bfcd2484014062000000"
     "0000000093e470a7aa2e0340b500000000000000f78700bd18030640d2030000"
     "00000000e39762a7a929f73ff803000000000000bc9dce8d5ed5f63fee030000"
     "00000000307a72abd77104400c03000000000000bb1058536d4d0640d2020000"
     "000000004ef4393c708c1340c601000000000000be573850fc9bfb3fbc020000"
     "000000002833e560f29af53f5b020000000000006811f90c8808f63f27040000"
     "0000000012a7c340de81f93f5a03000000000000e1d0898230fe3040f6030000"
     "000000004d8f7ab1257e00402001000000000000a33e5456358ff33f21040000"
     "00000000aa99ef890f93f73f4d00000000000000784972f27fc9f83f40000000"
     "0000000010837ad1fdc5f53f1900000000000000b3275ce8ef8e0240b1030000"
     "000000009fb0d4a62fa0fc3f400000002165636e65646163400000002e010000"
     "0000000019c0d0a9047fe83fcb000000000000001dc6f917c3a8e93f33020000"
     "00000000bc02f3988c40f03f030000000000000055b7f70f3d14eb3fff000000"
     "00000000d1ac57bd6f7cea3f150000000000000098e8c2ab8065e63f9b030000"
     "000000008d49e3f8adc7ea3f80030000000000002a90ebd95c17d73fe3010000"
     "00000000512639a2381eea3fe70100000000000000914959fd0bec3fb9020000"
     "000000008c3314429ebfe93f1e040000000000004ce087de4aa7ed3f68000000"
     "00000000fbc37a910bf2ea3f2b000000000000005943b7992ab8e93ff9000000"
     "000000008d4b2f3452d6ea3ffc0000000000000082ff7152d8cbeb3fae030000"
     "0000000039ea87742481ea3f0b000000000000005a51a082453dea3f0d020000"
     "000000000fb5f441eb51ec3f7e03000000000000325fa24dbf79ed3f4d000000"
     "000000002f61e4fdd9c2e83f5d010000000000004e6841ba7428eb3f94030000"
     "0000000031da94eb3d41e83fc603000000000000cc7aec6dd3edea3f26010000"
     "000000005ec4fd4e5cebe33fc7020000000000000e1baa0d5722ea3fbd000000"
     "00000000203b572b6876ec3f15040000000000008b11a112678eec3f21010000"
     "00000000d0c92debf3a0ec3f960200000000000031206ea93630e73f25040000"
     "00000000eecbc621d714e63f4d0100000000000076542321e9f5e53f36020000"
     "0000000022a62f93c066eb3f810300000000000062913e108050ef3f3c040000"
     "000000002645d2f2c2ffed3fb60300000000000056d20998996beb3fb7010000"
     "00000000c9dc62158667e23f6b01000000000000f00bb2a605dbe93ffc030000"
     "0000000066a75a0c8b14e53f480000000000000030829f268a84ea3f9c020000"
     "0000000051820c1964f0eb3fcf00000000000000e81e80a84422ed3f2d040000"
     "00000000c39275f01948eb3f4903000000000000486b04c5c54aea3f43020000"
     "000000005e030861b4c3ed3f4902000000000000b89fb53cf501ec3fb0030000"
     "00000000bc1093dfa311eb3ff401000000000000d04955a64a76ea3f78010000"
     "000000001be4a165bc25e83fef01000000000000e6a72e1ca72ce93fc0000000"
     "00000000bbac9fdb9764d63f9200000000000000198c6a00b0f8ea3f2e040000"
     "00000000756ceb2e7e72eb3fb801000000000000e510d5530cb9ef3f88010000"
     "0000000055804d028339ed3f3404000000000000e769d3473a52e83ffe020000"
     "00000000dfe9c9b8fe1bed3f4a0100000000000081fea265671fe43fd3020000"
     "000000000d2a5a9ae67cea3fab02000000000000676d312e2f5fea3f3e010000"
     "00000000b34dbbb63d1fed3f4301000000000000b2bfec0c1ddee83f13030000"
     "000000003c0982035dabe93f480100000000000050b65ecc7ad1e53f40000000"
     "656d69746461656440000000ca0300000000000041e1db29198305404e010000"
     "00000000e07c2d18c959ff3ffe0000000000000050a6f01869590640ba020000"
     "00000000ad1f1edb024701400c04000000000000c2c127aa11670540ae020000"
     "000000003d41d30c8285fe3f8e02000000000000da85145b17500340ed030000"
     "0000000048bbed501de70540a20300000000000076dd89e8ea470f4004040000"
     "000000007fe610314a200340c4010000000000008b15cc28b3affa3f04020000"
     "0000000001c04642dcc1ff3f6903000000000000d68ddcf63e47024070000000"
     "0000000099daaf1a4df6fb3ffd00000000000000aa2543d953480140f4000000"
     "000000008b3d95b90251fe3fdf0000000000000019f7df872d81fd3f70030000"
     "000000004f37e011332107400e00000000000000085d3afd3e2c0140eb020000"
     "000000004b87a8cfd62603406800000000000000d21d1bd69e9c004048030000"
     "0000000083b9d80c5c500140cb0100000000000054e752fa7d7f0540c6020000"
     "00000000bcc6baa378bb01406f030000000000001f3379e34f2f00402e030000"
     "00000000ae169445a5a2fb3f5b03000000000000e94e61521d8c074095020000"
     "0000000067094245eaa1fa3f2802000000000000df51336d3b9d0040a4010000"
     "00000000eedca1d172b107406202000000000000e25ecc55f820f93fc7010000"
     "00000000bcfed01213f60040c60100000000000075a27f59875401400f030000"
     "000000003d08a263d48c0640e10000000000000071ac1bf17d210840e5030000"
     "000000009503b7a85bb30040d900000000000000f7c531b3512efd3fcc020000"
     "0000000092345cc654b2044001020000000000004faea47933ad064042000000"
     "00000000613879f8f5b400402c020000000000002bb34c849838024082030000"
     "00000000527102f4ac1506404504000000000000a79b4be45e74044067000000"
     "0000000013b105f962850840fe030000000000001d8fe08f16620140a5020000"
     "000000006475386f29f302404f03000000000000519f2631419f0040f2030000"
     "00000000c1aef2a53ad10840e3030000000000000f3aa1595d850340e7030000"
     "000000008733415c722003408903000000000000c4505caacbda07407f000000"
     "0000000025eeca4858170140a902000000000000fa32937001c5034009030000"
     "00000000fec574ff8cf1fc3f10020000000000009a968ccd956a0a40b6010000"
     "0000000076d173479f9700401f00000000000000dc23dd41427cfb3f85030000"
     "000000002e44ff8721920440ea00000000000000d4f60d119babfb3f06040000"
     "000000003f532bca80e700406203000000000000f6f469cf6f9604402b020000"
     "000000005ee296acca5ff93fa00100000000000061f20ac7b596004094020000"
     "00000000690c8c9e541605402e72000000000000241f01000000000007070000"
     "000000000c0000000000000012000000000000000c0000000000000000000000"
     "00000000"},
    {"ping_reply",
     "efcdab896745230105000000110000000000000001"},
    {"cache_insert_reply",
     "01"},
    {"error_reply",
     "01001000000062616420766f6c746167652067726964"},
};

TEST(Wire, V3PayloadBytesAreFrozen)
{
    const std::vector<GoldenPayload> payloads = goldenPayloads();
    EXPECT_EQ(payloads.size(), kGoldenHex.size());
    for (const GoldenPayload &g : payloads) {
        const auto it = kGoldenHex.find(g.name);
        ASSERT_NE(it, kGoldenHex.end()) << g.name;
        EXPECT_EQ(toHex(g.bytes), it->second) << g.name;
    }
    // The guest-run tier byte is the only difference between the two
    // guest requests: 1 = DBT allowed, 0 = interpreter only.
    const std::string &dbt = kGoldenHex.at("guest_run_dbt");
    const std::string &interp = kGoldenHex.at("guest_run_interp");
    ASSERT_EQ(dbt.size(), interp.size());
    EXPECT_EQ(dbt.substr(0, dbt.size() - 2),
              interp.substr(0, interp.size() - 2));
    EXPECT_EQ(dbt.substr(dbt.size() - 2), "01");
    EXPECT_EQ(interp.substr(interp.size() - 2), "00");
    // The populated swarm entry pins Welford, bucket and reservoir
    // bytes, which the empty swarm_reply entry does not.
    const swarm::SwarmAggregates &agg = populatedSwarmResult().agg;
    EXPECT_GE(agg.blocks.size(), 2u);
    EXPECT_GT(agg.lifetimeHist.total(), 0u);
    EXPECT_GT(agg.cadenceHist.total(), 0u);
    EXPECT_FALSE(agg.lifetimeSample.sorted().empty());
    EXPECT_FALSE(agg.deadSample.sorted().empty());
}

// --- result cache ----------------------------------------------------

std::vector<std::uint8_t>
payloadOfSize(std::size_t n, std::uint8_t fill)
{
    return std::vector<std::uint8_t>(n, fill);
}

TEST(ResultCache, EvictsLeastRecentlyUsedByBytes)
{
    ResultCache cache(250);
    cache.insert(1, MsgKind::kErrorReply, payloadOfSize(100, 1));
    cache.insert(2, MsgKind::kErrorReply, payloadOfSize(100, 2));
    MsgKind kind;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(cache.lookup(1, kind, payload)); // 1 is now MRU
    cache.insert(3, MsgKind::kErrorReply, payloadOfSize(100, 3));
    EXPECT_TRUE(cache.lookup(1, kind, payload));
    EXPECT_FALSE(cache.lookup(2, kind, payload)); // LRU victim
    ASSERT_TRUE(cache.lookup(3, kind, payload));
    EXPECT_EQ(payload, payloadOfSize(100, 3));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_LE(cache.bytesUsed(), 250u);
}

TEST(ResultCache, SpillDirectorySurvivesRestartAndRejectsCorruption)
{
    const std::string dir = testing::TempDir() + "fs_spill_test";
    const std::vector<std::uint8_t> payload = payloadOfSize(64, 0xab);
    {
        ResultCache cache(1 << 20, dir);
        cache.insert(42, MsgKind::kGuestRunReply, payload);
    }
    ResultCache fresh(1 << 20, dir);
    MsgKind kind;
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(fresh.lookup(42, kind, got));
    EXPECT_EQ(kind, MsgKind::kGuestRunReply);
    EXPECT_EQ(got, payload);
    EXPECT_EQ(fresh.stats().diskHits, 1u);
    // Promoted into memory: the second lookup is a memory hit.
    ASSERT_TRUE(fresh.lookup(42, kind, got));
    EXPECT_EQ(fresh.stats().hits, 1u);

    // A corrupt spill file is a miss, not a crash or a wrong answer.
    ResultCache other(1 << 20, dir);
    {
        std::ofstream out(other.spillPath(43), std::ios::binary);
        out << "garbage that is not a frame";
    }
    EXPECT_FALSE(other.lookup(43, kind, got));
    std::remove(other.spillPath(42).c_str());
    std::remove(other.spillPath(43).c_str());
}

TEST(ResultCache, DiscardsBitFlippedAndTruncatedSpillFiles)
{
    const std::string dir = testing::TempDir() + "fs_spill_damage";
    const std::vector<std::uint8_t> payload = payloadOfSize(96, 0x5a);
    MsgKind kind;
    std::vector<std::uint8_t> got;

    // Bit rot: flip one payload bit on disk. The digest trailer must
    // catch it -- a miss and a deleted file, never the damaged bytes.
    {
        ResultCache cache(1 << 20, dir);
        cache.insert(7, MsgKind::kGuestRunReply, payload);
    }
    {
        ResultCache victim(1 << 20, dir);
        const std::string path = victim.spillPath(7);
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open());
        f.seekg(20); // inside the payload, past the frame header
        char byte;
        f.get(byte);
        f.seekp(20);
        f.put(char(byte ^ 0x10));
        f.close();
        EXPECT_FALSE(victim.lookup(7, kind, got));
        EXPECT_EQ(victim.stats().spillDiscarded, 1u);
        std::ifstream gone(path, std::ios::binary);
        EXPECT_FALSE(gone.is_open()) << "corrupt file must be deleted";
        // The miss is recoverable: a fresh insert republishes.
        victim.insert(7, MsgKind::kGuestRunReply, payload);
    }

    // Crash mid-write: truncate at every possible length. Each prefix
    // is a miss (detected via digest or frame length), never a crash.
    {
        ResultCache cache(1 << 20, dir);
        const std::string path = cache.spillPath(7);
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.is_open());
        std::vector<char> bytes(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        in.close();
        for (std::size_t keep = 0; keep < bytes.size(); keep += 7) {
            {
                std::ofstream out(path, std::ios::binary);
                out.write(bytes.data(), std::streamsize(keep));
            }
            ResultCache fresh(1 << 20, dir);
            EXPECT_FALSE(fresh.lookup(7, kind, got))
                << "prefix " << keep << "/" << bytes.size();
            EXPECT_EQ(fresh.stats().spillDiscarded, 1u);
        }
        // And the undamaged file still loads.
        {
            std::ofstream out(path, std::ios::binary);
            out.write(bytes.data(), std::streamsize(bytes.size()));
        }
        ResultCache fresh(1 << 20, dir);
        ASSERT_TRUE(fresh.lookup(7, kind, got));
        EXPECT_EQ(kind, MsgKind::kGuestRunReply);
        EXPECT_EQ(got, payload);
        std::remove(path.c_str());
    }
}

// --- engine determinism ----------------------------------------------

/** Small-but-real jobs, one of each type. */
std::vector<Request>
sampleJobs()
{
    RoSweepJob ro;
    ro.vStart = 0.4;
    ro.vEnd = 1.2;
    ro.vStep = 0.1;

    DesignPointJob dp;

    DseShardJob dse;
    dse.populationSize = 24;
    dse.generations = 2;

    TortureJob torture;
    torture.workload.kind = WorkloadSpec::Kind::kCrc32;
    torture.workload.a = 1024;
    torture.randomKills = 4;

    GuestRunJob guest;
    guest.workload.kind = WorkloadSpec::Kind::kSort;
    guest.workload.a = 64;

    LintImageJob lint;
    lint.name = "demo-war";
    for (const analysis::LintImage &image : analysis::lintImages())
        if (image.name == lint.name)
            lint.code = image.code;

    return {ro, dp, dse, torture, guest, lint};
}

Engine::Options
engineOptions(std::size_t threads)
{
    Engine::Options opts;
    opts.threads = threads;
    return opts;
}

TEST(Engine, ColdCachedAndBatchedBytesAreIdenticalAcrossThreads)
{
    Engine one(engineOptions(1));
    Engine eight(engineOptions(8));
    const std::vector<Request> jobs = sampleJobs();

    std::vector<std::vector<std::uint8_t>> cold;
    for (const Request &req : jobs) {
        const ServedResponse a = one.serve(req);
        EXPECT_FALSE(a.fromCache);
        EXPECT_NE(a.kind, MsgKind::kErrorReply);
        const ServedResponse b = one.serve(req);
        EXPECT_TRUE(b.fromCache);
        EXPECT_EQ(a.payload, b.payload);
        EXPECT_EQ(a.kind, b.kind);
        cold.push_back(a.payload);
    }
    // 8 worker threads, fresh cache: byte-identical to 1 thread.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ServedResponse r = eight.serve(jobs[i]);
        EXPECT_FALSE(r.fromCache);
        EXPECT_EQ(r.payload, cold[i]) << "job " << i;
    }
    // Batched with duplicates, fresh engine: same bytes again, and
    // the duplicate is answered from the in-batch dedupe.
    Engine batcher(engineOptions(8));
    std::vector<Request> batch = jobs;
    batch.push_back(jobs[2]); // duplicate DSE shard
    const std::vector<ServedResponse> served =
        batcher.serveBatch(batch);
    ASSERT_EQ(served.size(), jobs.size() + 1);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(served[i].payload, cold[i]) << "job " << i;
    EXPECT_TRUE(served.back().fromCache);
    EXPECT_EQ(served.back().payload, cold[2]);
}

TEST(Engine, KillSwitchBypassesTheCache)
{
    ::setenv("FS_NO_SERVE_CACHE", "1", 1);
    Engine engine(engineOptions(1));
    const Request req = sampleJobs()[0];
    const ServedResponse a = engine.serve(req);
    const ServedResponse b = engine.serve(req);
    ::unsetenv("FS_NO_SERVE_CACHE");
    EXPECT_FALSE(a.fromCache);
    EXPECT_FALSE(b.fromCache);
    EXPECT_EQ(a.payload, b.payload); // determinism, not the cache
    EXPECT_EQ(engine.cache().entryCount(), 0u);
    // With the switch lifted the same engine caches again.
    const ServedResponse c = engine.serve(req);
    EXPECT_FALSE(c.fromCache);
    const ServedResponse d = engine.serve(req);
    EXPECT_TRUE(d.fromCache);
    EXPECT_EQ(c.payload, a.payload);
    EXPECT_EQ(d.payload, a.payload);
}

TEST(Engine, UndecodableAndInvalidRequestsAreTypedErrors)
{
    Engine engine(engineOptions(1));
    // Garbage payload bytes: kBadRequest, and never cached.
    const std::vector<std::uint8_t> junk = {1, 2, 3};
    const ServedResponse r = engine.serve(MsgKind::kRoSweep, junk);
    EXPECT_EQ(r.kind, MsgKind::kErrorReply);
    EXPECT_EQ(engine.cache().entryCount(), 0u);

    // Unknown technology: a typed error from execution.
    RoSweepJob job;
    job.tech = "13nm";
    const Response resp = engine.execute(job);
    const auto *err = std::get_if<ErrorResult>(&resp);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, ErrorCode::kBadRequest);
}

TEST(Engine, NonFiniteRoSweepInputsAreTypedErrors)
{
    Engine engine(engineOptions(1));
    const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
    double RoSweepJob::*const kFields[] = {
        &RoSweepJob::vStart, &RoSweepJob::vEnd, &RoSweepJob::vStep,
        &RoSweepJob::speed, &RoSweepJob::tempC};
    for (double RoSweepJob::*field : kFields) {
        for (const double bad : kBad) {
            RoSweepJob job;
            job.*field = bad;
            const Response resp = engine.execute(job);
            const auto *err = std::get_if<ErrorResult>(&resp);
            ASSERT_NE(err, nullptr) << bad;
            EXPECT_EQ(err->code, ErrorCode::kBadRequest) << bad;
        }
    }
    // Finite endpoints whose span overflows the step count.
    RoSweepJob huge;
    huge.vStart = -1e308;
    huge.vEnd = 1e308;
    huge.vStep = 1e-300;
    const Response resp = engine.execute(huge);
    const auto *err = std::get_if<ErrorResult>(&resp);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, ErrorCode::kBadRequest);
}

TEST(Engine, LintImageJobIsServedDeterministicallyAndValidated)
{
    Engine engine(engineOptions(2));
    LintImageJob job;
    job.name = "checkpoint-runtime";
    for (const analysis::LintImage &image : analysis::lintImages())
        if (image.name == job.name)
            job.code = image.code;
    ASSERT_FALSE(job.code.empty());

    const ServedResponse cold = engine.serve(Request(job));
    EXPECT_FALSE(cold.fromCache);
    ASSERT_EQ(cold.kind, MsgKind::kLintImageReply);
    const ServedResponse cached = engine.serve(Request(job));
    EXPECT_TRUE(cached.fromCache);
    EXPECT_EQ(cached.payload, cold.payload);

    Response resp;
    std::string err;
    ASSERT_TRUE(decodeResponsePayload(MsgKind::kLintImageReply,
                                      cold.payload.data(),
                                      cold.payload.size(), resp, err))
        << err;
    const auto *result = std::get_if<LintImageResult>(&resp);
    ASSERT_NE(result, nullptr);
    // The served certificate matches what the local linter proves:
    // a clean runtime whose commit path fits both budgets.
    EXPECT_EQ(result->image, "checkpoint-runtime");
    EXPECT_EQ(result->errors, 0u);
    EXPECT_GT(result->worstCaseCommitCycles, 5'000u);
    EXPECT_LE(result->worstCaseCommitCycles, result->budgetCycles);
    EXPECT_GT(result->staticEnergyBound, 0.0);
    EXPECT_LE(result->staticEnergyBound, result->energyBudgetJoules);
    // The served path is the deterministic one: wall-clock timing is
    // zeroed so identical images produce identical bytes.
    EXPECT_NE(result->reportJson.find("\"analysis_seconds\":0"),
              std::string::npos);

    // Tampered code under a registry name is refused, not linted.
    LintImageJob tampered = job;
    tampered.code[0] ^= 1u;
    const Response bad = engine.execute(Request(tampered));
    const auto *error = std::get_if<ErrorResult>(&bad);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->code, ErrorCode::kBadRequest);

    LintImageJob unknown = job;
    unknown.name = "no-such-image";
    const Response miss = engine.execute(Request(unknown));
    ASSERT_NE(std::get_if<ErrorResult>(&miss), nullptr);
}

// --- live socket -----------------------------------------------------

std::string
testSocketPath(const char *tag)
{
    return "/tmp/fs_serve_test_" + std::to_string(::getpid()) + "_" +
           tag + ".sock";
}

TEST(Server, ServesEveryJobTypeByteIdenticalToDirectExecution)
{
    Server::Options opts;
    opts.socketPath = testSocketPath("jobs");
    opts.engine.threads = 2;
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    Engine direct(engineOptions(2));
    Client client;
    ASSERT_TRUE(client.connect(opts.socketPath, err)) << err;
    for (const Request &req : sampleJobs()) {
        Frame reply;
        ASSERT_TRUE(client.call(requestKind(req),
                                encodeRequestPayload(req), reply,
                                err))
            << err;
        const Response expect = direct.execute(req);
        EXPECT_EQ(reply.kind, responseKind(expect));
        EXPECT_EQ(reply.payload, encodeResponsePayload(expect));
    }
    // Same requests again: served from the daemon's cache, same bytes.
    for (const Request &req : sampleJobs()) {
        Response resp;
        ASSERT_TRUE(client.call(req, resp, err)) << err;
        EXPECT_EQ(encodeResponsePayload(resp),
                  encodeResponsePayload(direct.execute(req)));
    }
    client.close();
    server.stop();
    const Server::Stats stats = server.stats();
    EXPECT_EQ(stats.requests, 2 * sampleJobs().size());
    EXPECT_EQ(stats.errors, 0u);
}

TEST(Server, AnswersVersionMismatchWithTypedError)
{
    Server::Options opts;
    opts.socketPath = testSocketPath("version");
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    // Hand-crafted frame from a "future" client version.
    std::vector<std::uint8_t> framed = frameMessage(
        MsgKind::kRoSweep, encodeRequestPayload(Request(RoSweepJob{})));
    const std::uint16_t wrong = kWireVersion + 7;
    std::memcpy(framed.data() + 4, &wrong, 2);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts.socketPath.c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    ASSERT_EQ(::send(fd, framed.data(), framed.size(), 0),
              ssize_t(framed.size()));

    std::vector<std::uint8_t> buf;
    Frame reply;
    std::size_t consumed = 0;
    for (;;) {
        std::uint8_t chunk[512];
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        ASSERT_GT(n, 0) << "server closed without replying";
        buf.insert(buf.end(), chunk, chunk + n);
        if (parseFrame(buf.data(), buf.size(), reply, consumed) ==
            FrameStatus::kOk)
            break;
    }
    ::close(fd);
    server.stop();

    ASSERT_EQ(reply.kind, MsgKind::kErrorReply);
    Response resp;
    std::string decode_err;
    ASSERT_TRUE(decodeResponsePayload(reply.kind,
                                      reply.payload.data(),
                                      reply.payload.size(), resp,
                                      decode_err));
    const auto *error = std::get_if<ErrorResult>(&resp);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->code, ErrorCode::kVersionMismatch);
    EXPECT_EQ(server.stats().versionMismatches, 1u);
}

TEST(Server, HostileCacheInsertIsRefusedAndPingsStillAnswer)
{
    Server::Options opts;
    opts.socketPath = testSocketPath("hostile");
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    Client client;
    ASSERT_TRUE(client.connect(opts.socketPath, err)) << err;
    CacheInsertJob insert;
    insert.key = 0x5eed;
    insert.kind = std::uint16_t(MsgKind::kSwarmReply);
    insert.payload = hostileSwarmReply();
    bool stored = true;
    ASSERT_TRUE(client.cacheInsert(insert, stored, err)) << err;
    EXPECT_FALSE(stored);

    PingResult pong;
    ASSERT_TRUE(client.ping(pong, err)) << err;
    client.close();
    server.stop();
    EXPECT_EQ(server.stats().cacheInserts, 0u);
    EXPECT_EQ(server.stats().pings, 1u);
}

TEST(Server, DrainsQueuedRequestsOnStop)
{
    Server::Options opts;
    opts.socketPath = testSocketPath("drain");
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    Client client;
    ASSERT_TRUE(client.connect(opts.socketPath, err)) << err;
    // Pipeline several requests, then stop the server from another
    // thread while replies are still in flight: every request that
    // reached the queue must still be answered before the socket
    // closes.
    GuestRunJob job;
    job.workload.a = 512;
    const std::vector<std::uint8_t> payload =
        encodeRequestPayload(Request(job));
    Frame first;
    ASSERT_TRUE(
        client.call(MsgKind::kGuestRun, payload, first, err))
        << err;
    std::thread stopper([&server] { server.stop(); });
    stopper.join();
    EXPECT_EQ(first.kind, MsgKind::kGuestRunReply);
    EXPECT_FALSE(server.running());
}

TEST(Client, CallRetryReconnectsAfterDaemonRestart)
{
    const std::string path = testSocketPath("restart");
    std::string err;

    Server::Options opts;
    opts.socketPath = path;
    auto first = std::make_unique<Server>(opts);
    ASSERT_TRUE(first->start(err)) << err;

    const Request req = sampleJobs()[4]; // guest run: cheap
    Client client;
    ASSERT_TRUE(client.connect(path, err)) << err;
    Response before;
    ASSERT_TRUE(client.call(req, before, err)) << err;

    // Kill the daemon mid-session. The live connection is now dead;
    // a plain call() must fail with a typed transport error ...
    first->stop();
    first.reset();
    Response resp;
    EXPECT_FALSE(client.call(req, resp, err));
    EXPECT_FALSE(client.connected());

    // ... and callRetry() must ride out the outage: back off, re-dial
    // the same endpoint, and return byte-identical results once a
    // relaunched daemon binds the socket again.
    std::thread relauncher([&path] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        Server::Options ropts;
        ropts.socketPath = path;
        Server second(ropts);
        std::string serr;
        ASSERT_TRUE(second.start(serr)) << serr;
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        second.stop();
    });
    RetryPolicy policy;
    policy.maxAttempts = 10;
    policy.backoffBaseMs = 10;
    policy.backoffMaxMs = 80;
    ASSERT_TRUE(client.callRetry(req, resp, policy, err)) << err;
    relauncher.join();
    EXPECT_EQ(encodeResponsePayload(resp),
              encodeResponsePayload(before));
}

TEST(Client, ExploreDesignSpaceServedFallsBackLocally)
{
    // No FS_SERVE_SOCKET: the wrapper must be a transparent local
    // call with an identical front.
    ::unsetenv("FS_SERVE_SOCKET");
    dse::Nsga2::Options opts;
    opts.populationSize = 24;
    opts.generations = 2;
    const auto local = dse::exploreDesignSpace(
        circuit::Technology::node90(), opts);
    const auto served = exploreDesignSpaceServed(
        circuit::Technology::node90(), opts);
    ASSERT_EQ(served.size(), local.size());
    for (std::size_t i = 0; i < local.size(); ++i) {
        EXPECT_EQ(served[i].config.summary(),
                  local[i].config.summary());
        EXPECT_DOUBLE_EQ(served[i].perf.meanCurrent,
                         local[i].perf.meanCurrent);
    }
}

TEST(Client, ServedDseMatchesLocalThroughLiveDaemon)
{
    Server::Options opts;
    opts.socketPath = testSocketPath("dse");
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;
    ::setenv("FS_SERVE_SOCKET", opts.socketPath.c_str(), 1);

    dse::Nsga2::Options nsga;
    nsga.populationSize = 24;
    nsga.generations = 2;
    const auto served = exploreDesignSpaceServed(
        circuit::Technology::node90(), nsga);
    ::unsetenv("FS_SERVE_SOCKET");
    server.stop();

    const auto local = dse::exploreDesignSpace(
        circuit::Technology::node90(), nsga);
    ASSERT_EQ(served.size(), local.size());
    for (std::size_t i = 0; i < local.size(); ++i)
        EXPECT_EQ(served[i].config.summary(),
                  local[i].config.summary());
    // The round trip actually used the daemon.
    EXPECT_GE(server.stats().requests, 1u);
}

} // namespace
} // namespace serve
} // namespace fs
