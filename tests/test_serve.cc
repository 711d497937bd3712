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

PerformanceWire
randomPerf(Rng &rng)
{
    PerformanceWire p;
    p.realizable = std::uint8_t(rng.uniformInt(0, 1));
    p.rejectReason = randomString(rng, 24);
    p.meanCurrent = rng.uniform(-1.0, 1.0);
    p.sampleRate = rng.uniform(0.0, 1e7);
    p.granularity = rng.uniform(0.0, 1.0);
    p.nvmBytes = std::uint64_t(rng.uniformInt(0, 1 << 20));
    p.transistors = std::uint64_t(rng.uniformInt(0, 1 << 24));
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

    GuestRunJob guest;
    guest.workload = randomWorkload(rng);
    guest.traceCache = std::uint8_t(rng.uniformInt(0, 1));

    LintImageJob lint;
    lint.name = randomString(rng, 16);
    const std::size_t words =
        std::size_t(rng.uniformInt(1, 48));
    for (std::size_t i = 0; i < words; ++i)
        lint.code.push_back(
            std::uint32_t(rng.uniformInt(0, 0xffffffffLL)));
    lint.emitPruning = std::uint8_t(rng.uniformInt(0, 1));

    return {ro, dp, dse, torture, guest, lint};
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

    return {ro, dp, dse, torture, guest, lint, error};
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
    for (const Request &req : randomRequests(rng)) {
        const MsgKind kind = requestKind(req);
        const std::vector<std::uint8_t> bytes =
            encodeRequestPayload(req);
        for (std::size_t len = 0; len < bytes.size(); ++len) {
            Request decoded;
            std::string err;
            EXPECT_FALSE(decodeRequestPayload(kind, bytes.data(),
                                              len, decoded, err))
                << "prefix " << len << "/" << bytes.size();
        }
    }
}

TEST(Wire, TrailingBytesAreRejected)
{
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
 * kinds (guest runs with traceCache 0 and 1, plus the error reply),
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
    guest.traceCache = 0;
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
    out.push_back({"ping", encodePing(ping)});
    // One whole frame pins the v3 header layout too.
    out.push_back(
        {"ping_frame", frameMessage(MsgKind::kPing, out.back().bytes)});

    CacheInsertJob insert;
    insert.key = 0xfeedfacecafebeefull;
    insert.kind = std::uint16_t(MsgKind::kGuestRunReply);
    insert.payload = {1, 2, 3, 4};
    out.push_back({"cache_insert", encodeCacheInsert(insert)});

    RoSweepResult ro_res;
    ro_res.frequenciesHz = {1.25e6, 2.5e6, 5e6};
    reply("ro_sweep_reply", ro_res);

    PerformanceWire perf;
    perf.realizable = 1;
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

    PingResult pong;
    pong.nonce = ping.nonce;
    pong.queueDepth = 5;
    pong.cacheEntries = 17;
    pong.draining = 1;
    out.push_back({"ping_reply", encodePingResult(pong)});

    CacheInsertResult stored;
    stored.stored = 1;
    out.push_back({"cache_insert_reply", encodeCacheInsertResult(stored)});

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
