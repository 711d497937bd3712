#include "swarm/swarm.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "harvest/trace_csv.h"
#include "util/logging.h"

namespace fs {
namespace swarm {

namespace {

// Fixed fleet-wide sketch geometry. Lifetimes and dead times span
// 10 ms to 10^4 s; checkpoint cadences 1 ms to 10^3 s.
constexpr int kLifeMinExp = -2, kLifeMaxExp = 4;
constexpr int kCadMinExp = -3, kCadMaxExp = 3;
constexpr std::size_t kBucketsPerDecade = 8;
constexpr std::size_t kReservoirK = 64;
// Reservoir priority seeds are fleet-wide constants so the *same*
// device indices are sampled regardless of the campaign seed -- the
// campaign seed already drives what those devices experience.
constexpr std::uint64_t kLifeSampleSeed = 0x6c69666574696d65ull;
constexpr std::uint64_t kCadSampleSeed = 0x636164656e636521ull;
constexpr std::uint64_t kDeadSampleSeed = 0x6465616474696d65ull;

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

struct PendingAudit {
    AuditEvent event;
    std::uint64_t device;
    std::uint64_t a;
    std::uint64_t b;
};

/** Routes one device's events into its block's sketches (and, for the
 *  sampled audit cohort, into the pending audit stream). */
class BlockSink final : public DeviceEventSink
{
  public:
    SwarmAggregates *agg = nullptr;
    std::vector<PendingAudit> *events = nullptr;
    std::uint64_t device = 0;
    bool audit_this = false;

    void
    onLifetime(double s) override
    {
        agg->blocks[0].lifetime.add(s);
        agg->lifetimeHist.add(s);
    }
    void
    onCadence(double s) override
    {
        agg->blocks[0].cadence.add(s);
        agg->cadenceHist.add(s);
    }
    void
    onDeadTime(double s) override
    {
        agg->blocks[0].dead.add(s);
        agg->deadHist.add(s);
    }
    void
    onBoot(std::uint32_t ordinal, double t) override
    {
        if (audit_this)
            events->push_back({AuditEvent::kDeviceUp, device, ordinal,
                               bits(t)});
    }
    void
    onDeath(std::uint32_t ordinal, double t) override
    {
        if (audit_this)
            events->push_back({AuditEvent::kDeviceDown, device,
                               ordinal, bits(t)});
    }
    void
    onFlag(std::uint32_t ckpt, double abs_z) override
    {
        if (audit_this)
            events->push_back({AuditEvent::kAnomalyFlag, device, ckpt,
                               bits(abs_z)});
    }
    void
    onCheckpointFail(std::uint32_t ckpt, double v) override
    {
        if (audit_this)
            events->push_back({AuditEvent::kCheckpointFail, device,
                               ckpt, bits(v)});
    }
};

} // namespace

std::uint64_t
SwarmConfig::spanOrRest() const
{
    if (spanDevices != 0)
        return spanDevices;
    return firstDevice < deviceCount ? deviceCount - firstDevice : 0;
}

SwarmAggregates::SwarmAggregates()
    : lifetimeHist(kLifeMinExp, kLifeMaxExp, kBucketsPerDecade),
      cadenceHist(kCadMinExp, kCadMaxExp, kBucketsPerDecade),
      deadHist(kLifeMinExp, kLifeMaxExp, kBucketsPerDecade),
      lifetimeSample(kReservoirK, kLifeSampleSeed),
      cadenceSample(kReservoirK, kCadSampleSeed),
      deadSample(kReservoirK, kDeadSampleSeed)
{
}

BlockStats
SwarmAggregates::foldStats() const
{
    BlockStats folded;
    for (const BlockStats &b : blocks) {
        folded.lifetime.merge(b.lifetime);
        folded.cadence.merge(b.cadence);
        folded.dead.merge(b.dead);
    }
    return folded;
}

namespace {

/** validateConfig, also handing back the parsed trace (when `trace` is
 *  non-null and the config is valid) so callers parse the CSV once. */
std::string
validateAndParse(const SwarmConfig &cfg, harvest::EnvTrace *trace)
{
    if (cfg.deviceCount == 0)
        return "deviceCount must be >= 1";
    if (cfg.firstDevice % kSwarmBlock != 0)
        return "firstDevice must be a multiple of " +
               std::to_string(kSwarmBlock);
    if (cfg.firstDevice >= cfg.deviceCount)
        return "firstDevice is past the fleet";
    const std::uint64_t span = cfg.spanOrRest();
    if (cfg.firstDevice + span > cfg.deviceCount)
        return "shard extends past the fleet";
    if (span % kSwarmBlock != 0 &&
        cfg.firstDevice + span != cfg.deviceCount)
        return "interior shard span must be a multiple of " +
               std::to_string(kSwarmBlock);
    if (!(cfg.traceSeconds > 0.0) || cfg.traceSeconds > 1e6)
        return "traceSeconds must be in (0, 1e6]";
    if (!(cfg.segmentSeconds > 0.0) ||
        cfg.segmentSeconds > cfg.traceSeconds)
        return "segmentSeconds must be in (0, traceSeconds]";
    if (cfg.traceSeconds / cfg.segmentSeconds > 1e5)
        return "too many segments (traceSeconds/segmentSeconds > 1e5)";
    if (!(cfg.ckptPeriodS >= 0.01) || cfg.ckptPeriodS > 1e4)
        return "ckptPeriodS must be in [0.01, 1e4]";
    if (!(cfg.zThreshold >= 0.5) || cfg.zThreshold > 100.0)
        return "zThreshold must be in [0.5, 100]";
    if (cfg.warmup == 0 || cfg.warmup > 1000000)
        return "warmup must be in [1, 1e6]";
    if (cfg.tripsToFlag == 0 || cfg.tripsToFlag > 100)
        return "tripsToFlag must be in [1, 100]";
    if (!(cfg.anomalyFactor >= 0.01) || cfg.anomalyFactor > 10.0)
        return "anomalyFactor must be in [0.01, 10]";
    if (std::uint32_t(cfg.profile) >
        std::uint32_t(HarvestProfile::kTraceCsv))
        return "unknown harvest profile";
    if (cfg.profile == HarvestProfile::kTraceCsv) {
        if (cfg.traceCsv.empty())
            return "trace profile needs traceCsv";
        harvest::TraceCsvResult parsed =
            harvest::parseEnvTraceCsv(cfg.traceCsv);
        if (!parsed.ok)
            return "traceCsv: " +
                   std::string(harvest::traceCsvStatusName(
                       parsed.error.status)) +
                   " at line " + std::to_string(parsed.error.line) +
                   ": " + parsed.error.message;
        if (trace)
            *trace = std::move(parsed.trace);
    } else if (!cfg.traceCsv.empty()) {
        return "traceCsv is only valid with the trace profile";
    }
    return "";
}

} // namespace

std::string
validateConfig(const SwarmConfig &cfg)
{
    return validateAndParse(cfg, nullptr);
}

SwarmAggregates
runSwarmShard(const SwarmConfig &cfg, util::ThreadPool &pool,
              AuditWriter *audit, std::uint64_t audit_every)
{
    harvest::EnvTrace trace;
    const std::string err = validateAndParse(cfg, &trace);
    if (!err.empty())
        fatal("swarm: ", err);
    if (audit_every == 0)
        audit_every = 1;
    const harvest::EnvTrace *trace_ptr =
        cfg.profile == HarvestProfile::kTraceCsv ? &trace : nullptr;

    const std::uint64_t first = cfg.firstDevice;
    const std::uint64_t span = cfg.spanOrRest();
    const std::uint64_t first_block = first / kSwarmBlock;
    const auto block_count =
        std::size_t((span + kSwarmBlock - 1) / kSwarmBlock);

    const TimingMonitorConfig monitor_cfg{
        cfg.zThreshold, std::size_t(cfg.warmup),
        std::size_t(cfg.tripsToFlag)};

    struct BlockOut {
        SwarmAggregates agg;
        std::vector<PendingAudit> events;
    };

    const bool want_audit = audit != nullptr;
    std::vector<BlockOut> outs = pool.parallelMap(
        block_count, [&](std::size_t bi) {
            BlockOut out;
            const std::uint64_t lo = first + bi * kSwarmBlock;
            const std::uint64_t hi =
                std::min(first + span, lo + kSwarmBlock);
            out.agg.firstBlock = first_block + bi;
            out.agg.deviceCount = hi - lo;
            out.agg.blocks.emplace_back();
            BlockSink sink;
            sink.agg = &out.agg;
            sink.events = &out.events;
            for (std::uint64_t d = lo; d < hi; ++d) {
                Rng rng = util::rngForIndex(cfg.seed, d);
                DeviceParams params = nominalDeviceParams();
                params.ckptPeriodS = cfg.ckptPeriodS;
                params = applyVariation(params, rng);
                std::vector<HarvestSegment> segments = makeSegments(
                    cfg.profile, cfg.traceSeconds, cfg.segmentSeconds,
                    rng, trace_ptr);
                const bool anomalous =
                    cfg.anomalyEvery != 0 && d % cfg.anomalyEvery == 0;
                if (anomalous) {
                    // Ageing-style timing drift halfway through the
                    // trace: the device's checkpoint cadence shifts
                    // by anomalyFactor, which is exactly the
                    // inter-arrival change the timing monitor is
                    // supposed to catch.
                    params.anomalyAtS = 0.5 * cfg.traceSeconds;
                    params.anomalyScale = cfg.anomalyFactor;
                }
                sink.device = d;
                sink.audit_this = want_audit && d % audit_every == 0;
                const DeviceResult r = simulateDevice(
                    params, segments, monitor_cfg, &sink);
                out.agg.boots += r.boots;
                out.agg.checkpoints += r.checkpoints;
                out.agg.failedCheckpoints += r.failedCheckpoints;
                out.agg.flaggedDevices += r.flagged ? 1 : 0;
                if (anomalous) {
                    ++out.agg.cohortDevices;
                    out.agg.flaggedInCohort += r.flagged ? 1 : 0;
                }
                if (r.boots == 0)
                    ++out.agg.neverBooted;
                out.agg.lifetimeSample.add(d, r.meanLifetimeS);
                out.agg.cadenceSample.add(d, r.meanCadenceS);
                out.agg.deadSample.add(d, r.meanDeadS);
            }
            return out;
        });

    SwarmAggregates agg;
    agg.firstBlock = first_block;
    for (const BlockOut &out : outs) {
        const std::string merge_err = mergeAggregates(&agg, out.agg);
        FS_ASSERT(merge_err.empty(), merge_err);
    }

    if (want_audit) {
        audit->append(AuditEvent::kShardBegin, first, span, cfg.seed);
        for (const BlockOut &out : outs)
            for (const PendingAudit &e : out.events)
                audit->append(e.event, e.device, e.a, e.b);
        audit->append(AuditEvent::kShardEnd, first, agg.boots,
                      agg.flaggedDevices);
        audit->flush();
    }
    return agg;
}

std::string
mergeAggregates(SwarmAggregates *into, const SwarmAggregates &from)
{
    if (from.blocks.empty())
        return "shard has no blocks";
    if (into->blocks.empty()) {
        *into = from;
        return "";
    }
    if (into->firstBlock + into->blocks.size() != from.firstBlock)
        return "shards are not contiguous: expected block " +
               std::to_string(into->firstBlock + into->blocks.size()) +
               ", got " + std::to_string(from.firstBlock);
    if (!into->lifetimeHist.sameGeometry(from.lifetimeHist) ||
        !into->cadenceHist.sameGeometry(from.cadenceHist) ||
        !into->deadHist.sameGeometry(from.deadHist))
        return "histogram geometry mismatch";
    if (into->lifetimeSample.k() != from.lifetimeSample.k() ||
        into->lifetimeSample.seed() != from.lifetimeSample.seed())
        return "reservoir parameters mismatch";
    into->deviceCount += from.deviceCount;
    into->blocks.insert(into->blocks.end(), from.blocks.begin(),
                        from.blocks.end());
    into->lifetimeHist.merge(from.lifetimeHist);
    into->cadenceHist.merge(from.cadenceHist);
    into->deadHist.merge(from.deadHist);
    into->lifetimeSample.merge(from.lifetimeSample);
    into->cadenceSample.merge(from.cadenceSample);
    into->deadSample.merge(from.deadSample);
    into->boots += from.boots;
    into->checkpoints += from.checkpoints;
    into->failedCheckpoints += from.failedCheckpoints;
    into->flaggedDevices += from.flaggedDevices;
    into->cohortDevices += from.cohortDevices;
    into->flaggedInCohort += from.flaggedInCohort;
    into->neverBooted += from.neverBooted;
    return "";
}

} // namespace swarm
} // namespace fs
