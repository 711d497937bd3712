#include "serve/wire.h"

#include <bit>
#include <cstring>
#include <iterator>
#include <map>
#include <type_traits>
#include <utility>

namespace fs {
namespace serve {

namespace {

static_assert(sizeof(std::size_t) == 8, "size_t fields travel as u64");

/**
 * Encoding archive: appends each value's canonical bytes. A struct goes
 * through its fields() list, which takes a mutable reference so that
 * one list serves both archives; the writer only reads through it.
 */
class Writer
{
  public:
    explicit Writer(std::vector<std::uint8_t> &out) : out_(out) {}

    template <class... Ts>
    void
    operator()(const Ts &...vs)
    {
        (put(vs), ...);
    }

  private:
    template <class T>
    void
    put(const T &v)
    {
        if constexpr (std::is_enum_v<T>) {
            put(std::underlying_type_t<T>(v));
        } else if constexpr (std::is_same_v<T, bool>) {
            put(std::uint8_t(v ? 1 : 0));
        } else if constexpr (std::is_same_v<T, double>) {
            put(std::bit_cast<std::uint64_t>(v));
        } else if constexpr (std::is_integral_v<T>) {
            std::uint8_t le[sizeof(T)] = {};
            for (std::size_t i = 0; i < sizeof(T); ++i)
                le[i] = std::uint8_t(v >> (8 * i));
            out_.insert(out_.end(), le, le + sizeof(T));
        } else if constexpr (requires { v.size(); v.data(); }) {
            // std::string or std::vector: a u32 count, then elements.
            put(std::uint32_t(v.size()));
            if constexpr (sizeof(typename T::value_type) == 1)
                out_.insert(out_.end(), v.begin(), v.end());
            else
                for (const auto &e : v)
                    put(e);
        } else if constexpr (requires { save(*this, v); }) {
            save(*this, v);
        } else {
            fields(*this, const_cast<T &>(v));
        }
    }

    std::vector<std::uint8_t> &out_;
};

/**
 * Encoded size of a value-initialised T. Every vector element type on
 * the wire defaults to empty strings and vectors, so this is the
 * fewest bytes one element can occupy.
 */
template <class T>
std::size_t
minWireSize()
{
    static const std::size_t size = [] {
        std::vector<std::uint8_t> bytes;
        Writer w(bytes);
        w(T{});
        return bytes.size();
    }();
    return size;
}

/**
 * Decoding archive: bounds-checked, with a sticky failure flag. Once a
 * read fails every later read is a no-op, so a fields() list runs to
 * its end unchecked and the caller tests ok() once.
 */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t len)
        : data_(data), len_(len)
    {
    }

    bool ok() const { return ok_; }
    bool atEnd() const { return pos_ == len_; }
    /** Why decoding failed; null for truncation. */
    const char *reason() const { return reason_; }

    /** Fail for a reason other than truncation (the first one sticks). */
    void
    fail(const char *why)
    {
        if (ok_)
            reason_ = why;
        ok_ = false;
    }

    template <class... Ts>
    void
    operator()(Ts &...vs)
    {
        (get(vs), ...);
    }

  private:
    bool
    need(std::size_t n)
    {
        if (!ok_ || len_ - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    template <class T>
    void
    get(T &v)
    {
        if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> raw = 0;
            get(raw);
            v = T(raw);
        } else if constexpr (std::is_same_v<T, bool>) {
            std::uint8_t raw = 0;
            get(raw);
            if (raw > 1)
                fail("bool field holds a byte other than 0 or 1");
            v = raw != 0;
        } else if constexpr (std::is_same_v<T, double>) {
            std::uint64_t bits = 0;
            get(bits);
            v = std::bit_cast<double>(bits);
        } else if constexpr (std::is_integral_v<T>) {
            if (!need(sizeof(T)))
                return;
            v = 0;
            for (std::size_t i = 0; i < sizeof(T); ++i)
                v = T(v | T(T(data_[pos_ + i]) << (8 * i)));
            pos_ += sizeof(T);
        } else if constexpr (requires { v.size(); v.data(); }) {
            using E = typename T::value_type;
            std::uint32_t n = 0;
            get(n);
            // Refuse a count the remaining bytes cannot hold before
            // allocating anything for it.
            if (!need(std::size_t(n) * minWireSize<E>()))
                return;
            if constexpr (sizeof(E) == 1) {
                v.assign(data_ + pos_, data_ + pos_ + n);
                pos_ += n;
            } else {
                v.clear();
                v.reserve(n);
                for (std::uint32_t i = 0; ok_ && i < n; ++i)
                    get(v.emplace_back());
            }
        } else if constexpr (requires { load(*this, v); }) {
            load(*this, v);
        } else {
            fields(*this, v);
        }
    }

    const std::uint8_t *data_;
    std::size_t len_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    const char *reason_ = nullptr;
};

// --- field lists (listed order is wire order) ------------------------

template <class Ar>
void
fields(Ar &ar, WorkloadSpec &v)
{
    ar(v.kind, v.a, v.b, v.seed);
}

template <class Ar>
void
fields(Ar &ar, ConfigWire &v)
{
    ar(v.roStages, v.sampleRate, v.counterBits, v.enableTime,
       v.nvmEntries, v.entryBits, v.dividerTap, v.dividerTotal,
       v.strategy);
}

template <class Ar>
void
fields(Ar &ar, core::Performance &v)
{
    ar(v.realizable, v.rejectReason, v.meanCurrent, v.sampleRate,
       v.granularity, v.nvmBytes, v.transistors, v.quantizationError,
       v.thermalError, v.interpolationError);
}

template <class Ar>
void
fields(Ar &ar, RoSweepJob &v)
{
    ar(v.tech, v.stages, v.cell, v.speed, v.tempC, v.vStart, v.vEnd,
       v.vStep);
}

template <class Ar>
void
fields(Ar &ar, RoSweepResult &v)
{
    ar(v.frequenciesHz);
}

template <class Ar>
void
fields(Ar &ar, DesignPointJob &v)
{
    ar(v.tech, v.config);
}

template <class Ar>
void
fields(Ar &ar, DesignPointResult &v)
{
    ar(v.perf);
}

template <class Ar>
void
fields(Ar &ar, DseShardJob &v)
{
    ar(v.tech, v.populationSize, v.generations, v.seed, v.fixedRate,
       v.exploreDivider);
}

template <class Ar>
void
fields(Ar &ar, DsePointWire &v)
{
    ar(v.config, v.perf);
}

template <class Ar>
void
fields(Ar &ar, DseShardResult &v)
{
    ar(v.front);
}

template <class Ar>
void
fields(Ar &ar, TortureJob &v)
{
    ar(v.workload, v.sramSize, v.stableCycles, v.lowCycles, v.seed,
       v.killsPerWindow, v.randomKills, v.exhaustivePoints,
       v.pointOffset, v.pointCount, v.coverageMap);
}

template <class Ar>
void
fields(Ar &ar, TortureCoverageWire &v)
{
    ar(v.addr, v.cls, v.rank, v.points, v.killed, v.correct,
       v.incorrect, v.coldRestarts, v.killTears);
}

template <class Ar>
void
fields(Ar &ar, TortureResult &v)
{
    ar(v.cleanCycles, v.checkpoints, v.checkpointVolts, v.points,
       v.killed, v.killTears, v.coldRestarts, v.tornRestores, v.correct,
       v.incorrect, v.outcomeFlags, v.results, v.coverage);
}

template <class Ar>
void
fields(Ar &ar, GuestRunJob &v)
{
    ar(v.workload, v.allowDbt);
}

template <class Ar>
void
fields(Ar &ar, GuestRunResult &v)
{
    ar(v.name, v.result, v.expected, v.correct, v.instructions);
}

template <class Ar>
void
fields(Ar &ar, LintImageJob &v)
{
    ar(v.name, v.code, v.emitPruning);
}

template <class Ar>
void
fields(Ar &ar, LintImageResult &v)
{
    ar(v.image, v.errors, v.warnings, v.notes, v.worstCaseCommitCycles,
       v.budgetCycles, v.staticEnergyBound, v.energyBudgetJoules,
       v.reportJson, v.pruningJson);
}

template <class Ar>
void
fields(Ar &ar, SwarmJob &v)
{
    ar(v.deviceCount, v.firstDevice, v.spanDevices, v.seed, v.profile,
       v.traceSeconds, v.segmentSeconds, v.ckptPeriodS, v.zThreshold,
       v.warmup, v.tripsToFlag, v.anomalyEvery, v.anomalyFactor,
       v.traceCsv);
}

template <class Ar>
void
fields(Ar &ar, swarm::BlockStats &v)
{
    ar(v.lifetime, v.cadence, v.dead);
}

template <class Ar>
void
fields(Ar &ar, swarm::SwarmAggregates &v)
{
    ar(v.firstBlock, v.deviceCount, v.blocks, v.lifetimeHist,
       v.cadenceHist, v.deadHist, v.lifetimeSample, v.cadenceSample,
       v.deadSample, v.boots, v.checkpoints, v.failedCheckpoints,
       v.flaggedDevices, v.cohortDevices, v.flaggedInCohort,
       v.neverBooted);
}

template <class Ar>
void
fields(Ar &ar, SwarmResult &v)
{
    ar(v.agg);
}

template <class Ar>
void
fields(Ar &ar, ErrorResult &v)
{
    ar(v.code, v.message);
}

template <class Ar>
void
fields(Ar &ar, PingJob &v)
{
    ar(v.nonce);
}

template <class Ar>
void
fields(Ar &ar, PingResult &v)
{
    ar(v.nonce, v.queueDepth, v.cacheEntries, v.draining);
}

template <class Ar>
void
fields(Ar &ar, CacheInsertJob &v)
{
    ar(v.key, v.kind, v.payload);
}

template <class Ar>
void
fields(Ar &ar, CacheInsertResult &v)
{
    ar(v.stored);
}

// --- swarm sketches: private state, receiver-checked geometry --------

void
save(Writer &w, const RunningStats &s)
{
    w(std::uint64_t(s.count()), s.mean(), s.m2(), s.rawMin(), s.rawMax());
}

void
load(Reader &r, RunningStats &s)
{
    std::uint64_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double mn = 0.0;
    double mx = 0.0;
    r(n, mean, m2, mn, mx);
    s = RunningStats::fromMoments(std::size_t(n), mean, m2, mn, mx);
}

void
save(Writer &w, const LogHistogram &h)
{
    w(std::uint32_t(std::int32_t(h.minExp())),
      std::uint32_t(std::int32_t(h.maxExp())),
      std::uint32_t(h.bucketsPerDecade()), std::uint32_t(h.buckets()));
    for (std::size_t b = 0; b < h.buckets(); ++b)
        w(h.countAt(b));
    w(h.underflow(), h.overflow());
}

/** Decode into `h`, whose geometry is authoritative (reject others). */
void
load(Reader &r, LogHistogram &h)
{
    std::uint32_t min_exp = 0;
    std::uint32_t max_exp = 0;
    std::uint32_t per_decade = 0;
    std::uint32_t buckets = 0;
    r(min_exp, max_exp, per_decade, buckets);
    if (r.ok() && (std::int32_t(min_exp) != h.minExp() ||
                   std::int32_t(max_exp) != h.maxExp() ||
                   per_decade != h.bucketsPerDecade() ||
                   buckets != h.buckets()))
        r.fail("swarm histogram geometry mismatch");
    for (std::uint32_t b = 0; r.ok() && b < buckets; ++b) {
        std::uint64_t n = 0;
        r(n);
        if (n != 0)
            h.addToBucket(b, n);
    }
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    r(underflow, overflow);
    h.addUnderflow(underflow);
    h.addOverflow(overflow);
}

void
save(Writer &w, const ReservoirSample &s)
{
    const std::vector<ReservoirSample::Entry> entries = s.sorted();
    w(std::uint32_t(s.k()), s.seed(), std::uint32_t(entries.size()));
    // Priorities are a pure function of (seed, tag); the decoder
    // recomputes them, so only (tag, value) travels.
    for (const ReservoirSample::Entry &e : entries)
        w(e.tag, e.value);
}

/** Decode into `s`, whose k and seed are authoritative. */
void
load(Reader &r, ReservoirSample &s)
{
    std::uint32_t k = 0;
    std::uint64_t seed = 0;
    std::uint32_t n = 0;
    r(k, seed, n);
    if (r.ok() && (k != s.k() || seed != s.seed() || n > k))
        r.fail("swarm reservoir parameters mismatch");
    for (std::uint32_t i = 0; r.ok() && i < n; ++i) {
        std::uint64_t tag = 0;
        double value = 0.0;
        r(tag, value);
        s.add(tag, value);
    }
}

/** The block count must match the device span exactly. */
void
load(Reader &r, swarm::SwarmAggregates &a)
{
    fields(r, a);
    const std::uint64_t expected =
        (a.deviceCount + swarm::kSwarmBlock - 1) / swarm::kSwarmBlock;
    if (r.ok() && a.blocks.size() != expected)
        r.fail("swarm block count does not match device count");
}

// --- payload entry points --------------------------------------------

/**
 * Request kind -> reply kind. Rows follow the Response alternatives
 * (Request lacks only the trailing ErrorResult).
 */
constexpr std::pair<MsgKind, MsgKind> kKinds[] = {
    {MsgKind::kRoSweep, MsgKind::kRoSweepReply},
    {MsgKind::kDesignPoint, MsgKind::kDesignPointReply},
    {MsgKind::kDseShard, MsgKind::kDseShardReply},
    {MsgKind::kTorture, MsgKind::kTortureReply},
    {MsgKind::kGuestRun, MsgKind::kGuestRunReply},
    {MsgKind::kLintImage, MsgKind::kLintImageReply},
    {MsgKind::kSwarm, MsgKind::kSwarmReply},
    {MsgKind::kErrorReply, MsgKind::kErrorReply},
};
constexpr std::size_t kRequestKinds = std::variant_size_v<Request>;
using LastResponse = std::variant_alternative_t<kRequestKinds, Response>;
static_assert(std::size(kKinds) == kRequestKinds + 1);
static_assert(std::variant_size_v<Response> == kRequestKinds + 1 &&
              std::is_same_v<LastResponse, ErrorResult>);

/** Row of `kind` in one column of kKinds' first `rows` rows, or `rows`. */
std::size_t
kindRow(MsgKind kind, bool reply, std::size_t rows)
{
    std::size_t i = 0;
    while (i < rows && (reply ? kKinds[i].second : kKinds[i].first) != kind)
        ++i;
    return i;
}

template <class T>
std::vector<std::uint8_t>
encode(const T &v)
{
    std::vector<std::uint8_t> bytes;
    Writer w(bytes);
    w(v);
    return bytes;
}

/** Report a failed or partial decode of one whole payload. */
bool
finish(const Reader &r, const char *what, std::string &err)
{
    if (!r.ok())
        err = r.reason() ? std::string(r.reason())
                         : "truncated " + std::string(what) + " payload";
    else if (!r.atEnd())
        err = "trailing bytes after " + std::string(what) + " payload";
    return r.ok() && r.atEnd();
}

template <class Variant, std::size_t... I>
void
readAlternative(Reader &r, std::size_t index, Variant &out,
                std::index_sequence<I...>)
{
    ((index == I ? r(out.template emplace<I>()) : void()), ...);
}

template <class Variant>
bool
decodePayload(MsgKind kind, const std::uint8_t *data, std::size_t len,
              Variant &out, std::string &err)
{
    constexpr bool reply = std::is_same_v<Variant, Response>;
    const char *what = reply ? "response" : "request";
    constexpr std::size_t rows = std::variant_size_v<Variant>;
    const std::size_t row = kindRow(kind, reply, rows);
    if (row == rows) {
        err = "unknown " + std::string(what) + " kind " +
              std::to_string(unsigned(kind));
        return false;
    }
    Reader r(data, len);
    readAlternative(r, row, out, std::make_index_sequence<rows>());
    return finish(r, what, err);
}

} // namespace

MsgKind
requestKind(const Request &req)
{
    return kKinds[req.index()].first;
}

MsgKind
responseKind(const Response &resp)
{
    return kKinds[resp.index()].second;
}

int
requestPriority(MsgKind kind)
{
    switch (kind) {
      case MsgKind::kDseShard:
      case MsgKind::kTorture:
      case MsgKind::kSwarm:
        return 1; // heavy batch work: shed first under overload
      default:
        return 2;
    }
}

template <class T>
std::vector<std::uint8_t>
encodeControl(const T &msg)
{
    return encode(msg);
}

template <class T>
bool
decodeControl(const std::uint8_t *data, std::size_t len, T &out,
              std::string &err)
{
    Reader r(data, len);
    r(out);
    return finish(r, "control", err);
}

template std::vector<std::uint8_t> encodeControl(const PingJob &);
template std::vector<std::uint8_t> encodeControl(const PingResult &);
template std::vector<std::uint8_t> encodeControl(const CacheInsertJob &);
template std::vector<std::uint8_t>
encodeControl(const CacheInsertResult &);
template bool decodeControl(const std::uint8_t *, std::size_t,
                            PingJob &, std::string &);
template bool decodeControl(const std::uint8_t *, std::size_t,
                            PingResult &, std::string &);
template bool decodeControl(const std::uint8_t *, std::size_t,
                            CacheInsertJob &, std::string &);
template bool decodeControl(const std::uint8_t *, std::size_t,
                            CacheInsertResult &, std::string &);

std::vector<std::uint8_t>
encodeRequestPayload(const Request &req)
{
    return std::visit([](const auto &job) { return encode(job); }, req);
}

bool
decodeRequestPayload(MsgKind kind, const std::uint8_t *data,
                     std::size_t len, Request &out, std::string &err)
{
    return decodePayload(kind, data, len, out, err);
}

std::vector<std::uint8_t>
encodeResponsePayload(const Response &resp)
{
    return std::visit([](const auto &res) { return encode(res); }, resp);
}

bool
decodeResponsePayload(MsgKind kind, const std::uint8_t *data,
                      std::size_t len, Response &out, std::string &err)
{
    return decodePayload(kind, data, len, out, err);
}

bool
mergeTortureResult(TortureResult &into, const TortureResult &shard,
                   std::string &err)
{
    // The golden-run facts must agree bit for bit, or the shards were
    // graded against different schedules and summing them is garbage.
    if (into.cleanCycles != shard.cleanCycles ||
        into.checkpoints != shard.checkpoints ||
        std::memcmp(&into.checkpointVolts, &shard.checkpointVolts,
                    sizeof(double)) != 0) {
        err = "torture shards disagree on the golden run "
              "(cleanCycles/checkpoints/checkpointVolts)";
        return false;
    }
    if (into.outcomeFlags.size() != into.points ||
        shard.outcomeFlags.size() != shard.points ||
        into.results.size() != into.points ||
        shard.results.size() != shard.points) {
        err = "torture shard per-kill records do not match its point "
              "count";
        return false;
    }
    // Coverage merges per instruction: counters sum, the static
    // class/rank annotations must match (they come from the same
    // lint pass on the same image). Built before `into` is touched so
    // a mismatch leaves the accumulator intact.
    std::map<std::uint32_t, TortureCoverageWire> by_addr;
    for (const TortureCoverageWire &c : into.coverage)
        by_addr[c.addr] = c;
    for (const TortureCoverageWire &c : shard.coverage) {
        auto it = by_addr.find(c.addr);
        if (it == by_addr.end()) {
            by_addr[c.addr] = c;
            continue;
        }
        TortureCoverageWire &m = it->second;
        if (m.cls != c.cls || m.rank != c.rank) {
            err = "torture shards disagree on the static class/rank "
                  "of coverage site " + std::to_string(c.addr);
            return false;
        }
        m.points += c.points;
        m.killed += c.killed;
        m.correct += c.correct;
        m.incorrect += c.incorrect;
        m.coldRestarts += c.coldRestarts;
        m.killTears += c.killTears;
    }
    into.points += shard.points;
    into.killed += shard.killed;
    into.killTears += shard.killTears;
    into.coldRestarts += shard.coldRestarts;
    into.tornRestores += shard.tornRestores;
    into.correct += shard.correct;
    into.incorrect += shard.incorrect;
    into.outcomeFlags.insert(into.outcomeFlags.end(),
                             shard.outcomeFlags.begin(),
                             shard.outcomeFlags.end());
    into.results.insert(into.results.end(), shard.results.begin(),
                        shard.results.end());
    into.coverage.clear();
    into.coverage.reserve(by_addr.size());
    for (const auto &entry : by_addr)
        into.coverage.push_back(entry.second);
    return true;
}

bool
mergeSwarmResult(SwarmResult &into, const SwarmResult &shard,
                 std::string &err)
{
    // swarm::mergeAggregates validates before mutating, so a failure
    // leaves the accumulator intact.
    const std::string reason =
        swarm::mergeAggregates(&into.agg, shard.agg);
    if (!reason.empty()) {
        err = reason;
        return false;
    }
    return true;
}

std::vector<std::uint8_t>
frameMessage(MsgKind kind, const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> out;
    out.reserve(kFrameHeaderSize + payload.size());
    Writer w(out);
    w(kWireMagic, kWireVersion, kind, std::uint32_t(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

FrameStatus
parseFrame(const std::uint8_t *data, std::size_t len, Frame &out,
           std::size_t &consumed)
{
    consumed = 0;
    if (len < kFrameHeaderSize)
        return FrameStatus::kNeedMore;
    Reader r(data, len);
    std::uint32_t magic = 0;
    std::uint32_t payload_len = 0;
    r(magic, out.version, out.kind, payload_len);
    if (magic != kWireMagic)
        return FrameStatus::kBadMagic;
    if (payload_len > kMaxFramePayload)
        return FrameStatus::kOversized;
    if (len - kFrameHeaderSize < payload_len)
        return FrameStatus::kNeedMore;
    out.payload.assign(data + kFrameHeaderSize,
                       data + kFrameHeaderSize + payload_len);
    consumed = kFrameHeaderSize + payload_len;
    if (out.version != kWireVersion)
        return FrameStatus::kVersionMismatch;
    return FrameStatus::kOk;
}

std::uint64_t
requestKey(MsgKind kind, const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> head;
    Writer w(head);
    w(kWireVersion, kind);
    return fnv1a64(payload.data(), payload.size(),
                   fnv1a64(head.data(), head.size()));
}

ConfigWire
toWire(const core::FsConfig &cfg)
{
    ConfigWire w;
    w.roStages = cfg.roStages;
    w.sampleRate = cfg.sampleRate;
    w.counterBits = cfg.counterBits;
    w.enableTime = cfg.enableTime;
    w.nvmEntries = cfg.nvmEntries;
    w.entryBits = cfg.entryBits;
    w.dividerTap = cfg.dividerTap;
    w.dividerTotal = cfg.dividerTotal;
    w.strategy = std::uint8_t(cfg.strategy);
    return w;
}

core::FsConfig
fromWire(const ConfigWire &w)
{
    core::FsConfig cfg;
    cfg.roStages = std::size_t(w.roStages);
    cfg.sampleRate = w.sampleRate;
    cfg.counterBits = std::size_t(w.counterBits);
    cfg.enableTime = w.enableTime;
    cfg.nvmEntries = std::size_t(w.nvmEntries);
    cfg.entryBits = std::size_t(w.entryBits);
    cfg.dividerTap = std::size_t(w.dividerTap);
    cfg.dividerTotal = std::size_t(w.dividerTotal);
    cfg.strategy = calib::Strategy(w.strategy);
    return cfg;
}

swarm::SwarmConfig
fromWire(const SwarmJob &w)
{
    swarm::SwarmConfig cfg;
    cfg.deviceCount = w.deviceCount;
    cfg.firstDevice = w.firstDevice;
    cfg.spanDevices = w.spanDevices;
    cfg.seed = w.seed;
    cfg.profile = swarm::HarvestProfile(w.profile);
    cfg.traceSeconds = w.traceSeconds;
    cfg.segmentSeconds = w.segmentSeconds;
    cfg.ckptPeriodS = w.ckptPeriodS;
    cfg.zThreshold = w.zThreshold;
    cfg.warmup = w.warmup;
    cfg.tripsToFlag = w.tripsToFlag;
    cfg.anomalyEvery = w.anomalyEvery;
    cfg.anomalyFactor = w.anomalyFactor;
    cfg.traceCsv = w.traceCsv;
    return cfg;
}

std::string
workloadName(const WorkloadSpec &spec)
{
    switch (spec.kind) {
      case WorkloadSpec::Kind::kCrc32:
        return "crc32-" + std::to_string(spec.a);
      case WorkloadSpec::Kind::kFir:
        return "fir-" + std::to_string(spec.a) + "x" +
               std::to_string(spec.b);
      case WorkloadSpec::Kind::kSort:
        return "sort-" + std::to_string(spec.a);
      case WorkloadSpec::Kind::kMatmul:
        return "matmul-" + std::to_string(spec.a);
    }
    return "unknown";
}

} // namespace serve
} // namespace fs
