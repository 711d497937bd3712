#include "serve/client.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/net_io.h"
#include "util/random.h"

#include <algorithm>

namespace fs {
namespace serve {

Client::~Client()
{
    close();
}

std::string
Client::defaultEndpoint()
{
    const char *env = std::getenv("FS_SERVE_SOCKET");
    return env ? env : "";
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
Client::connect(const std::string &endpoint, std::string &err)
{
    close();
    endpoint_ = endpoint;
    if (endpoint.empty()) {
        err = "empty endpoint";
        return false;
    }
    if (endpoint.rfind("tcp:", 0) == 0) {
        std::string host = "127.0.0.1";
        std::string port = endpoint.substr(4);
        const std::size_t colon = port.rfind(':');
        if (colon != std::string::npos) {
            host = port.substr(0, colon);
            port = port.substr(colon + 1);
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(std::uint16_t(std::atoi(port.c_str())));
        if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
            err = "bad tcp endpoint (numeric a.b.c.d only): " +
                  endpoint;
            return false;
        }
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0 ||
            ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            err = "connect " + endpoint + ": " + std::strerror(errno);
            close();
            return false;
        }
        return true;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (endpoint.size() >= sizeof addr.sun_path) {
        err = "socket path too long: " + endpoint;
        return false;
    }
    std::strncpy(addr.sun_path, endpoint.c_str(),
                 sizeof addr.sun_path - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        err = "connect " + endpoint + ": " + std::strerror(errno);
        close();
        return false;
    }
    return true;
}

bool
Client::call(MsgKind kind, const std::vector<std::uint8_t> &payload,
             Frame &reply, std::string &err)
{
    if (fd_ < 0) {
        err = "not connected";
        return false;
    }
    const std::vector<std::uint8_t> bytes = frameMessage(kind, payload);
    const IoStatus sent = writeFull(fd_, bytes.data(), bytes.size());
    if (sent != IoStatus::kOk) {
        err = sent == IoStatus::kPeerClosed
                  ? "peer disconnected mid-request"
                  : std::string("send: ") +
                        std::strerror(ioErrno());
        close();
        return false;
    }
    std::vector<std::uint8_t> buf;
    for (;;) {
        std::size_t consumed = 0;
        const FrameStatus status =
            parseFrame(buf.data(), buf.size(), reply, consumed);
        if (status == FrameStatus::kOk)
            return true;
        if (status != FrameStatus::kNeedMore) {
            err = "corrupt reply frame";
            close();
            return false;
        }
        const IoStatus got = readSome(fd_, buf);
        if (got != IoStatus::kOk) {
            err = got == IoStatus::kPeerClosed
                      ? (buf.empty() ? "peer disconnected"
                                     : "peer disconnected mid-reply")
                      : std::string("recv: ") +
                            std::strerror(ioErrno());
            close();
            return false;
        }
    }
}

bool
Client::call(const Request &req, Response &resp, std::string &err)
{
    Frame reply;
    if (!call(requestKind(req), encodeRequestPayload(req), reply, err))
        return false;
    return decodeResponsePayload(reply.kind, reply.payload.data(),
                                 reply.payload.size(), resp, err);
}

bool
Client::callRetry(const Request &req, Response &resp,
                  const RetryPolicy &policy, std::string &err)
{
    Rng rng(policy.jitterSeed);
    const std::string target = endpoint_;
    for (std::uint32_t attempt = 0;; ++attempt) {
        if (connected() || connect(target, err)) {
            if (call(req, resp, err)) {
                const auto *e = std::get_if<ErrorResult>(&resp);
                if (!e || e->code != ErrorCode::kShuttingDown)
                    return true;
                err = "server draining";
                close(); // that daemon is going away: re-dial
            }
            // else: transport failure, connection already closed
        }
        if (attempt + 1 >= policy.maxAttempts)
            return false;
        double ms = double(policy.backoffBaseMs) *
                    double(std::uint64_t(1) << attempt);
        ms = std::min(ms, double(policy.backoffMaxMs));
        ms *= 1.0 + policy.jitter * rng.uniform(-1.0, 1.0);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
    }
}

bool
Client::ping(PingResult &out, std::string &err)
{
    Frame reply;
    PingJob job;
    job.nonce = 0x50494e47u ^ std::uint64_t(::getpid());
    if (!call(MsgKind::kPing, encodeControl(job), reply, err))
        return false;
    if (reply.kind != MsgKind::kPingReply) {
        err = "unexpected ping reply kind";
        return false;
    }
    if (!decodeControl(reply.payload.data(), reply.payload.size(), out,
                       err))
        return false;
    if (out.nonce != job.nonce) {
        err = "ping nonce mismatch";
        return false;
    }
    return true;
}

bool
Client::cacheInsert(const CacheInsertJob &job, bool &stored,
                    std::string &err)
{
    Frame reply;
    if (!call(MsgKind::kCacheInsert, encodeControl(job), reply, err))
        return false;
    if (reply.kind != MsgKind::kCacheInsertReply) {
        err = "unexpected cache-insert reply kind";
        return false;
    }
    CacheInsertResult res;
    if (!decodeControl(reply.payload.data(), reply.payload.size(), res,
                       err))
        return false;
    stored = res.stored != 0;
    return true;
}

bool
tryServe(const Request &req, Response &resp)
{
    const std::string endpoint = Client::defaultEndpoint();
    if (endpoint.empty())
        return false;

    // One process-wide connection, re-dialed on failure so a daemon
    // restart between calls only costs one miss.
    static std::mutex mu;
    static Client client;
    std::lock_guard<std::mutex> lock(mu);
    std::string err;
    for (int attempt = 0; attempt < 2; ++attempt) {
        if (!client.connected() && !client.connect(endpoint, err))
            return false;
        if (client.call(req, resp, err))
            return !std::holds_alternative<ErrorResult>(resp);
        // transport failure: connection is closed; retry once
    }
    return false;
}

std::vector<dse::FsParetoPoint>
exploreDesignSpaceServed(const circuit::Technology &tech,
                         dse::Nsga2::Options opts, double fixed_rate,
                         bool explore_divider)
{
    const dse::Nsga2::Options defaults;
    const bool standard_knobs =
        opts.crossoverProb == defaults.crossoverProb &&
        opts.crossoverEta == defaults.crossoverEta &&
        opts.mutationEta == defaults.mutationEta &&
        opts.mutationProb == defaults.mutationProb;
    if (standard_knobs) {
        DseShardJob job;
        job.tech = tech.name();
        job.populationSize = std::uint32_t(opts.populationSize);
        job.generations = std::uint32_t(opts.generations);
        job.seed = opts.seed;
        job.fixedRate = fixed_rate;
        job.exploreDivider = explore_divider ? 1 : 0;
        Response resp;
        if (tryServe(job, resp)) {
            if (const auto *shard =
                    std::get_if<DseShardResult>(&resp)) {
                std::vector<dse::FsParetoPoint> front;
                front.reserve(shard->front.size());
                for (const DsePointWire &p : shard->front)
                    front.push_back({fromWire(p.config), p.perf});
                return front;
            }
        }
    }
    return dse::exploreDesignSpace(tech, opts, fixed_rate,
                                   explore_divider);
}

} // namespace serve
} // namespace fs
