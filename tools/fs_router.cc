/**
 * @file
 * fs_router: the fleet front-end daemon.
 *
 * Listens on one Unix-domain socket speaking the same wire format as
 * fs_served and routes every request frame across a fleet of workers
 * via fleet::Router -- consistent hashing, retries with backoff,
 * tail-latency hedging, health-check eviction/re-admission, and
 * result replication. Clients point FS_SERVE_SOCKET at the router
 * instead of a single daemon and get the whole fleet behind one
 * endpoint; a worker SIGKILL mid-campaign costs retries, not answers.
 *
 *   fs_router --socket /tmp/fsr.sock \
 *             --worker /tmp/fsw0.sock --worker /tmp/fsw1.sock \
 *             --ping-ms 100 --hedge-ms 50
 *
 * kPing frames are answered by the router itself (queueDepth = its
 * in-flight count) so health checks of the router never recurse into
 * the fleet. Shutdown mirrors fs_served: SIGTERM/SIGINT via the
 * self-pipe pattern, drain, stats line to stderr.
 */

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "fleet/router.h"
#include "serve/net_io.h"
#include "serve/wire.h"

namespace {

int g_signal_pipe[2] = {-1, -1};

extern "C" void
onSignal(int)
{
    const char byte = 's';
    (void)!::write(g_signal_pipe[1], &byte, 1);
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: fs_router --socket PATH --worker ENDPOINT... [options]\n"
        "  --socket PATH      Unix-domain socket to listen on\n"
        "  --worker ENDPOINT  a worker endpoint (repeatable)\n"
        "  --ping-ms N        health-check interval (0 = off)\n"
        "  --hedge-ms N       hedge to a replica after N ms (0 = off)\n"
        "  --evict-after N    consecutive failures before eviction\n"
        "  --retries N        max attempts per request (default 6)\n"
        "  --max-inflight N   router backpressure limit (default 64)\n"
        "  --no-replicate     disable cache replication pushes\n"
        "  --verbose          log one line per request to stderr\n");
    return 2;
}

struct RouterDaemon {
    fs::fleet::Router *router = nullptr;
    bool verbose = false;
    std::atomic<std::uint64_t> conns{0};
    std::atomic<std::uint64_t> frames{0};
};

/**
 * One accepted client connection: reassemble frames, route each, and
 * reply in order. Runs until the peer hangs up or the listener dies.
 */
void
serveConn(RouterDaemon *daemon, int fd)
{
    using fs::serve::Frame;
    using fs::serve::FrameStatus;
    using fs::serve::IoStatus;
    using fs::serve::MsgKind;

    std::vector<std::uint8_t> buf;
    for (;;) {
        Frame frame;
        std::size_t consumed = 0;
        const FrameStatus status =
            fs::serve::parseFrame(buf.data(), buf.size(), frame,
                                  consumed);
        if (status == FrameStatus::kNeedMore) {
            if (fs::serve::readSome(fd, buf) != IoStatus::kOk)
                break;
            continue;
        }
        if (status != FrameStatus::kOk &&
            status != FrameStatus::kVersionMismatch)
            break; // corrupt stream: nothing sane to say
        buf.erase(buf.begin(),
                  buf.begin() + std::ptrdiff_t(consumed));
        daemon->frames.fetch_add(1);

        Frame reply;
        if (status == FrameStatus::kVersionMismatch) {
            fs::serve::ErrorResult e;
            e.code = fs::serve::ErrorCode::kVersionMismatch;
            e.message = "unsupported wire version";
            reply.kind = MsgKind::kErrorReply;
            reply.payload = fs::serve::encodeResponsePayload(
                fs::serve::Response{e});
        } else if (frame.kind == MsgKind::kPing) {
            // Answer for the router itself: a health check of the
            // front-end must not depend on any one worker.
            fs::serve::PingJob job;
            std::string err;
            fs::serve::PingResult pong;
            if (fs::serve::decodeControl(frame.payload.data(),
                                         frame.payload.size(), job, err))
                pong.nonce = job.nonce;
            pong.queueDepth =
                std::uint32_t(daemon->router->inFlight());
            reply.kind = MsgKind::kPingReply;
            reply.payload = fs::serve::encodeControl(pong);
        } else {
            daemon->router->callRaw(frame.kind, frame.payload, reply);
        }
        if (daemon->verbose)
            std::fprintf(stderr, "fs_router: kind=0x%04x -> 0x%04x\n",
                         unsigned(frame.kind), unsigned(reply.kind));

        const std::vector<std::uint8_t> bytes =
            fs::serve::frameMessage(reply.kind, reply.payload);
        if (fs::serve::writeFull(fd, bytes.data(), bytes.size()) !=
            IoStatus::kOk)
            break;
    }
    ::close(fd);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    fs::fleet::Router::Options ropts;
    bool verbose = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--socket" && has_value) {
            socket_path = argv[++i];
        } else if (arg == "--worker" && has_value) {
            ropts.endpoints.push_back(argv[++i]);
        } else if (arg == "--ping-ms" && has_value) {
            ropts.pingIntervalMs = std::uint32_t(std::atol(argv[++i]));
        } else if (arg == "--hedge-ms" && has_value) {
            ropts.hedgeAfterMs = std::uint32_t(std::atol(argv[++i]));
        } else if (arg == "--evict-after" && has_value) {
            ropts.failsToEvict = std::uint32_t(std::atol(argv[++i]));
        } else if (arg == "--retries" && has_value) {
            ropts.retry.maxAttempts =
                std::uint32_t(std::atol(argv[++i]));
        } else if (arg == "--max-inflight" && has_value) {
            ropts.maxInFlight = std::size_t(std::atol(argv[++i]));
        } else if (arg == "--no-replicate") {
            ropts.replicate = false;
        } else if (arg == "--verbose") {
            verbose = true;
        } else {
            return usage();
        }
    }
    if (socket_path.empty() || ropts.endpoints.empty())
        return usage();

    if (::pipe(g_signal_pipe) != 0) {
        std::perror("pipe");
        return 1;
    }
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = onSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path) {
        std::fprintf(stderr, "fs_router: socket path too long\n");
        return 1;
    }
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    ::unlink(socket_path.c_str());
    const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0 ||
        ::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd, 64) != 0) {
        std::perror("fs_router: listen");
        return 1;
    }

    fs::fleet::Router router(ropts);
    router.start();
    RouterDaemon daemon;
    daemon.router = &router;
    daemon.verbose = verbose;

    std::printf("routing %zu workers on unix %s\n",
                ropts.endpoints.size(), socket_path.c_str());
    std::fflush(stdout);

    std::vector<std::thread> conn_threads;
    std::mutex threads_mu;
    for (;;) {
        struct pollfd fds[2];
        fds[0] = {listen_fd, POLLIN, 0};
        fds[1] = {g_signal_pipe[0], POLLIN, 0};
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents != 0)
            break; // signal: drain
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            continue;
        daemon.conns.fetch_add(1);
        std::lock_guard<std::mutex> lock(threads_mu);
        conn_threads.emplace_back(
            [&daemon, fd] { serveConn(&daemon, fd); });
    }

    std::fprintf(stderr, "fs_router: draining\n");
    ::close(listen_fd);
    ::unlink(socket_path.c_str());
    for (auto &t : conn_threads)
        if (t.joinable())
            t.join();
    router.stop();

    const fs::fleet::Router::Stats s = router.stats();
    std::fprintf(stderr,
                 "fs_router: conns=%llu frames=%llu requests=%llu "
                 "answered=%llu typed_errors=%llu retries=%llu "
                 "hedges=%llu hedge_wins=%llu replicated=%llu "
                 "overloaded=%llu evictions=%llu readmissions=%llu "
                 "exhausted=%llu pooled_reuses=%llu\n",
                 (unsigned long long)daemon.conns.load(),
                 (unsigned long long)daemon.frames.load(),
                 (unsigned long long)s.requests,
                 (unsigned long long)s.answered,
                 (unsigned long long)s.typedErrors,
                 (unsigned long long)s.retries,
                 (unsigned long long)s.hedges,
                 (unsigned long long)s.hedgeWins,
                 (unsigned long long)s.replicationPushes,
                 (unsigned long long)s.overloaded,
                 (unsigned long long)s.evictions,
                 (unsigned long long)s.readmissions,
                 (unsigned long long)s.exhausted,
                 (unsigned long long)s.pooledReuses);
    return 0;
}
