#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/net_io.h"

namespace fs {
namespace serve {

Server::Server(Options opts)
    : opts_(std::move(opts)), engine_(opts_.engine)
{
}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string &err)
{
    if (running_.load()) {
        err = "server already running";
        return false;
    }
    if (opts_.socketPath.empty() && opts_.tcpPort < 0) {
        err = "no listener configured (need socketPath or tcpPort)";
        return false;
    }

    if (!opts_.socketPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (opts_.socketPath.size() >= sizeof addr.sun_path) {
            err = "socket path too long: " + opts_.socketPath;
            return false;
        }
        std::strncpy(addr.sun_path, opts_.socketPath.c_str(),
                     sizeof addr.sun_path - 1);
        unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (unix_fd_ < 0) {
            err = std::string("socket(AF_UNIX): ") +
                  std::strerror(errno);
            return false;
        }
        // A previous daemon's stale socket file would make bind fail;
        // only ever unlink the path we are about to own.
        ::unlink(opts_.socketPath.c_str());
        if (::bind(unix_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0 ||
            ::listen(unix_fd_, 64) != 0) {
            err = "bind/listen on " + opts_.socketPath + ": " +
                  std::strerror(errno);
            ::close(unix_fd_);
            unix_fd_ = -1;
            return false;
        }
    }

    if (opts_.tcpPort >= 0) {
        tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (tcp_fd_ < 0) {
            err = std::string("socket(AF_INET): ") +
                  std::strerror(errno);
            stop();
            return false;
        }
        const int one = 1;
        ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(std::uint16_t(opts_.tcpPort));
        if (::bind(tcp_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0 ||
            ::listen(tcp_fd_, 64) != 0) {
            err = std::string("bind/listen on tcp port: ") +
                  std::strerror(errno);
            stop();
            return false;
        }
        sockaddr_in bound{};
        socklen_t bound_len = sizeof bound;
        if (::getsockname(tcp_fd_,
                          reinterpret_cast<sockaddr *>(&bound),
                          &bound_len) == 0)
            bound_tcp_port_ = int(ntohs(bound.sin_port));
    }

    if (::pipe(wake_pipe_) != 0) {
        err = std::string("pipe: ") + std::strerror(errno);
        stop();
        return false;
    }

    running_.store(true);
    draining_.store(false);
    killed_.store(false);
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        executor_stop_ = false;
    }
    accept_thread_ = std::thread([this] { acceptLoop(); });
    executor_thread_ = std::thread([this] { executorLoop(); });
    return true;
}

void
Server::stop()
{
    if (!running_.exchange(false)) {
        // Never started (or already stopped): release any fds start()
        // managed to open before failing.
        for (int *fd : {&unix_fd_, &tcp_fd_}) {
            if (*fd >= 0) {
                ::close(*fd);
                *fd = -1;
            }
        }
        return;
    }

    // 1. Stop accepting: wake poll(), join the accept thread (which
    //    closes the listeners on exit).
    draining_.store(true);
    if (wake_pipe_[1] >= 0) {
        const char byte = 'x';
        (void)!::write(wake_pipe_[1], &byte, 1);
    }
    if (accept_thread_.joinable())
        accept_thread_.join();

    // 2. Stop reading: half-close every connection so readers drain
    //    what is already buffered and exit. Requests they enqueued are
    //    still answered below.
    std::vector<std::shared_ptr<Conn>> conns;
    {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns.swap(conns_);
    }
    for (const auto &conn : conns)
        ::shutdown(conn->fd, SHUT_RD);
    for (const auto &conn : conns)
        if (conn->reader.joinable())
            conn->reader.join();

    // 3. Drain: the executor answers everything still queued, then
    //    exits.
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        executor_stop_ = true;
    }
    queue_cv_.notify_all();
    if (executor_thread_.joinable())
        executor_thread_.join();

    for (const auto &conn : conns)
        ::close(conn->fd);
    for (int *fd : {&wake_pipe_[0], &wake_pipe_[1]}) {
        if (*fd >= 0) {
            ::close(*fd);
            *fd = -1;
        }
    }
    if (!opts_.socketPath.empty())
        ::unlink(opts_.socketPath.c_str());
}

void
Server::abort()
{
    if (!running_.load() || killed_.exchange(true))
        return;
    // Stop accepting: the accept loop exits (and closes listeners) on
    // the wake byte because draining_ is set.
    draining_.store(true);
    if (wake_pipe_[1] >= 0) {
        const char byte = 'x';
        (void)!::write(wake_pipe_[1], &byte, 1);
    }
    // Reset every live connection: clients observe a peer death, the
    // reader threads see EOF and wind down. fds stay open (owned by
    // the Conn) until stop() reaps them.
    {
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (const auto &conn : conns_) {
            conn->dead.store(true);
            ::shutdown(conn->fd, SHUT_RDWR);
        }
    }
    // Drop queued work without answering -- this is the one code path
    // that is *allowed* to lose accepted requests, because it models
    // a process SIGKILL; the fleet layer turns the resulting resets
    // into retries. Threads are joined by stop(), never here: abort()
    // may run on the executor thread itself via a chaos hook.
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_.clear();
        executor_stop_ = true;
    }
    queue_cv_.notify_all();
}

std::size_t
Server::queueDepth() const
{
    std::lock_guard<std::mutex> lock(queue_mu_);
    return queue_.size();
}

Server::Stats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
}

void
Server::logLine(const std::string &line) const
{
    if (opts_.verbose)
        std::fprintf(stderr, "[fs_served] %s\n", line.c_str());
}

void
Server::acceptLoop()
{
    while (!draining_.load()) {
        pollfd fds[3];
        nfds_t nfds = 0;
        int unix_slot = -1, tcp_slot = -1;
        fds[nfds] = {wake_pipe_[0], POLLIN, 0};
        ++nfds;
        if (unix_fd_ >= 0) {
            unix_slot = int(nfds);
            fds[nfds] = {unix_fd_, POLLIN, 0};
            ++nfds;
        }
        if (tcp_fd_ >= 0) {
            tcp_slot = int(nfds);
            fds[nfds] = {tcp_fd_, POLLIN, 0};
            ++nfds;
        }
        if (::poll(fds, nfds, -1) < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[0].revents != 0)
            break; // stop() woke us
        for (const int slot : {unix_slot, tcp_slot}) {
            if (slot < 0 || (fds[slot].revents & POLLIN) == 0)
                continue;
            const int fd = ::accept(fds[slot].fd, nullptr, nullptr);
            if (fd < 0)
                continue;
            auto conn = std::make_shared<Conn>();
            conn->fd = fd;
            conn->peer = slot == unix_slot ? "unix" : "tcp";
            {
                std::lock_guard<std::mutex> lock(stats_mu_);
                ++stats_.accepted;
            }
            {
                std::lock_guard<std::mutex> lock(conns_mu_);
                // Reap connections whose readers already finished so
                // a long-lived daemon doesn't accumulate dead Conns.
                for (auto it = conns_.begin(); it != conns_.end();) {
                    if ((*it)->dead.load() &&
                        (*it)->reader.joinable()) {
                        (*it)->reader.join();
                        // The executor may still hold this Conn for a
                        // queued job; retire the fd under the write
                        // lock so no reply ever hits a recycled fd.
                        // The lock must be released before erase():
                        // dropping what may be the last reference
                        // while holding the Conn's own mutex would
                        // unlock freed memory.
                        {
                            std::lock_guard<std::mutex> wl(
                                (*it)->write_mu);
                            ::close((*it)->fd);
                            (*it)->fd = -1;
                        }
                        it = conns_.erase(it);
                    } else {
                        ++it;
                    }
                }
                conns_.push_back(conn);
            }
            conn->reader =
                std::thread([this, conn] { readerLoop(conn); });
            logLine("accepted " + conn->peer + " connection");
        }
    }
    for (int *fd : {&unix_fd_, &tcp_fd_}) {
        if (*fd >= 0) {
            ::close(*fd);
            *fd = -1;
        }
    }
}

void
Server::readerLoop(std::shared_ptr<Conn> conn)
{
    std::vector<std::uint8_t> buf;
    std::uint8_t chunk[4096];
    for (;;) {
        const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break; // EOF, error, or stop()'s SHUT_RD
        buf.insert(buf.end(), chunk, chunk + n);

        std::size_t off = 0;
        bool close_conn = false;
        while (off < buf.size()) {
            Frame frame;
            std::size_t consumed = 0;
            const FrameStatus status = parseFrame(
                buf.data() + off, buf.size() - off, frame, consumed);
            if (status == FrameStatus::kNeedMore)
                break;
            if (status == FrameStatus::kBadMagic ||
                status == FrameStatus::kOversized) {
                sendError(*conn, ErrorCode::kBadRequest,
                          status == FrameStatus::kBadMagic
                              ? "bad frame magic"
                              : "frame payload exceeds limit");
                close_conn = true;
                break;
            }
            off += consumed;
            if (status == FrameStatus::kVersionMismatch) {
                {
                    std::lock_guard<std::mutex> lock(stats_mu_);
                    ++stats_.versionMismatches;
                }
                sendError(*conn, ErrorCode::kVersionMismatch,
                          "wire version " +
                              std::to_string(frame.version) +
                              " != " + std::to_string(kWireVersion));
                continue;
            }
            // Control plane answers from the reader, even while
            // draining: a ping during drain reports draining=1 so
            // routers rotate away before the socket dies.
            if (frame.kind == MsgKind::kPing ||
                frame.kind == MsgKind::kCacheInsert) {
                answerControl(conn, frame);
                continue;
            }
            if (draining_.load()) {
                sendError(*conn, ErrorCode::kShuttingDown,
                          "server draining");
                continue;
            }
            Job job;
            job.conn = conn;
            job.kind = frame.kind;
            job.key = requestKey(frame.kind, frame.payload);
            job.payload = std::move(frame.payload);
            if (opts_.deadlineMs > 0) {
                job.hasDeadline = true;
                job.deadline =
                    std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(opts_.deadlineMs);
            }
            std::vector<Job> shed;
            const bool admitted = enqueue(std::move(job), shed);
            for (const Job &victim : shed) {
                {
                    std::lock_guard<std::mutex> lock(stats_mu_);
                    ++stats_.shed;
                }
                sendError(*victim.conn, ErrorCode::kOverloaded,
                          "shed by higher-priority arrival");
            }
            if (!admitted) {
                {
                    std::lock_guard<std::mutex> lock(stats_mu_);
                    ++stats_.overloaded;
                }
                sendError(*conn, ErrorCode::kOverloaded,
                          "request queue full");
            }
        }
        buf.erase(buf.begin(),
                  buf.begin() + std::vector<std::uint8_t>::
                                    difference_type(off));
        if (close_conn)
            break;
    }
    conn->dead.store(true);
}

void
Server::answerControl(const std::shared_ptr<Conn> &conn,
                      const Frame &frame)
{
    std::string err;
    if (frame.kind == MsgKind::kPing) {
        PingJob ping;
        if (!decodeControl(frame.payload.data(), frame.payload.size(),
                           ping, err)) {
            sendError(*conn, ErrorCode::kBadRequest, err);
            return;
        }
        PingResult res;
        res.nonce = ping.nonce;
        res.queueDepth = std::uint32_t(queueDepth());
        res.cacheEntries = engine_.cache().entryCount();
        res.draining = draining_.load() ? 1 : 0;
        {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.pings;
        }
        sendReply(*conn, MsgKind::kPingReply, encodeControl(res));
        return;
    }
    CacheInsertJob ins;
    if (!decodeControl(frame.payload.data(), frame.payload.size(), ins,
                       err)) {
        sendError(*conn, ErrorCode::kBadRequest, err);
        return;
    }
    // Replication pushes are validated before they touch the cache:
    // the kind must be a non-error reply and the payload must decode
    // as that kind, so a torn or hostile push can cost capacity but
    // never store undecodable bytes under a live key.
    CacheInsertResult res;
    const MsgKind kind = MsgKind(ins.kind);
    Response decoded;
    if (kind != MsgKind::kErrorReply &&
        (ins.kind & 0x8000u) != 0 &&
        decodeResponsePayload(kind, ins.payload.data(),
                              ins.payload.size(), decoded, err)) {
        engine_.cache().insert(ins.key, kind, ins.payload);
        res.stored = 1;
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.cacheInserts;
    }
    sendReply(*conn, MsgKind::kCacheInsertReply, encodeControl(res));
}

bool
Server::enqueue(Job job, std::vector<Job> &shed)
{
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (queue_.size() >= opts_.queueLimit) {
            // Shed the newest job of the lowest priority class that
            // the arrival strictly outranks (newest: its issuer has
            // waited the least, so the eviction wastes the least).
            const int arrival_prio = requestPriority(job.kind);
            auto victim = queue_.end();
            int victim_prio = arrival_prio;
            for (auto it = queue_.begin(); it != queue_.end(); ++it) {
                const int prio = requestPriority(it->kind);
                if (prio < arrival_prio && prio <= victim_prio) {
                    victim = it;
                    victim_prio = prio;
                }
            }
            if (victim == queue_.end())
                return false;
            shed.push_back(std::move(*victim));
            queue_.erase(victim);
        }
        queue_.push_back(std::move(job));
    }
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.requests;
    }
    queue_cv_.notify_one();
    return true;
}

void
Server::executorLoop()
{
    for (;;) {
        std::vector<Job> batch;
        {
            std::unique_lock<std::mutex> lock(queue_mu_);
            queue_cv_.wait(lock, [this] {
                return !queue_.empty() || executor_stop_;
            });
            if (queue_.empty() && executor_stop_)
                return;
            const std::size_t take =
                std::min(queue_.size(), opts_.batchMax);
            batch.reserve(take);
            for (std::size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
        }
        processBatch(batch);
    }
}

void
Server::processBatch(std::vector<Job> &batch)
{
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.batches;
        stats_.maxBatch = std::max<std::uint64_t>(stats_.maxBatch,
                                                  batch.size());
    }
    const auto now = std::chrono::steady_clock::now();
    // In-batch dedupe: identical requests (same content address) are
    // executed once; later copies reuse the exact reply bytes.
    std::unordered_map<std::uint64_t, ServedResponse> answered;
    for (Job &job : batch) {
        if (killed_.load())
            return; // chaos kill: queued work dies with the worker
        if (job.conn->dead.load())
            continue;
        if (job.hasDeadline && now > job.deadline) {
            {
                std::lock_guard<std::mutex> lock(stats_mu_);
                ++stats_.expired;
            }
            sendError(*job.conn, ErrorCode::kDeadlineExceeded,
                      "deadline exceeded in queue");
            continue;
        }
        auto it = answered.find(job.key);
        if (it == answered.end()) {
            ServedResponse resp = engine_.serve(job.kind, job.payload);
            it = answered.emplace(job.key, std::move(resp)).first;
        } else {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.batchDuplicates;
        }
        const ServedResponse &resp = it->second;
        {
            std::lock_guard<std::mutex> lock(stats_mu_);
            if (resp.kind == MsgKind::kErrorReply)
                ++stats_.errors;
            else
                ++stats_.served;
        }
        if (opts_.verbose) {
            char line[128];
            std::snprintf(line, sizeof line,
                          "kind=%u key=%016llx bytes=%zu%s",
                          unsigned(job.kind),
                          (unsigned long long)resp.key,
                          resp.payload.size(),
                          resp.fromCache ? " (cached)" : "");
            logLine(line);
        }
        if (opts_.chaos) {
            const ChaosAction act =
                opts_.chaos(reply_serial_.fetch_add(1));
            if (act.killWorker) {
                abort();
                return;
            }
            if (act.stallMs > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(act.stallMs));
            if (act.resetConn) {
                job.conn->dead.store(true);
                std::lock_guard<std::mutex> lock(job.conn->write_mu);
                if (job.conn->fd >= 0)
                    ::shutdown(job.conn->fd, SHUT_RDWR);
                continue;
            }
            if (act.truncateBytes >= 0) {
                // Send a prefix of the framed reply, then reset: the
                // client sees a torn response followed by peer death.
                const std::vector<std::uint8_t> bytes =
                    frameMessage(resp.kind, resp.payload);
                const std::size_t keep = std::min(
                    bytes.size(), std::size_t(act.truncateBytes));
                std::lock_guard<std::mutex> lock(job.conn->write_mu);
                if (job.conn->fd >= 0) {
                    (void)writeFull(job.conn->fd, bytes.data(), keep);
                    job.conn->dead.store(true);
                    ::shutdown(job.conn->fd, SHUT_RDWR);
                }
                continue;
            }
        }
        sendReply(*job.conn, resp.kind, resp.payload);
    }
}

void
Server::sendReply(Conn &conn, MsgKind kind,
                  const std::vector<std::uint8_t> &payload)
{
    const std::vector<std::uint8_t> bytes = frameMessage(kind, payload);
    std::lock_guard<std::mutex> lock(conn.write_mu);
    if (conn.fd < 0)
        return;
    // A peer that vanished mid-write is an event, not an error: mark
    // the connection dead and let the reader reap it.
    if (writeFull(conn.fd, bytes.data(), bytes.size()) != IoStatus::kOk)
        conn.dead.store(true);
}

void
Server::sendError(Conn &conn, ErrorCode code, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.errors;
    }
    sendReply(conn, MsgKind::kErrorReply,
              encodeResponsePayload(ErrorResult{code, msg}));
}

} // namespace serve
} // namespace fs
