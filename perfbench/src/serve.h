/**
 * @file
 * A closed-loop serving session over an in-process fleet, shared by
 * the `serve` workload and the serve/fleet layer probes.
 */

#ifndef FSBENCH_SERVE_H_
#define FSBENCH_SERVE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "fleet/router.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace fsbench {

/** Request kinds in wire order, for per-kind reporting. */
extern const char *const kKindNames[7];

/** The seeded base request `b`: a pure function of (seed, b). */
fs::serve::Request baseRequest(std::uint64_t seed, std::uint64_t b);

struct SessionConfig {
    std::uint64_t seed = 1;
    double seconds = 5.0;
    int setupRepeats = 1; ///< fleet start + router connect, timed
    /** Fixed per checkout, so the worker endpoints -- and with them the
     *  hash-ring placement of every request key -- are the same in
     *  every run. */
    std::string socketDir;
};

SessionConfig sessionConfig(const Options &opts, double seconds,
                            int setup_repeats);

struct Completed {
    std::uint64_t index = 0; ///< request id - 1
    std::uint64_t base = 0;
    double latencyMs = 0.0;
    bool ok = false;  ///< non-error reply that decoded
};

/**
 * A reply's kind, length and 64-bit FNV-1a digest of its payload
 * bytes. Sessions keep this instead of the bytes, so the benchmark's
 * own bookkeeping does not inflate the run's peak memory.
 */
struct ReplyDigest {
    fs::serve::MsgKind kind = fs::serve::MsgKind::kErrorReply;
    std::size_t size = 0;
    std::uint64_t hash = 0;

    static ReplyDigest of(fs::serve::MsgKind kind,
                          const std::vector<std::uint8_t> &payload);
    bool operator==(const ReplyDigest &) const = default;
};

struct SessionResult {
    std::size_t clients = 0;
    std::size_t workers = 0;
    std::vector<double> setupS;
    double wallS = 0.0;
    std::vector<Completed> done;
    /** Digest of the first routed reply per distinct base request. */
    std::vector<std::pair<std::uint64_t, ReplyDigest>> firstReply;
    std::uint64_t repeatMismatches = 0; ///< a repeat answered differently
    std::vector<double> encodeUs, decodeUs;
    fs::serve::Server::Stats server;       ///< summed over workers
    fs::serve::ResultCache::Stats cache;   ///< summed over workers
    std::vector<std::uint64_t> perWorkerRequests;
    fs::fleet::Router::Stats router;
    std::string error; ///< fleet could not start
};

SessionResult runSession(const SessionConfig &cfg);

/** Direct Engine::execute of every distinct base request of a
 *  session, one verifier thread per core, compared with the routed
 *  reply's digest. */
struct Verification {
    std::uint64_t checked = 0;
    std::uint64_t mismatched = 0;
    std::vector<std::pair<std::uint64_t, double>> execMs; ///< base -> ms
};
Verification verifySession(const SessionConfig &cfg,
                           const SessionResult &session, bool corrupt_first);

} // namespace fsbench

#endif // FSBENCH_SERVE_H_
