/// \file
/// Worker fleet bookkeeping for distributed campaigns: parse
/// "host:port,host:port" worker lists and probe each daemon's `health`
/// endpoint to learn its identity and readiness before work is
/// dispatched.
///
/// Probing is *informational*: the coordinator reports which workers
/// answered (and under which `worker_id`), but dispatch never gates on
/// a successful probe — a worker that was busy during the probe can
/// still pull work, and a worker that dies after probing is handled by
/// the coordinator's reassignment path. This keeps the probe free of
/// TOCTOU semantics: readiness is a snapshot, not a contract.
///
/// This layer speaks only `serve::Client`; it contains no sockets of
/// its own (enforced by chrysalis_lint's network-header rule, which
/// does not allowlist src/dist/).

#ifndef CHRYSALIS_DIST_WORKER_POOL_HPP
#define CHRYSALIS_DIST_WORKER_POOL_HPP

#include <string>
#include <vector>

#include "serve/client.hpp"

namespace chrysalis::dist {

/// One worker daemon's dial address.
struct WorkerAddress {
    std::string host;
    int port = 0;

    /// "host:port" — the display / metric-attribution form.
    std::string to_string() const;
};

/// Parses a comma-separated "host:port,host:port" list (the
/// `--workers` flag). fatal() on an empty list, a missing port, or a
/// port outside [1, 65535].
std::vector<WorkerAddress> parse_worker_list(const std::string& list);

/// Outcome of one worker's `health` probe.
struct WorkerStatus {
    WorkerAddress address;
    std::string worker_id;  ///< daemon-reported identity; "" unreachable
    bool reachable = false; ///< the probe got a well-formed reply
    bool ready = false;     ///< reachable and not draining
};

/// Probes every worker once, sequentially, with a single `health`
/// attempt each (\p client_options shapes the connections' timeouts;
/// `health` is not memoized, so the resilient client would not retry
/// it anyway). Unreachable workers are recorded, not fatal.
std::vector<WorkerStatus>
probe_workers(const std::vector<WorkerAddress>& workers,
              serve::ClientOptions client_options);

}  // namespace chrysalis::dist

#endif  // CHRYSALIS_DIST_WORKER_POOL_HPP
