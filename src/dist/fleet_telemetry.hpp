/// \file
/// Fleet telemetry pull: drains a worker daemon's live metrics and
/// trace buffers over the `chrysalis-serve-v1` `metrics_snapshot` /
/// `trace_export` request types into an `obs::WorkerTelemetry`, ready
/// for `obs::FleetCollector` to merge.
///
/// The split of responsibilities with obs/fleet.hpp: this layer owns
/// everything protocol-shaped (cursor paging under the 1 MiB frame
/// limit, the health probe that estimates the worker's clock offset),
/// while the collector owns the pure math (alignment, clamping,
/// rollup). Pull at quiescence — after the campaign's lanes have
/// joined — so cursors walk a stable buffer; the handler documents the
/// same contract.

#ifndef CHRYSALIS_DIST_FLEET_TELEMETRY_HPP
#define CHRYSALIS_DIST_FLEET_TELEMETRY_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dist/worker_pool.hpp"
#include "obs/fleet.hpp"
#include "serve/client.hpp"

namespace chrysalis::dist {

/// Knobs of one telemetry pull; validate() fatals on nonsense values.
struct FleetPullOptions {
    /// Shapes the pull connections (timeouts, breaker). Pull requests
    /// report live state, so the client never retries them; a failed
    /// page fails the worker's pull.
    serve::ClientOptions client;
    std::uint64_t max_events = 512;   ///< trace_export page size
    std::uint64_t max_entries = 128;  ///< metrics_snapshot page size
    /// Runaway guard: a worker whose buffers need more pages than this
    /// (per request type) is truncated, not looped on forever.
    std::uint64_t max_pages = 4096;

    void validate() const;
};

/// Pulls every worker's telemetry into \p collector: per worker, a
/// `health` round trip for the clock offset
/// (obs::clock_offset_from_probe), then cursor loops draining
/// `metrics_snapshot` and `trace_export`. Each pulled worker carries
/// its id, its events on their session timeline, its metric samples,
/// and the total clock_offset_s (exact session->monotonic skew plus the
/// probe-estimated monotonic offset) that FleetCollector needs.
/// Unreachable workers, and workers whose pages are malformed, are
/// skipped with a warning (a fleet merge at campaign end must tolerate
/// workers that died mid-run). Returns the number of workers pulled.
/// The whole pull runs under a `dist/fleet_pull` span.
std::size_t collect_fleet_telemetry(
    const std::vector<WorkerAddress>& workers,
    const FleetPullOptions& options, obs::FleetCollector& collector);

}  // namespace chrysalis::dist

#endif  // CHRYSALIS_DIST_FLEET_TELEMETRY_HPP
