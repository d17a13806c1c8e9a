#include "dist/fleet_telemetry.hpp"

#include <string>
#include <utility>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace chrysalis::dist {

void
FleetPullOptions::validate() const
{
    client.validate();
    if (max_events == 0)
        fatal("FleetPullOptions: max_events must be >= 1");
    if (max_entries == 0)
        fatal("FleetPullOptions: max_entries must be >= 1");
    if (max_pages == 0)
        fatal("FleetPullOptions: max_pages must be >= 1");
}

namespace {

/// One pull request; returns false on any transport/protocol failure
/// or an "ok":0 reply (pull types are never retried by the client —
/// they report live state).
bool
pull_page(serve::Client& client, const std::string& type,
          const FlatJsonFields& params, serve::Response& response)
{
    return client.request(type, params, response) ==
               serve::CallStatus::kOk &&
           response.ok;
}

bool
drain_metrics(serve::Client& client, const FleetPullOptions& options,
              obs::WorkerTelemetry& out)
{
    std::uint64_t cursor = 0;
    for (std::uint64_t page = 0; page < options.max_pages; ++page) {
        FlatJsonFields params;
        params["cursor"] = std::to_string(cursor);
        params["max_entries"] = std::to_string(options.max_entries);
        serve::Response response;
        if (!pull_page(client, "metrics_snapshot", params, response))
            return false;
        std::uint64_t attached = 1;
        json_get_uint64(response.fields, "attached", attached);
        if (attached == 0)
            return true;  // worker runs without a registry: no samples
        std::uint64_t entries = 0;
        json_get_uint64(response.fields, "entries", entries);
        for (std::uint64_t i = 0; i < entries; ++i) {
            std::string key = "m";
            key += std::to_string(i);
            std::string encoded;
            if (!json_get_string(response.fields, key.c_str(), encoded))
                return false;
            obs::MetricSample sample;
            if (!obs::decode_metric_sample(encoded, sample))
                return false;
            out.metrics.push_back(std::move(sample));
        }
        std::uint64_t remaining = 0;
        json_get_uint64(response.fields, "remaining", remaining);
        if (remaining == 0)
            return true;
        json_get_uint64(response.fields, "cursor_next", cursor);
    }
    warn("dist: metrics pull truncated after ", options.max_pages,
         " pages");
    return true;
}

bool
drain_trace(serve::Client& client, const FleetPullOptions& options,
            double probe_offset_s, obs::WorkerTelemetry& out)
{
    std::uint64_t cursor = 0;
    for (std::uint64_t page = 0; page < options.max_pages; ++page) {
        FlatJsonFields params;
        params["cursor"] = std::to_string(cursor);
        params["max_events"] = std::to_string(options.max_events);
        serve::Response response;
        if (!pull_page(client, "trace_export", params, response))
            return false;
        if (page == 0) {
            json_get_string(response.fields, "worker_id",
                            out.worker_id);
            // Total shift onto the puller's timeline: exact
            // session-epoch -> worker-monotonic skew, plus the probe's
            // worker-monotonic -> local-monotonic estimate.
            double skew_s = 0.0;
            json_get_double(response.fields, "mono_skew_s", skew_s);
            out.clock_offset_s = skew_s + probe_offset_s;
        }
        std::uint64_t attached = 1;
        json_get_uint64(response.fields, "attached", attached);
        if (attached == 0)
            return true;  // worker runs without a trace session
        json_get_uint64(response.fields, "dropped", out.dropped_events);
        std::uint64_t events = 0;
        json_get_uint64(response.fields, "events", events);
        for (std::uint64_t i = 0; i < events; ++i) {
            std::string key = "e";
            key += std::to_string(i);
            std::string encoded;
            if (!json_get_string(response.fields, key.c_str(), encoded))
                return false;
            obs::TraceEvent event;
            if (!obs::decode_trace_event(encoded, event))
                return false;
            out.events.push_back(std::move(event));
        }
        std::uint64_t remaining = 0;
        json_get_uint64(response.fields, "remaining", remaining);
        if (remaining == 0)
            return true;
        json_get_uint64(response.fields, "cursor_next", cursor);
    }
    warn("dist: trace pull truncated after ", options.max_pages,
         " pages");
    return true;
}

/// One worker's pull (see collect_fleet_telemetry). Returns false —
/// leaving \p out cleared — when the worker is unreachable or a page
/// is malformed.
bool
pull_worker_telemetry(const WorkerAddress& address,
                      const FleetPullOptions& options,
                      obs::WorkerTelemetry& out)
{
    out = obs::WorkerTelemetry();
    out.worker_id = address.to_string();  // until the worker says better

    serve::ClientOptions client_options = options.client;
    client_options.max_attempts = 1;
    serve::Client client(client_options);
    if (!client.connect(address.host, address.port))
        return false;

    // Health round trip, bracketed by local clock reads: the worker's
    // mono_now_s was read inside [send, recv], assumed at the RTT
    // midpoint (error <= RTT/2; FleetCollector clamps the residue).
    const double send_s = obs::monotonic_seconds();
    serve::Response health;
    if (!pull_page(client, "health", {}, health))
        return false;
    const double recv_s = obs::monotonic_seconds();
    double probe_offset_s = 0.0;
    double mono_now_s = 0.0;
    if (json_get_double(health.fields, "mono_now_s", mono_now_s)) {
        probe_offset_s =
            obs::clock_offset_from_probe(send_s, recv_s, mono_now_s);
    }

    if (!drain_metrics(client, options, out) ||
        !drain_trace(client, options, probe_offset_s, out)) {
        out = obs::WorkerTelemetry();
        return false;
    }
    return true;
}

}  // namespace

std::size_t
collect_fleet_telemetry(const std::vector<WorkerAddress>& workers,
                        const FleetPullOptions& options,
                        obs::FleetCollector& collector)
{
    OBS_SPAN("dist/fleet_pull");
    options.validate();
    std::size_t pulled = 0;
    for (const WorkerAddress& address : workers) {
        obs::WorkerTelemetry telemetry;
        if (!pull_worker_telemetry(address, options, telemetry)) {
            warn("dist: fleet telemetry pull from ",
                 address.to_string(), " failed; merging without it");
            continue;
        }
        collector.add_worker(std::move(telemetry));
        ++pulled;
    }
    return pulled;
}

}  // namespace chrysalis::dist
