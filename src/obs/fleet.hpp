/// \file
/// Fleet telemetry merge: combines per-worker trace events and metric
/// samples — pulled over `chrysalis-serve-v1` by the dist layer — into
/// one clock-aligned Chrome trace and one key-namespaced metrics
/// rollup.
///
/// The correctness crux is clock alignment. Every process timestamps
/// spans against its own `monotonic_seconds()` epoch ("the first call
/// in that process"), so raw timestamps from two workers are not
/// comparable at all. The dist layer estimates each worker's offset
/// from a health-probe RTT midpoint (`clock_offset_from_probe`), the
/// collector shifts each worker's events by its offset onto the
/// coordinator's timeline, re-bases the merged set so the earliest
/// span starts at 0, and clamps any residual negative duration to
/// zero (offsets are estimates with ±RTT/2 error; a merged trace must
/// never show time running backwards). Workers appear as separate
/// Chrome-trace processes, named by their worker_id.
///
/// This module is pure data transformation — no sockets, no protocol.
/// Pulling lives in src/dist/fleet_telemetry.hpp (dist may depend on
/// obs; never the reverse).

#ifndef CHRYSALIS_OBS_FLEET_HPP
#define CHRYSALIS_OBS_FLEET_HPP

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chrysalis::obs {

/// Everything pulled (or locally gathered) from one fleet member.
struct WorkerTelemetry {
    std::string worker_id;
    /// Seconds to ADD to this worker's event timestamps to land on the
    /// collector's reference timeline. For a pulled worker this is
    /// `session-epoch -> worker-monotonic` skew (exact, reported by
    /// trace_export as mono_skew_s) plus the probe-estimated
    /// `worker-monotonic -> local-monotonic` offset; for the
    /// coordinator's own session it is just the exact skew.
    double clock_offset_s = 0.0;
    std::vector<TraceEvent> events;    ///< session-epoch timestamps
    std::vector<MetricSample> metrics;
    std::uint64_t dropped_events = 0;  ///< worker-side cap casualties
};

/// Offset estimate from one request/reply round trip: the reply's
/// remote `monotonic_seconds()` reading is assumed taken at the RTT
/// midpoint, so `local_monotonic ≈ remote_monotonic + offset`. Error
/// is bounded by ±RTT/2 (asymmetric paths); FleetCollector clamps the
/// residue.
double clock_offset_from_probe(double local_send_s, double local_recv_s,
                               double remote_mono_now_s);

/// This process's own telemetry as one fleet member — how a
/// coordinator joins the merge it collects. No probe is needed: the
/// collector's reference timeline is this process's monotonic clock,
/// so the session's exact epoch skew is the whole offset. Metric
/// samples come from \p registry when it is non-null.
WorkerTelemetry local_telemetry(std::string worker_id,
                                const TraceSession& session,
                                const MetricsRegistry* registry);

/// Merges worker telemetry into one aligned trace + metrics rollup.
/// Not thread-safe; build on one thread after the campaign quiesces.
class FleetCollector
{
  public:
    /// One event after alignment, with its owning worker index.
    struct AlignedEvent {
        std::size_t worker = 0;  ///< index into workers()
        TraceEvent event;        ///< start_us re-based, duration >= 0
    };

    void add_worker(WorkerTelemetry telemetry);

    const std::vector<WorkerTelemetry>& workers() const
    {
        return workers_;
    }

    /// Every event shifted by its worker's clock_offset_s, re-based so
    /// the earliest start is 0, negative durations clamped to 0 (count
    /// reported via \p clamped when non-null). Sorted by (worker, tid,
    /// start, depth) for a stable order.
    std::vector<AlignedEvent> aligned(std::uint64_t* clamped = nullptr)
        const;

    /// Total events across workers.
    std::uint64_t event_count() const;

    /// Writes the merged Chrome trace: one process per worker (pid =
    /// worker index, process_name metadata = worker_id) plus the
    /// aligned "X" events. Deterministic for fixed inputs.
    void write_chrome_trace(std::ostream& out) const;

    /// write_chrome_trace to \p path; fatal() when unwritable.
    void write_chrome_trace_file(const std::string& path) const;

    /// The fleet metrics rollup as a `chrysalis-metrics-v1` document:
    /// every worker sample re-keyed `fleet/<worker_id>/<name>` plus
    /// cross-worker aggregates under `fleet/total/<name>` (counters
    /// and histograms with matching bounds sum; gauges sum; histograms
    /// with mismatched bounds are skipped from totals) and a
    /// `fleet/workers` counter.
    std::string metrics_rollup_json(ReportMode mode = ReportMode::kFull)
        const;

    /// metrics_rollup_json to \p path; fatal() when unwritable.
    void write_metrics_rollup_file(
        const std::string& path,
        ReportMode mode = ReportMode::kFull) const;

  private:
    std::vector<WorkerTelemetry> workers_;
};

/// Flat-text codecs for shipping events/samples through flat-JSON
/// reply fields (one encoded record per field value). Doubles go
/// through format_double_17g so records round-trip bit-identically.
std::string encode_trace_event(const TraceEvent& event);
/// Returns false (leaving \p out untouched) on malformed input.
bool decode_trace_event(const std::string& text, TraceEvent& out);
std::string encode_metric_sample(const MetricSample& sample);
/// Returns false (leaving \p out untouched) on malformed input.
bool decode_metric_sample(const std::string& text, MetricSample& out);

}  // namespace chrysalis::obs

#endif  // CHRYSALIS_OBS_FLEET_HPP
