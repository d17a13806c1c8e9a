#include "dist/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <thread>
#include <utility>

#include "common/logging.hpp"
#include "common/mutex.hpp"
#include "common/stable_hash.hpp"
#include "common/thread_annotations.hpp"
#include "core/campaign_journal.hpp"
#include "dnn/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"

namespace chrysalis::dist {

DistCampaignOptions::DistCampaignOptions()
{
    // A run_case request executes a whole bi-level search; the serve
    // default deadline (sized for single evaluations) would turn every
    // healthy long case into a spurious reassignment.
    client.request_timeout_s = 300.0;
}

void
DistCampaignOptions::validate() const
{
    if (workers.empty())
        fatal("DistCampaignOptions: workers must not be empty");
    client.validate();
    if (streams_per_worker < 1)
        fatal("DistCampaignOptions: streams_per_worker must be >= 1, "
              "got ", streams_per_worker);
    if (max_worker_failures < 1)
        fatal("DistCampaignOptions: max_worker_failures must be >= 1, "
              "got ", max_worker_failures);
    if (!(progress_interval_s >= 0.0) ||
        !std::isfinite(progress_interval_s))
        fatal("DistCampaignOptions: progress_interval_s must be finite "
              "and >= 0, got ", progress_interval_s);
}

namespace {

/// Metric-name-safe spelling of a worker identity ("host:1234" ->
/// "host_1234") so per-worker counters nest under dist/worker/.
std::string
sanitize_worker_id(const std::string& id)
{
    std::string out = id;
    for (char& c : out) {
        const bool keep = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '_' || c == '-';
        if (!keep)
            c = '_';
    }
    return out;
}

/// State shared by every lane; all mutation under `mutex`.
struct Shared {
    Mutex mutex;
    CondVar cv;
    /// Unfinished case indices. Pops come from the front (lowest index
    /// first) and reassignments push the front, so dispatch order stays
    /// lowest-index-first even under failures.
    std::deque<std::size_t> queue CHRYSALIS_GUARDED_BY(mutex);
    std::size_t inflight CHRYSALIS_GUARDED_BY(mutex) = 0;
    /// poison reply: stop the fleet
    bool aborted CHRYSALIS_GUARDED_BY(mutex) = false;
    std::string abort_error CHRYSALIS_GUARDED_BY(mutex);
    /// per case index
    std::vector<core::JournalRecord> records CHRYSALIS_GUARDED_BY(mutex);
    std::vector<char> done CHRYSALIS_GUARDED_BY(mutex);
    /// per worker
    std::vector<int> live_lanes CHRYSALIS_GUARDED_BY(mutex);
    std::uint64_t dispatched CHRYSALIS_GUARDED_BY(mutex) = 0;
    std::uint64_t completed CHRYSALIS_GUARDED_BY(mutex) = 0;
    std::uint64_t reassigned CHRYSALIS_GUARDED_BY(mutex) = 0;
    /// Remote stage-time sums parsed from traced replies' timing_*
    /// fields (telemetry only — never in the deterministic outputs).
    StageTotals stage_totals CHRYSALIS_GUARDED_BY(mutex);
    /// Worst consecutive-failure streak currently held by any of the
    /// worker's lanes — the heartbeat's "f" figure.
    std::vector<int> worker_streaks CHRYSALIS_GUARDED_BY(mutex);
};

/// One line of per-worker lane state for the progress heartbeat:
/// `[id:COMPLETEDc/REASSIGNEDr/STREAKf ...]` — completed cases,
/// reassignments charged, and the worst live consecutive-failure
/// streak, per worker.
std::string
fleet_detail_locked(const std::vector<WorkerReport>& reports,
                    const std::vector<int>& streaks)
{
    std::string detail = "[";
    for (std::size_t w = 0; w < reports.size(); ++w) {
        const WorkerReport& report = reports[w];
        if (w != 0)
            detail += ' ';
        detail += report.worker_id.empty()
                      ? report.address.to_string()
                      : report.worker_id;
        detail += ':';
        detail += std::to_string(report.completed);
        detail += "c/";
        detail += std::to_string(report.failures);
        detail += "r/";
        detail += std::to_string(streaks[w]);
        detail += 'f';
        if (report.dead)
            detail += "(dead)";
    }
    detail += ']';
    return detail;
}

/// How one request outcome drives the scheduler.
enum class Outcome {
    kSuccess,    ///< record stored
    kTransient,  ///< requeue + count against the lane's budget
    kPoison,     ///< deterministic refusal: abort the campaign
};

void
bump_counter(const char* name, obs::Stability stability,
             std::uint64_t delta = 1)
{
    if (obs::MetricsRegistry* registry = obs::metrics())
        registry->counter(name, stability).add(delta);
}

void
set_queue_gauge(std::size_t depth)
{
    if (obs::MetricsRegistry* registry = obs::metrics())
        registry->gauge("dist/queue_depth", obs::Stability::kVolatile)
            .set(static_cast<double>(depth));
}

/// One lane: pops case indices, sends run_case requests over its own
/// client, stores records / requeues failures. Exits when the work is
/// finished, the campaign aborted, or its failure budget is spent.
void
lane_loop(const core::CampaignSpec& spec,
          const std::vector<std::string>& labels,
          const std::vector<std::string>& keys,
          const DistCampaignOptions& options, std::size_t worker_index,
          std::uint64_t trace_id, Shared& shared,
          std::vector<WorkerReport>& reports,
          obs::ProgressReporter& progress)
{
    WorkerReport& report = reports[worker_index];
    serve::Client client(options.client);
    // connect() also *remembers* the address — request()'s automatic
    // reconnect needs that even when this first dial fails (a worker
    // that is down right now may come back mid-campaign).
    client.connect(report.address.host, report.address.port);
    const std::string completed_metric =
        "dist/worker/" +
        sanitize_worker_id(report.worker_id.empty()
                               ? report.address.to_string()
                               : report.worker_id) +
        "/completed";
    int consecutive_failures = 0;

    while (true) {
        std::size_t index = 0;
        {
            MutexLock lock(shared.mutex);
            while (!shared.aborted && shared.queue.empty() &&
                   shared.inflight != 0)
                shared.cv.wait(shared.mutex);
            // Exit only when nothing is queued AND nothing is in
            // flight: an in-flight case on another lane may still fail
            // and come back to the queue.
            if (shared.aborted ||
                (shared.queue.empty() && shared.inflight == 0)) {
                --shared.live_lanes[worker_index];
                return;
            }
            index = shared.queue.front();
            shared.queue.pop_front();
            ++shared.inflight;
            ++shared.dispatched;
            set_queue_gauge(shared.queue.size());
        }
        bump_counter("dist/dispatched", obs::Stability::kVolatile);

        // Every request carries the campaign's trace context: the
        // deterministic trace_id, the case index as both the parent
        // span id and the attribution field. Workers thread it through
        // their stage spans and splice timing_* fields into the reply;
        // neither touches the memoized body bytes or the journal.
        obs::TraceContext trace_context;
        trace_context.trace_id = trace_id;
        trace_context.parent_span =
            static_cast<std::uint64_t>(index) + 1;
        trace_context.case_index = static_cast<std::int64_t>(index);
        FlatJsonFields fields = core::case_request_fields(spec, index);
        fields["trace"] = obs::format_trace_field(trace_context);
        fields["case_index"] = std::to_string(index);
        const double start_s = obs::monotonic_seconds();
        serve::Response response;
        serve::CallStatus status;
        {
            // Local span + context: the coordinator's own dist/case
            // span (and the client's synthetic remote child spans)
            // inherit the trace_id/case attribution.
            obs::ScopedTraceContext scoped(trace_context);
            OBS_SPAN("dist/case");
            status = client.request("run_case", fields, response);
        }
        if (obs::MetricsRegistry* registry = obs::metrics()) {
            registry
                ->histogram("dist/request_latency_s",
                            obs::latency_bounds(),
                            obs::Stability::kVolatile)
                .record(obs::monotonic_seconds() - start_s);
        }

        Outcome outcome = Outcome::kTransient;
        std::string error;
        core::JournalRecord record;
        if (status == serve::CallStatus::kOk) {
            if (response.ok) {
                if (!core::campaign_record_from_fields(response.fields,
                                                       record)) {
                    error = "malformed run_case reply";
                } else if (record.label != labels[index]) {
                    error = "reply labelled '" + record.label +
                            "' for case '" + labels[index] + "'";
                } else {
                    outcome = Outcome::kSuccess;
                }
            } else if (response.error == serve::kErrOverloaded ||
                       response.error == serve::kErrShuttingDown) {
                error = response.error + ": " + response.detail;
            } else {
                // bad_request / unknown_type / bad_version: the reply
                // is a pure function of the request, so every worker
                // would refuse identically — do not cycle the fleet.
                outcome = Outcome::kPoison;
                error = response.error + ": " + response.detail;
            }
        } else {
            error = serve::to_string(status);
        }

        bool lane_dead = false;
        std::string heartbeat_detail;
        {
            MutexLock lock(shared.mutex);
            --shared.inflight;
            switch (outcome) {
              case Outcome::kSuccess: {
                record.key = keys[index];
                if (!options.journal_path.empty()) {
                    core::append_campaign_journal(options.journal_path,
                                                  record);
                }
                shared.records[index] = std::move(record);
                shared.done[index] = 1;
                ++shared.completed;
                ++report.completed;
                consecutive_failures = 0;
                shared.worker_streaks[worker_index] = 0;
                // Remote stage breakdown, spliced in by the worker for
                // traced requests; absent on journal-restored or
                // pre-timing workers.
                double stage_s = 0.0;
                if (json_get_double(response.fields, "timing_queue_s",
                                    stage_s)) {
                    shared.stage_totals.queue_wait_s += stage_s;
                    if (json_get_double(response.fields,
                                        "timing_decode_s", stage_s))
                        shared.stage_totals.decode_s += stage_s;
                    if (json_get_double(response.fields,
                                        "timing_eval_s", stage_s))
                        shared.stage_totals.eval_s += stage_s;
                    if (json_get_double(response.fields,
                                        "timing_encode_s", stage_s))
                        shared.stage_totals.encode_s += stage_s;
                    ++shared.stage_totals.samples;
                }
                break;
              }
              case Outcome::kTransient:
                shared.queue.push_front(index);
                ++shared.reassigned;
                ++report.failures;
                report.last_error = error;
                ++consecutive_failures;
                shared.worker_streaks[worker_index] =
                    std::max(shared.worker_streaks[worker_index],
                             consecutive_failures);
                if (consecutive_failures >=
                    options.max_worker_failures) {
                    lane_dead = true;
                    if (--shared.live_lanes[worker_index] == 0)
                        report.dead = true;
                }
                set_queue_gauge(shared.queue.size());
                break;
              case Outcome::kPoison:
                shared.aborted = true;
                shared.abort_error = "case '" + labels[index] +
                                     "' refused by " +
                                     report.address.to_string() + ": " +
                                     error;
                --shared.live_lanes[worker_index];
                break;
            }
            if (outcome != Outcome::kPoison)
                heartbeat_detail =
                    fleet_detail_locked(reports, shared.worker_streaks);
        }
        shared.cv.notify_all();
        if (!heartbeat_detail.empty())
            progress.set_detail(std::move(heartbeat_detail));

        if (outcome == Outcome::kSuccess) {
            bump_counter("dist/completed", obs::Stability::kStable);
            bump_counter(completed_metric.c_str(),
                         obs::Stability::kVolatile);
            progress.advance();
        } else if (outcome == Outcome::kTransient) {
            bump_counter("dist/reassigned", obs::Stability::kVolatile);
            bump_counter("dist/worker_failures",
                         obs::Stability::kVolatile);
            progress.note_retry();
            warn("dist: case '", labels[index], "' reassigned (worker ",
                 report.address.to_string(), ": ", error, ")");
        } else {
            return;  // poison: abort flag is set, fleet unwinds
        }
        if (lane_dead) {
            bump_counter("dist/workers_dead", obs::Stability::kVolatile);
            warn("dist: worker ", report.address.to_string(),
                 " dropped after ", options.max_worker_failures,
                 " consecutive failures (last: ", error, ")");
            return;
        }
        if (status == serve::CallStatus::kCircuitOpen) {
            // The breaker fast-fails without touching the network; pace
            // the lane so it does not burn its whole failure budget
            // inside one cooldown window.
            std::this_thread::sleep_for(std::chrono::duration<double>(
                options.client.circuit_breaker_cooldown_s));
        }
    }
}

}  // namespace

DistCampaignResult
run_distributed_campaign(const core::CampaignSpec& spec,
                         const DistCampaignOptions& options)
{
    spec.validate();
    options.validate();
    if (spec.model.find('.') != std::string::npos ||
        spec.model.find('/') != std::string::npos) {
        fatal("distributed campaigns require a model-zoo name (workers "
              "cannot read a model file from the coordinator's disk); "
              "got '", spec.model, "'");
    }

    obs::SpanTimer timer("dist/run");

    const dnn::Model model = dnn::make_model(spec.model);
    const std::vector<core::CampaignCase> cases =
        core::build_campaign_cases(spec, model);
    std::unique_ptr<fault::FaultInjector> faults;
    const search::ExplorerOptions base =
        core::build_explorer_options(spec, faults);

    const std::size_t count = cases.size();
    std::vector<std::string> labels(count);
    std::vector<std::string> keys(count);
    for (std::size_t i = 0; i < count; ++i) {
        labels[i] = cases[i].label;
        keys[i] = core::campaign_case_key_hex(cases[i], base, i);
    }

    // Lanes do not exist yet, so these locks are uncontended; they are
    // taken anyway because every Shared field is guarded by the mutex.
    Shared shared;
    std::vector<char> restored(count, 0);
    std::size_t restored_count = 0;
    const bool journaled = !options.journal_path.empty();
    bool have_work = false;
    {
        MutexLock lock(shared.mutex);
        shared.records.resize(count);
        shared.done.assign(count, 0);
        shared.live_lanes.assign(
            options.workers.size(),
            options.streams_per_worker);
        shared.worker_streaks.assign(options.workers.size(), 0);

        // Resume: restore journaled cases, queue the rest in index
        // order.
        if (journaled) {
            const auto journal =
                core::load_campaign_journal(options.journal_path);
            for (std::size_t i = 0; i < count; ++i) {
                const auto it = journal.find(keys[i]);
                if (it == journal.end())
                    continue;
                shared.records[i] =
                    core::deterministic_record(it->second);
                shared.records[i].key = keys[i];
                shared.done[i] = 1;
                restored[i] = 1;
                ++restored_count;
            }
        }
        for (std::size_t i = 0; i < count; ++i) {
            if (!shared.done[i])
                shared.queue.push_back(i);
        }
        have_work = !shared.queue.empty();
    }

    DistCampaignResult result;
    result.cases = count;
    result.restored = restored_count;
    {
        // Informational readiness probe; dispatch never gates on it.
        OBS_SPAN("dist/probe");
        for (const WorkerStatus& status :
             probe_workers(options.workers, options.client)) {
            WorkerReport& report = result.workers.emplace_back();
            report.address = status.address;
            report.worker_id = status.worker_id;
            report.ready_at_start = status.ready;
            if (status.ready)
                ++result.workers_ready;
        }
    }

    bump_counter("dist/cases_total", obs::Stability::kStable, count);
    bump_counter("dist/journal_restored", obs::Stability::kStable,
                 restored_count);
    if (obs::MetricsRegistry* registry = obs::metrics()) {
        registry->gauge("dist/workers_ready", obs::Stability::kVolatile)
            .set(static_cast<double>(result.workers_ready));
    }
    {
        MutexLock lock(shared.mutex);
        set_queue_gauge(shared.queue.size());
    }

    obs::ProgressReporter::Options progress_options;
    progress_options.min_interval_s = options.progress_interval_s;
    obs::ProgressReporter progress("dist", count, progress_options);
    for (std::size_t i = 0; i < restored_count; ++i)
        progress.note_restored();
    progress.advance(restored_count);

    // Deterministic campaign trace id: a pure function of the case
    // keys (which already hash the spec and explorer config), so a
    // rerun attributes spans to the same trace. |1 keeps it nonzero —
    // trace_id 0 means "untraced" on the wire.
    StableHash trace_hash;
    trace_hash.add(spec.model);
    trace_hash.add(static_cast<std::uint64_t>(count));
    for (const std::string& key : keys)
        trace_hash.add(key);
    const std::uint64_t trace_id = trace_hash.key().lo | 1;

    if (have_work) {
        std::vector<std::thread> lanes;
        lanes.reserve(options.workers.size() *
                      static_cast<std::size_t>(
                          options.streams_per_worker));
        for (std::size_t w = 0; w < options.workers.size(); ++w) {
            for (int s = 0; s < options.streams_per_worker; ++s) {
                lanes.emplace_back([&, w] {
                    lane_loop(spec, labels, keys, options, w, trace_id,
                              shared, result.workers, progress);
                });
            }
        }
        for (std::thread& lane : lanes)
            lane.join();
    }

    // Every lane has been joined; the lock is held for the rest of the
    // merge/rewrite tail to satisfy the guarded-by contract.
    MutexLock lock(shared.mutex);
    if (shared.aborted)
        fatal("distributed campaign aborted: ", shared.abort_error);
    std::size_t missing = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (!shared.done[i])
            ++missing;
    }
    if (missing > 0) {
        std::string detail;
        for (const WorkerReport& report : result.workers) {
            if (report.last_error.empty())
                continue;
            if (!detail.empty())
                detail += "; ";
            detail += report.address.to_string() + ": " +
                      report.last_error;
        }
        fatal("distributed campaign failed: ", missing, " of ", count,
              " cases unfinished after every worker died (", detail,
              ")");
    }

    // Merge in case order — this is what makes dynamic assignment
    // invisible in the output.
    result.campaign.entries.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        core::CampaignEntry entry =
            core::from_journal_record(shared.records[i]);
        entry.from_journal = restored[i] != 0;
        result.campaign.entries.push_back(std::move(entry));
    }
    result.campaign.journal_skips = restored_count;

    // Canonical journal rewrite: same bytes as an uninterrupted
    // single-process deterministic-journal run — records in case order,
    // foreign/stale keys dropped. Atomic via rename so a kill leaves
    // either the old append-order journal or the new canonical one.
    if (journaled) {
        OBS_SPAN("dist/journal_rewrite");
        const std::string tmp_path = options.journal_path + ".tmp";
        {
            std::ofstream output(tmp_path, std::ios::trunc);
            if (!output)
                fatal("dist: cannot write journal '", tmp_path, "'");
            for (std::size_t i = 0; i < count; ++i)
                output << core::to_json_line(shared.records[i]) << '\n';
            output.flush();
            if (!output)
                fatal("dist: write to '", tmp_path, "' failed");
        }
        if (std::rename(tmp_path.c_str(),
                        options.journal_path.c_str()) != 0) {
            fatal("dist: cannot rename '", tmp_path, "' over '",
                  options.journal_path, "'");
        }
    }

    progress.finish();
    result.dispatched = shared.dispatched;
    result.completed = shared.completed;
    result.reassigned = shared.reassigned;
    result.stage_totals = shared.stage_totals;
    result.campaign.wall_time_s = timer.elapsed_s();
    return result;
}

}  // namespace chrysalis::dist
