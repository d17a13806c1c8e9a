/// \file
/// Distributed campaign coordinator: executes a `core::CampaignSpec`
/// across a fleet of `chrysalis_served` daemons over the existing
/// `chrysalis-serve-v1` protocol, with output byte-identical to a
/// single-process `run_campaign` at any worker count.
///
/// Scheduling is pull-based: every worker lane (one `serve::Client`
/// per lane, `streams_per_worker` lanes per worker) pops the
/// lowest-index unfinished case from a shared queue, sends one
/// `run_case` request and stores the returned deterministic journal
/// record at the case's index. Assignment order is therefore dynamic
/// (whichever lane is free takes the next case) but *results* are not:
/// each reply is a pure function of the request fields (the worker
/// runs the same `run_campaign_case` code path a local campaign uses,
/// with wall-clock fields zeroed), and the coordinator merges by case
/// index — so the CSV and the canonical journal come out byte-identical
/// to a sequential local run no matter how work was distributed.
///
/// Fault tolerance: a transient failure (connect/send/recv error,
/// request deadline, open circuit breaker, or an `overloaded`/
/// `shutting_down` refusal) puts the case back at the *front* of the
/// queue — preserving lowest-index-first dispatch — and counts against
/// the lane's consecutive-failure budget; a lane that exhausts
/// `max_worker_failures` exits and its worker is reported dead. A
/// *poison* reply (`bad_request`, `unknown_type`, `bad_version`) is
/// deterministic — every worker would refuse the same way — so it
/// aborts the campaign instead of cycling through the fleet. The
/// campaign fails only when every lane has died with work remaining.
///
/// Resume: with a `journal_path`, finished cases are appended to the
/// journal as they complete (in completion order — crash-safe), cases
/// already journaled are restored without dispatch, and on success the
/// journal is rewritten atomically in canonical case order so its bytes
/// match an uninterrupted single-process run with
/// `deterministic_journal` enabled.
///
/// Telemetry: the run is traced as `dist/run` with `dist/probe`,
/// per-case `dist/case` and `dist/journal_rewrite` children. Pulling
/// the fleet's own traces and metrics is a separate call made after
/// the campaign returns: `collect_fleet_telemetry`
/// (dist/fleet_telemetry.hpp).

#ifndef CHRYSALIS_DIST_COORDINATOR_HPP
#define CHRYSALIS_DIST_COORDINATOR_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/campaign_spec.hpp"
#include "dist/worker_pool.hpp"
#include "serve/client.hpp"

namespace chrysalis::dist {

/// Coordinator knobs; validate() fatals on nonsense values.
struct DistCampaignOptions {
    /// Constructor raises the client's per-request deadline to 300 s:
    /// a `run_case` request runs a whole bi-level search, not a single
    /// evaluation, so the serve default (30 s) would misclassify
    /// healthy long cases as timeouts.
    DistCampaignOptions();

    std::vector<WorkerAddress> workers;
    /// Per-lane client knobs (timeouts, retry budget, circuit breaker).
    /// `run_case` is memoized server-side, so the client's internal
    /// retries are safe; coordinator-level reassignment sits on top.
    serve::ClientOptions client;
    /// Concurrent requests per worker. 1 (the default) matches a
    /// daemon started with --threads 1; raise it for multi-threaded
    /// workers.
    int streams_per_worker = 1;
    /// Consecutive transient failures after which a lane gives up and
    /// its worker is considered dead.
    int max_worker_failures = 3;
    /// When non-empty: resume journal, shared format with
    /// core::CampaignOptions::journal_path (deterministic records).
    std::string journal_path;
    /// Progress-heartbeat pacing, as in core::CampaignOptions.
    double progress_interval_s = 5.0;

    void validate() const;
};

/// Per-worker accounting across the run (aggregated over its lanes).
struct WorkerReport {
    WorkerAddress address;
    std::string worker_id;       ///< from the pre-run health probe
    bool ready_at_start = false; ///< probe outcome (informational)
    std::uint64_t completed = 0; ///< cases this worker finished
    std::uint64_t failures = 0;  ///< transient failures charged to it
    bool dead = false;           ///< every lane exhausted its budget
    std::string last_error;      ///< final failure classification
};

/// Sums of the per-request stage timings the workers splice into
/// traced replies (`timing_*` fields) — where remote wall time went,
/// split by stage, across every completed request. Telemetry only:
/// never part of the deterministic CSV/journal output.
struct StageTotals {
    double queue_wait_s = 0.0;
    double decode_s = 0.0;
    double eval_s = 0.0;
    double encode_s = 0.0;
    std::uint64_t samples = 0;  ///< replies that carried timings
};

/// Result of a distributed campaign.
struct DistCampaignResult {
    core::CampaignResult campaign;  ///< merged, in case order
    std::size_t cases = 0;
    std::uint64_t dispatched = 0;   ///< requests sent (incl. re-sends)
    std::uint64_t completed = 0;    ///< cases evaluated remotely
    std::size_t restored = 0;       ///< cases restored from the journal
    std::uint64_t reassigned = 0;   ///< cases returned to the queue
    std::size_t workers_ready = 0;  ///< pre-run probe successes
    std::vector<WorkerReport> workers;
    StageTotals stage_totals;       ///< remote stage-time breakdown
};

/// Runs \p spec across the fleet. fatal() when the spec names a model
/// file (workers resolve zoo names only), when a poison reply proves
/// the fleet cannot execute the spec, or when every worker has died
/// with work remaining.
DistCampaignResult
run_distributed_campaign(const core::CampaignSpec& spec,
                         const DistCampaignOptions& options);

}  // namespace chrysalis::dist

#endif  // CHRYSALIS_DIST_COORDINATOR_HPP
