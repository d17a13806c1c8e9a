/// \file
/// dist_kws: dist::run_distributed_campaign over in-process serve
/// workers, then dist::collect_fleet_telemetry as its own timed call.
/// Every round starts a fresh fleet so each pull moves one campaign's
/// telemetry, however many rounds came before.

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "core/campaign.hpp"
#include "core/campaign_spec.hpp"
#include "dist/coordinator.hpp"
#include "dist/fleet_telemetry.hpp"
#include "dnn/model_zoo.hpp"
#include "fault/fault_injector.hpp"
#include "generator.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace {

/// In-process workers, each with the telemetry a daemon exposes.
class Fleet
{
  public:
    explicit Fleet(int workers)
    {
        for (int i = 0; i < workers; ++i) {
            Worker& worker = workers_.emplace_back();
            worker.metrics = std::make_unique<obs::MetricsRegistry>();
            worker.trace = std::make_unique<obs::TraceSession>();
            serve::ServerOptions options;
            options.threads = 1;
            options.worker_id = "worker-" + std::to_string(i);
            options.metrics_source = worker.metrics.get();
            options.trace_source = worker.trace.get();
            worker.server = std::make_unique<serve::Server>(options);
            worker.server->start();
            addresses_.push_back({"127.0.0.1", worker.server->port()});
        }
    }
    ~Fleet()
    {
        for (auto& worker : workers_)
            worker.server->stop();
    }
    Fleet(const Fleet&) = delete;
    Fleet& operator=(const Fleet&) = delete;

    const std::vector<dist::WorkerAddress>& addresses() const
    {
        return addresses_;
    }

  private:
    struct Worker {
        std::unique_ptr<obs::MetricsRegistry> metrics;
        std::unique_ptr<obs::TraceSession> trace;
        std::unique_ptr<serve::Server> server;  ///< stopped before the rest
    };
    std::vector<Worker> workers_;
    std::vector<dist::WorkerAddress> addresses_;
};

/// One round's measurements.
struct RoundLog {
    double campaign_s = 0.0;
    double campaign_end_s = 0.0;
    double pull_s = 0.0;
    double merge_s = 0.0;
    double cpu_s = 0.0;
    std::size_t collected = 0;
    std::uint64_t spans = 0;
    dist::DistCampaignResult result;
};

RoundLog
run_round(const CampaignPlan& plan, const core::CampaignSpec& spec,
          std::uint64_t index, Tracer& tracer)
{
    Fleet fleet(plan.workers);
    dist::DistCampaignOptions options;
    options.workers = fleet.addresses();
    options.progress_interval_s = 1e9;  // no heartbeat lines
    RoundLog log;
    Span round_span(tracer, "dist.round", index);
    const double cpu_start = process_cpu_s();
    double start = now_s();
    {
        Span span(tracer, "dist.campaign", index);
        log.result = dist::run_distributed_campaign(spec, options);
    }
    log.campaign_end_s = now_s();
    log.campaign_s = log.campaign_end_s - start;
    log.cpu_s = process_cpu_s() - cpu_start;

    obs::FleetCollector collector;
    start = now_s();
    {
        Span span(tracer, "dist.fleet_pull", index);
        log.collected = dist::collect_fleet_telemetry(
            fleet.addresses(), dist::FleetPullOptions{}, collector);
    }
    log.pull_s = now_s() - start;
    start = now_s();
    {
        Span span(tracer, "obs.fleet_merge", index);
        std::ostringstream merged;
        collector.write_chrome_trace(merged);
    }
    log.merge_s = now_s() - start;
    log.spans = collector.event_count();
    return log;
}

}  // namespace

Report
run_dist_workload(const RunOptions& options, Tracer& tracer)
{
    Report report;
    std::vector<double> setups_s;
    CampaignPlan plan;
    for (int repetition = 0; repetition < kSetupRepetitions; ++repetition) {
        const double start = now_s();
        plan = make_campaign_plan(options.workload, options.seed);
        // Warm-up round on a seed no measured round uses.
        core::CampaignSpec warm = plan.spec;
        warm.seed = plan.round_seeds.back() + 1;
        run_round(plan, warm, 0, tracer);
        setups_s.push_back(now_s() - start);
    }

    std::vector<double> campaign_s;
    std::vector<double> traced_campaign_s;
    std::vector<double> untraced_campaign_s;
    std::vector<double> pull_s;
    std::vector<double> merge_ms;
    std::vector<double> pull_ms_per_worker;
    std::vector<double> pull_us_per_span;
    std::vector<double> coordination_shares;
    std::vector<double> totals_s;
    double cpu_s = 0.0;
    double cases = 0.0;
    double dispatched = 0.0;
    dist::StageTotals stages;
    std::optional<core::CampaignResult> first;

    const double window_start = now_s();
    const double deadline = window_start + options.seconds;
    EndToEndRecorder recorder(window_start, options.seconds, true,
                              plan.tail_q);
    for (std::size_t index = 0; now_s() < deadline; ++index) {
        const bool traced = options.trace && index % 2 == 1;
        tracer.enabled = traced;
        RoundLog log = run_round(plan, round_spec(plan, index), index, tracer);
        tracer.enabled = false;
        const dist::DistCampaignResult& result = log.result;
        report.attempted += result.dispatched;
        report.failed += result.reassigned;
        for (const auto& entry : result.campaign.entries) {
            if (entry.solution.failure.code == fault::FailureCode::kCrashed)
                ++report.failed;
        }
        cases += static_cast<double>(result.cases);
        dispatched += static_cast<double>(result.dispatched);
        campaign_s.push_back(log.campaign_s);
        recorder.record(log.campaign_end_s, log.campaign_s,
                        static_cast<double>(result.cases));
        (traced ? traced_campaign_s : untraced_campaign_s)
            .push_back(log.campaign_s);
        pull_s.push_back(log.pull_s);
        merge_ms.push_back(log.merge_s * 1e3);
        pull_ms_per_worker.push_back(
            log.pull_s * 1e3 /
            static_cast<double>(std::max<std::size_t>(log.collected, 1)));
        pull_us_per_span.push_back(
            log.pull_s * 1e6 /
            static_cast<double>(std::max<std::uint64_t>(log.spans, 1)));
        totals_s.push_back(log.campaign_s + log.pull_s + log.merge_s);
        cpu_s += log.cpu_s;
        const dist::StageTotals& t = result.stage_totals;
        stages.queue_wait_s += t.queue_wait_s;
        stages.decode_s += t.decode_s;
        stages.eval_s += t.eval_s;
        stages.encode_s += t.encode_s;
        stages.samples += t.samples;
        const double lanes = static_cast<double>(plan.workers);
        coordination_shares.push_back(residual_share(
            log.campaign_s * lanes,
            t.queue_wait_s + t.decode_s + t.eval_s + t.encode_s));
        if (!first)
            first = std::move(log.result.campaign);
    }

    // Output check, outside the measured window: the first round against
    // a local run_campaign of the same spec.
    const core::CampaignSpec spec0 = round_spec(plan, 0);
    const dnn::Model model0 = dnn::make_model(spec0.model);
    const std::vector<core::CampaignCase> cases0 =
        core::build_campaign_cases(spec0, model0);
    std::unique_ptr<fault::FaultInjector> faults;
    const search::ExplorerOptions options0 =
        core::build_explorer_options(spec0, faults);
    core::CampaignOptions local;
    local.threads = 1;
    local.progress_interval_s = 1e9;
    report.check_error = compare_rows(
        "distributed campaign differs from local run_campaign",
        checked_csv_rows(core::run_campaign(cases0, options0, local)),
        checked_csv_rows(*first));
    if (!report.check_error.empty())
        return report;

    const double busy_s =
        std::accumulate(campaign_s.begin(), campaign_s.end(), 0.0);
    report.property("cases_per_campaign", std::to_string(plan.spec.cases));
    report.property("ga_budget",
                    std::to_string(plan.spec.population) + " x " +
                        std::to_string(plan.spec.generations));
    report.property("workers", std::to_string(plan.workers) +
                                   " in-process serve workers, 1 lane each");
    report.property("rounds", std::to_string(campaign_s.size()));
    report.add("fleet_pull_s", median(pull_s), "s");
    report.add("runtime.cpu_per_wall", ratio(cpu_s, busy_s), "ratio");
    if (!options.trace) {
        recorder.report(report, setups_s);
        return report;
    }

    const double samples = static_cast<double>(std::max<std::uint64_t>(
        stages.samples, 1));
    report.add("dist.remote_eval_s", stages.eval_s / samples, "s");
    report.add("dist.remote_queue_wait_s", stages.queue_wait_s / samples, "s");
    report.add("dist.coordination_share", median(coordination_shares),
               "ratio");
    report.add("dist.dispatched_per_case", ratio(dispatched, cases), "count");
    report.add("dist.pull_ms_per_worker", median(pull_ms_per_worker), "ms");
    report.add("obs.fleet_merge_ms", median(merge_ms), "ms");
    report.add("dist.pull_us_per_span", median(pull_us_per_span), "us");
    report.add("obs.trace_overhead_ratio",
               ratio(median(traced_campaign_s), median(untraced_campaign_s)) -
                   1.0,
               "ratio");
    report.reconcile("dist total = campaign + fleet pull + merge",
                     median(totals_s), median(campaign_s) + median(pull_s),
                     "merge");

    // Layer probes on the first round's sampled cases, with inner
    // evaluation on its own pool as a single-threaded worker runs it.
    search::ExplorerOptions probe_options = options0;
    probe_options.outer.threads = 0;
    LayerProbe probe(tracer);
    tracer.enabled = true;
    for (std::size_t index : plan.check_cases)
        probe.probe_case(cases0[index], probe_options, index);
    for (int repetition = 0; repetition < 8; ++repetition)
        probe.probe_make_model(spec0.model);
    probe.probe_pool();
    tracer.enabled = false;
    probe.report(report);
    return report;
}

}  // namespace perfbench
