/// \file
/// campaign_resnet18 and campaign_kws: closed-loop rounds of
/// core::run_campaign, one fresh search seed per round.

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "core/campaign.hpp"
#include "core/campaign_spec.hpp"
#include "dnn/model_zoo.hpp"
#include "fault/fault_injector.hpp"
#include "generator.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace {

/// One round's inputs, built from its spec through the core API.
struct Round {
    std::vector<core::CampaignCase> cases;
    std::unique_ptr<fault::FaultInjector> faults;
    search::ExplorerOptions options;
    int max_attempts = 2;
};

Round
make_round(const core::CampaignSpec& spec, const dnn::Model& model)
{
    Round round;
    round.cases = core::build_campaign_cases(spec, model);
    round.options = core::build_explorer_options(spec, round.faults);
    round.max_attempts = spec.max_attempts;
    return round;
}

core::CampaignOptions
campaign_options(const CampaignPlan& plan, int max_attempts)
{
    core::CampaignOptions options;
    options.threads = plan.threads;
    options.max_attempts = max_attempts;
    options.progress_interval_s = 1e9;  // no heartbeat lines
    return options;
}

}  // namespace

std::vector<std::string>
checked_csv_rows(const core::CampaignResult& result)
{
    std::ostringstream csv;
    result.write_csv(csv, core::CsvColumns::kDeterministic);
    std::istringstream lines(csv.str());
    std::vector<std::string> rows;
    std::vector<bool> keep;
    for (std::string line; std::getline(lines, line);) {
        std::vector<std::string> cells;
        std::istringstream cell_stream(line);
        for (std::string cell; std::getline(cell_stream, cell, ',');)
            cells.push_back(cell);
        if (keep.empty()) {
            for (const auto& name : cells)
                keep.push_back(name != "cache_hits" && name != "cache_misses");
        }
        std::string row;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (i < keep.size() && !keep[i])
                continue;
            row += row.empty() ? "" : ",";
            row += cells[i];
        }
        rows.push_back(row);
    }
    return rows;
}

std::string
compare_rows(const std::string& what, const std::vector<std::string>& expected,
             const std::vector<std::string>& actual)
{
    for (std::size_t i = 0; i < std::max(expected.size(), actual.size());
         ++i) {
        const std::string want = i < expected.size() ? expected[i] : "<none>";
        const std::string got = i < actual.size() ? actual[i] : "<none>";
        if (want != got)
            return what + ": expected '" + want + "', got '" + got + "'";
    }
    return "";
}

Report
run_campaign_workload(const RunOptions& options, Tracer& tracer)
{
    Report report;
    std::vector<double> setups_s;
    CampaignPlan plan;
    std::optional<dnn::Model> model;
    for (int repetition = 0; repetition < kSetupRepetitions; ++repetition) {
        const double start = now_s();
        plan = make_campaign_plan(options.workload, options.seed);
        model.emplace(dnn::make_model(plan.spec.model));
        // Warm-up round on a seed no measured round uses: first-touch
        // allocation and lazy set-up stay out of the measured window.
        core::CampaignSpec warm = plan.spec;
        warm.seed = plan.round_seeds.back() + 1;
        const Round round = make_round(warm, *model);
        core::run_campaign(round.cases, round.options,
                           campaign_options(plan, round.max_attempts));
        setups_s.push_back(now_s() - start);
    }

    const core::CampaignOptions run_options =
        campaign_options(plan, plan.spec.max_attempts);
    std::vector<double> walls_s;
    std::vector<double> untraced_walls_s;
    std::vector<double> traced_walls_s;
    std::vector<double> case_walls_ms;
    std::vector<double> round_max_case_ms;
    std::vector<double> overhead_shares;
    std::vector<double> case_sums_per_thread_s;
    double cpu_s = 0.0;
    std::optional<core::CampaignResult> first;

    const double window_start = now_s();
    const double deadline = window_start + options.seconds;
    EndToEndRecorder recorder(window_start, options.seconds, true,
                              plan.tail_q);
    for (std::size_t index = 0; now_s() < deadline; ++index) {
        const Round round = make_round(round_spec(plan, index), *model);
        // The traced run puts every other round under a span, so the
        // trace overhead is measured against rounds of the same run.
        const bool traced = options.trace && index % 2 == 1;
        tracer.enabled = traced;
        const double cpu_start = process_cpu_s();
        const double start = now_s();
        core::CampaignResult result;
        {
            Span span(tracer, "core.campaign",
                      static_cast<std::int64_t>(index));
            result =
                core::run_campaign(round.cases, round.options, run_options);
        }
        const double end = now_s();
        tracer.enabled = false;
        cpu_s += process_cpu_s() - cpu_start;
        walls_s.push_back(end - start);
        (traced ? traced_walls_s : untraced_walls_s).push_back(end - start);
        if (!traced) {
            recorder.record(end, end - start,
                            static_cast<double>(result.entries.size()));
        }
        double case_sum_s = 0.0;
        double case_max_s = 0.0;
        for (const auto& entry : result.entries) {
            ++report.attempted;
            if (entry.solution.failure.code == fault::FailureCode::kCrashed)
                ++report.failed;
            case_walls_ms.push_back(entry.wall_time_s * 1e3);
            case_sum_s += entry.wall_time_s;
            case_max_s = std::max(case_max_s, entry.wall_time_s);
        }
        round_max_case_ms.push_back(case_max_s * 1e3);
        case_sums_per_thread_s.push_back(
            case_sum_s / static_cast<double>(std::max(plan.threads, 1)));
        overhead_shares.push_back(
            residual_share(end - start, case_sums_per_thread_s.back()));
        if (!first)
            first = std::move(result);
    }

    // Output check, outside the measured window: sampled cases of the
    // first round against the serial per-case reference path.
    const Round round0 = make_round(round_spec(plan, 0), *model);
    for (std::size_t index : plan.check_cases) {
        core::CampaignResult expected;
        expected.entries.push_back(core::run_campaign_case(
            round0.cases[index], round0.options, index, round0.max_attempts));
        core::CampaignResult actual;
        actual.entries.push_back(first->entries[index]);
        report.check_error = compare_rows(
            "case " + std::to_string(index) +
                " differs from serial run_campaign_case",
            checked_csv_rows(expected), checked_csv_rows(actual));
        if (!report.check_error.empty())
            return report;
    }

    const double busy_s = std::accumulate(walls_s.begin(), walls_s.end(), 0.0);
    report.property("cases_per_campaign", std::to_string(plan.spec.cases));
    report.property("ga_budget",
                    std::to_string(plan.spec.population) + " x " +
                        std::to_string(plan.spec.generations));
    report.property("campaign_threads", std::to_string(plan.threads));
    report.property("rounds", std::to_string(walls_s.size()));
    report.property("checked_cases", std::to_string(plan.check_cases.size()));
    report.add("runtime.cpu_per_wall", ratio(cpu_s, busy_s), "ratio");
    if (!options.trace) {
        recorder.report(report, setups_s);
        return report;
    }

    report.add("obs.trace_overhead_ratio",
               ratio(mean(traced_walls_s), mean(untraced_walls_s)) - 1.0,
               "ratio");
    report.add("core.case_wall_p50_ms", median(case_walls_ms), "ms");
    report.add("core.case_wall_max_ms", median(round_max_case_ms), "ms");
    report.add("core.campaign_overhead_share", median(overhead_shares),
               "ratio");
    report.reconcile("campaign = sum(case) / threads + overhead",
                     median(walls_s), median(case_sums_per_thread_s),
                     "overhead");

    LayerProbe probe(tracer);
    tracer.enabled = true;
    // Inner evaluation as the campaign runs it: inline under a
    // multi-threaded campaign, on its own pool under a serial one.
    search::ExplorerOptions probe_options = round0.options;
    probe_options.outer.threads = plan.threads > 1 ? 1 : 0;
    for (std::size_t index : plan.check_cases)
        probe.probe_case(round0.cases[index], probe_options, index);
    for (int repetition = 0; repetition < 8; ++repetition)
        probe.probe_make_model(plan.spec.model);
    probe.probe_pool();
    tracer.enabled = false;
    probe.report(report);
    return report;
}

}  // namespace perfbench
