/// \file
/// Command-line front end for CHRYSALIS: run the full usage model of
/// Fig. 3 from the shell, on zoo workloads or user model files.
///
/// Usage:
///   chrysalis_cli serve [serve options]   run the evaluation daemon
///   chrysalis_cli call [call options]     send one serve-v1 request
///   chrysalis_cli campaign [options]      run a campaign locally or —
///                                         with --workers host:port,...
///                                         — across a daemon fleet
///                                         (byte-identical output;
///                                         --fleet-trace-out /
///                                         --fleet-metrics-out merge
///                                         the fleet's telemetry)
///   chrysalis_cli [options]
///     --model <zoo-name|path.model>   workload (default: kws). A path is
///                                     parsed with dnn::load_model.
///     --space <existing|future>       design space (default: existing)
///     --objective <lat|sp|latsp>      objective pi (default: latsp)
///     --sp-limit <cm2>                panel budget for --objective lat
///     --lat-limit <s>                 deadline for --objective sp
///     --population <n> --generations <n>   GA budget
///     --seed <n>                      search seed
///     --bright <W/cm2> --dark <W/cm2> environment coefficients
///     --pareto                        run NSGA-II and print the front
///     --validate                      step-simulate the chosen design
///     --csv                           machine-readable summary line
///     --campaign <n>                  run an n-case campaign (objectives
///                                     cycle lat/sp/latsp) and print the
///                                     campaign CSV
///     --threads <n>                   campaign case fan-out (default 0 =
///                                     all cores; 1 = the whole run on
///                                     one thread)
///     --metrics-out <file>            write a metrics JSON report
///     --trace-out <file>              write a Chrome trace-event JSON
///     --fault-dropout <p>             harvester dropout probability
///     --fault-age <years>             capacitor mission age
///     --fault-ckpt <p>                checkpoint corruption rate
///
/// Options also accept the --key=value form.
///
/// Examples:
///   chrysalis_cli --model har --objective sp --lat-limit 30
///   chrysalis_cli --model my_net.model --space future --pareto
///   chrysalis_cli --campaign 6 --fault-dropout 0.3
///       --metrics-out metrics.json --trace-out trace.json

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/string_utils.hpp"
#include "core/campaign.hpp"
#include "core/campaign_spec.hpp"
#include "core/chrysalis.hpp"
#include "dist/coordinator.hpp"
#include "dist/fleet_telemetry.hpp"
#include "dnn/model_io.hpp"
#include "dnn/model_zoo.hpp"
#include "fault/fault_injector.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/daemon.hpp"

namespace {

using namespace chrysalis;

struct CliOptions {
    std::string model = "kws";
    std::string space = "existing";
    std::string objective = "latsp";
    double sp_limit = 20.0;
    double lat_limit = 10.0;
    int population = 24;
    int generations = 16;
    std::uint64_t seed = 1;
    double bright = 2.0e-3;
    double dark = 0.5e-3;
    bool pareto = false;
    bool validate = false;
    bool csv = false;
    int campaign = 0;  ///< 0 = single-solution mode
    int threads = 0;   ///< campaign case fan-out; 0 = all cores
    std::string metrics_out;
    std::string trace_out;
    double fault_dropout = 0.0;
    double fault_age = 0.0;
    double fault_ckpt = 0.0;
};

void
usage(const char* argv0)
{
    std::printf(
        "usage: %s [--model <zoo|file.model>] [--space existing|future]\n"
        "          [--objective lat|sp|latsp] [--sp-limit cm2]\n"
        "          [--lat-limit s] [--population n] [--generations n]\n"
        "          [--seed n] [--bright W/cm2] [--dark W/cm2]\n"
        "          [--pareto] [--validate] [--csv]\n"
        "          [--campaign n] [--threads n]\n"
        "          [--metrics-out file] [--trace-out file]\n"
        "          [--fault-dropout p] [--fault-age years]\n"
        "          [--fault-ckpt p]\n",
        argv0);
}

bool
parse_args(int argc, char** argv, CliOptions& options)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Split the --key=value form so every option accepts both
        // spellings.
        std::string inline_value;
        bool has_inline = false;
        if (arg.rfind("--", 0) == 0) {
            const auto eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg.resize(eq);
                has_inline = true;
            }
        }
        const auto next = [&]() -> std::string {
            if (has_inline)
                return inline_value;
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--model") {
            options.model = next();
        } else if (arg == "--space") {
            options.space = next();
        } else if (arg == "--objective") {
            options.objective = next();
        } else if (arg == "--sp-limit") {
            options.sp_limit = std::stod(next());
        } else if (arg == "--lat-limit") {
            options.lat_limit = std::stod(next());
        } else if (arg == "--population") {
            options.population = std::stoi(next());
        } else if (arg == "--generations") {
            options.generations = std::stoi(next());
        } else if (arg == "--seed") {
            options.seed = std::stoull(next());
        } else if (arg == "--bright") {
            options.bright = std::stod(next());
        } else if (arg == "--dark") {
            options.dark = std::stod(next());
        } else if (arg == "--pareto") {
            options.pareto = true;
        } else if (arg == "--validate") {
            options.validate = true;
        } else if (arg == "--csv") {
            options.csv = true;
        } else if (arg == "--campaign") {
            options.campaign = std::stoi(next());
        } else if (arg == "--threads") {
            options.threads = std::stoi(next());
        } else if (arg == "--metrics-out") {
            options.metrics_out = next();
        } else if (arg == "--trace-out") {
            options.trace_out = next();
        } else if (arg == "--fault-dropout") {
            options.fault_dropout = std::stod(next());
        } else if (arg == "--fault-age") {
            options.fault_age = std::stod(next());
        } else if (arg == "--fault-ckpt") {
            options.fault_ckpt = std::stod(next());
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return false;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return false;
        }
    }
    return true;
}

dnn::Model
resolve_model(const std::string& spec)
{
    if (spec.find('.') != std::string::npos ||
        spec.find('/') != std::string::npos) {
        return dnn::load_model(spec);
    }
    return dnn::make_model(spec);
}

search::Objective
resolve_objective(const CliOptions& options, const std::string& kind)
{
    const std::string key = to_lower(kind);
    if (key == "lat") {
        return {search::ObjectiveKind::kLatency, options.sp_limit, 0.0};
    }
    if (key == "sp") {
        return {search::ObjectiveKind::kSolarPanel, 0.0,
                options.lat_limit};
    }
    if (key == "latsp" || key == "lat*sp")
        return {search::ObjectiveKind::kLatSp, 0.0, 0.0};
    fatal("unknown objective '", kind, "'");
}

/// Fault injector from the --fault-* flags, or nullptr when none is set.
std::unique_ptr<fault::FaultInjector>
resolve_faults(const CliOptions& options)
{
    if (options.fault_dropout <= 0.0 && options.fault_age <= 0.0 &&
        options.fault_ckpt <= 0.0) {
        return nullptr;
    }
    fault::FaultSpec spec;
    spec.seed = options.seed;
    spec.dropout_probability = options.fault_dropout;
    spec.mission_age_years = options.fault_age;
    spec.ckpt_corruption_rate = options.fault_ckpt;
    return std::make_unique<fault::FaultInjector>(spec);
}

/// Runs an n-case campaign over the selected workload, the objectives
/// cycling lat/sp/latsp, and prints the campaign CSV. With --validate
/// the first feasible solution is also replayed on the step simulator.
int
run_campaign_mode(const CliOptions& options,
                  const core::ChrysalisInputs& base)
{
    static const char* const kKinds[] = {"latsp", "lat", "sp"};
    std::vector<core::CampaignCase> cases;
    cases.reserve(static_cast<std::size_t>(options.campaign));
    for (int i = 0; i < options.campaign; ++i) {
        const char* kind = kKinds[static_cast<std::size_t>(i) % 3];
        cases.push_back({base.model.name() + "-" + kind + "-" +
                             std::to_string(i),
                         base.model, base.space,
                         resolve_objective(options, kind)});
    }

    core::CampaignOptions campaign_options;
    campaign_options.threads = options.threads;
    const core::CampaignResult result =
        core::run_campaign(cases, base.options, campaign_options);
    result.write_csv(std::cout);

    if (options.validate) {
        for (std::size_t i = 0; i < result.entries.size(); ++i) {
            const auto& entry = result.entries[i];
            if (!entry.solution.feasible)
                continue;
            core::ChrysalisInputs case_inputs{cases[i].model,
                                              cases[i].space,
                                              cases[i].objective,
                                              base.options};
            const core::Chrysalis case_tool(std::move(case_inputs));
            const auto validation =
                case_tool.validate(entry.solution, options.bright);
            std::printf("# validated %s: sim %s vs analytic %s "
                        "(error %s)\n",
                        entry.label.c_str(),
                        format_si(validation.mean_sim_latency_s, "s")
                            .c_str(),
                        format_si(validation.analytic_latency_s, "s")
                            .c_str(),
                        format_percent(validation.relative_error)
                            .c_str());
            break;  // one replay covers the simulator counters
        }
    }

    for (const auto& entry : result.entries) {
        if (entry.solution.feasible)
            return 0;
    }
    return 1;
}

int
run_cli(const CliOptions& options)
{
    const std::unique_ptr<fault::FaultInjector> faults =
        resolve_faults(options);

    core::ChrysalisInputs inputs{
        resolve_model(options.model),
        to_lower(options.space) == "future"
            ? search::DesignSpace::future_aut()
            : search::DesignSpace::existing_aut(),
        resolve_objective(options, options.objective),
        search::ExplorerOptions{},
    };
    inputs.options.outer.population = options.population;
    inputs.options.outer.generations = options.generations;
    inputs.options.outer.seed = options.seed;
    inputs.options.k_eh_envs = {options.bright, options.dark};
    inputs.options.faults = faults.get();

    if (options.campaign > 0)
        return run_campaign_mode(options, inputs);

    const core::Chrysalis tool(std::move(inputs));

    if (options.pareto) {
        const search::BiLevelExplorer explorer(
            tool.inputs().model, tool.inputs().space,
            tool.inputs().objective, tool.inputs().options);
        const auto front = explorer.explore_pareto();
        std::printf("sp_cm2,latency_s,capacitance_f,n_pe,cache_bytes\n");
        for (const auto& design : front) {
            std::printf("%.3f,%.6f,%.3e,%lld,%lld\n",
                        design.candidate.solar_cm2,
                        design.mean_latency_s,
                        design.candidate.capacitance_f,
                        static_cast<long long>(design.candidate.n_pe),
                        static_cast<long long>(
                            design.candidate.cache_bytes));
        }
        return front.empty() ? 1 : 0;
    }

    const core::AuTSolution solution = tool.generate();
    if (!solution.feasible) {
        std::fprintf(stderr, "no feasible design found\n");
        return 1;
    }

    if (options.csv) {
        std::printf("model,objective,sp_cm2,capacitance_f,n_pe,"
                    "cache_bytes,latency_s,lat_sp,score,evaluations\n");
        std::printf("%s,%s,%.3f,%.3e,%lld,%lld,%.6f,%.4f,%.6f,%d\n",
                    tool.inputs().model.name().c_str(),
                    to_string(tool.inputs().objective.kind).c_str(),
                    solution.hardware.solar_cm2,
                    solution.hardware.capacitance_f,
                    static_cast<long long>(solution.hardware.n_pe),
                    static_cast<long long>(solution.hardware.cache_bytes),
                    solution.mean_latency_s, solution.lat_sp,
                    solution.score, solution.evaluations);
    } else {
        std::printf("%s\n",
                    solution.describe(tool.inputs().model).c_str());
    }

    if (options.validate) {
        const auto validation =
            tool.validate(solution, options.bright);
        if (!validation.sim.completed) {
            std::fprintf(stderr, "validation failed: %s\n",
                         validation.sim.failure.message().c_str());
            return 1;
        }
        std::printf("validated: sim %s vs analytic %s (error %s)\n",
                    format_si(validation.mean_sim_latency_s, "s").c_str(),
                    format_si(validation.analytic_latency_s, "s").c_str(),
                    format_percent(validation.relative_error).c_str());
    }
    return 0;
}

// ---- `campaign` subcommand -----------------------------------------------

void
campaign_usage(const char* argv0)
{
    std::printf(
        "usage: %s campaign [--model zoo-name] [--space existing|future]\n"
        "          [--cases n] [--sp-limit cm2] [--lat-limit s]\n"
        "          [--population n] [--generations n] [--seed n]\n"
        "          [--bright W/cm2] [--dark W/cm2]\n"
        "          [--fault-dropout p] [--fault-age years]\n"
        "          [--fault-ckpt p] [--max-attempts n]\n"
        "          [--workers host:port,host:port,...]\n"
        "          [--streams n] [--request-timeout s] [--journal file]\n"
        "          [--threads n] [--deterministic]\n"
        "          [--metrics-out file] [--trace-out file]\n"
        "          [--fleet-trace-out file] [--fleet-metrics-out file]\n"
        "Runs a campaign (objectives cycling latsp/lat/sp) and prints\n"
        "the campaign CSV. Without --workers the cases run in this\n"
        "process (--threads fans them out: default 0 = all cores,\n"
        "1 = the whole run on one thread); with --workers they are\n"
        "dispatched to chrysalis_served daemons, and the CSV (and\n"
        "--journal) is byte-identical to a local --deterministic run —\n"
        "at any worker count, including after reassignments.\n"
        "--deterministic drops the wall_time_s CSV column and zeroes\n"
        "journal wall times (always on with --workers). Distributed\n"
        "campaigns accept model-zoo names only.\n"
        "--fleet-trace-out/--fleet-metrics-out (with --workers only)\n"
        "pull every worker's telemetry after the campaign and write\n"
        "one clock-aligned merged Chrome trace / fleet metrics rollup.\n",
        argv0);
}

int
run_campaign_cli(int argc, char** argv, int first)
{
    core::CampaignSpec spec;
    std::string workers;
    std::string journal;
    std::string metrics_out;
    std::string trace_out;
    std::string fleet_trace_out;
    std::string fleet_metrics_out;
    int streams = 1;
    double request_timeout_s = -1.0;  ///< <0 keeps the dist default
    int threads = 0;                  ///< case fan-out; 0 = all cores
    bool deterministic = false;
    for (int i = first; i < argc; ++i) {
        std::string arg = argv[i];
        std::string inline_value;
        bool has_inline = false;
        if (arg.rfind("--", 0) == 0) {
            const auto eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg.resize(eq);
                has_inline = true;
            }
        }
        const auto next = [&]() -> std::string {
            if (has_inline)
                return inline_value;
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            campaign_usage(argv[0]);
            return 0;
        } else if (arg == "--model") {
            spec.model = next();
        } else if (arg == "--space") {
            spec.space = next();
        } else if (arg == "--cases") {
            spec.cases = std::stoi(next());
        } else if (arg == "--sp-limit") {
            spec.sp_limit_cm2 = std::stod(next());
        } else if (arg == "--lat-limit") {
            spec.lat_limit_s = std::stod(next());
        } else if (arg == "--population") {
            spec.population = std::stoi(next());
        } else if (arg == "--generations") {
            spec.generations = std::stoi(next());
        } else if (arg == "--seed") {
            spec.seed = std::stoull(next());
        } else if (arg == "--bright") {
            spec.bright_w_cm2 = std::stod(next());
        } else if (arg == "--dark") {
            spec.dark_w_cm2 = std::stod(next());
        } else if (arg == "--fault-dropout") {
            spec.fault_dropout = std::stod(next());
        } else if (arg == "--fault-age") {
            spec.fault_age_years = std::stod(next());
        } else if (arg == "--fault-ckpt") {
            spec.fault_ckpt = std::stod(next());
        } else if (arg == "--max-attempts") {
            spec.max_attempts = std::stoi(next());
        } else if (arg == "--workers") {
            workers = next();
        } else if (arg == "--streams") {
            streams = std::stoi(next());
        } else if (arg == "--request-timeout") {
            request_timeout_s = std::stod(next());
        } else if (arg == "--journal") {
            journal = next();
        } else if (arg == "--threads") {
            threads = std::stoi(next());
        } else if (arg == "--deterministic") {
            deterministic = true;
        } else if (arg == "--metrics-out") {
            metrics_out = next();
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg == "--fleet-trace-out") {
            fleet_trace_out = next();
        } else if (arg == "--fleet-metrics-out") {
            fleet_metrics_out = next();
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            campaign_usage(argv[0]);
            return 2;
        }
    }
    spec.validate();
    if (workers.empty() &&
        (!fleet_trace_out.empty() || !fleet_metrics_out.empty()))
        fatal("--fleet-trace-out/--fleet-metrics-out require --workers "
              "(there is no fleet to pull from in a local run)");

    obs::MetricsRegistry registry;
    obs::TraceSession trace_session;
    if (!metrics_out.empty())
        obs::attach_metrics(&registry);
    // The coordinator's own spans (dist/case, the synthetic remote
    // children) join the merged fleet trace, so fleet tracing implies
    // a local session even without --trace-out.
    if (!trace_out.empty() || !fleet_trace_out.empty())
        obs::attach_trace(&trace_session);

    core::CampaignResult result;
    if (workers.empty()) {
        const dnn::Model model = dnn::make_model(spec.model);
        const std::vector<core::CampaignCase> cases =
            core::build_campaign_cases(spec, model);
        std::unique_ptr<fault::FaultInjector> faults;
        const search::ExplorerOptions base =
            core::build_explorer_options(spec, faults);
        core::CampaignOptions campaign_options;
        campaign_options.threads = threads;
        campaign_options.max_attempts = spec.max_attempts;
        campaign_options.journal_path = journal;
        campaign_options.deterministic_journal = deterministic;
        result = core::run_campaign(cases, base, campaign_options);
        result.write_csv(std::cout, deterministic
                                        ? core::CsvColumns::kDeterministic
                                        : core::CsvColumns::kAll);
    } else {
        dist::DistCampaignOptions dist_options;
        dist_options.workers = dist::parse_worker_list(workers);
        dist_options.streams_per_worker = streams;
        dist_options.journal_path = journal;
        if (request_timeout_s >= 0.0)
            dist_options.client.request_timeout_s = request_timeout_s;
        const dist::DistCampaignResult dist_result =
            dist::run_distributed_campaign(spec, dist_options);
        result = dist_result.campaign;
        // Distributed records carry no wall times, so the CSV is
        // always the deterministic column set.
        result.write_csv(std::cout, core::CsvColumns::kDeterministic);
        std::fprintf(stderr,
                     "# dist: %zu cases, %llu dispatched, "
                     "%llu reassigned, %zu restored, %zu/%zu workers "
                     "ready\n",
                     dist_result.cases,
                     static_cast<unsigned long long>(
                         dist_result.dispatched),
                     static_cast<unsigned long long>(
                         dist_result.reassigned),
                     dist_result.restored, dist_result.workers_ready,
                     dist_result.workers.size());
        if (!fleet_trace_out.empty() || !fleet_metrics_out.empty()) {
            // Telemetry only, strictly after the CSV and journal bytes
            // are final: the coordinator's own session joins first,
            // then every worker that still answers.
            obs::FleetCollector collector;
            if (obs::TraceSession* session = obs::trace()) {
                collector.add_worker(obs::local_telemetry(
                    "coordinator", *session, obs::metrics()));
            }
            const std::size_t pulled = dist::collect_fleet_telemetry(
                dist_options.workers, dist::FleetPullOptions{},
                collector);
            std::uint64_t clamped = 0;
            const std::size_t spans = collector.aligned(&clamped).size();
            if (!fleet_trace_out.empty())
                collector.write_chrome_trace_file(fleet_trace_out);
            if (!fleet_metrics_out.empty())
                collector.write_metrics_rollup_file(fleet_metrics_out);
            std::fprintf(stderr,
                         "# fleet: %zu/%zu workers pulled, %zu spans "
                         "merged (%llu clamped)\n",
                         pulled, dist_options.workers.size(), spans,
                         static_cast<unsigned long long>(clamped));
        }
    }

    obs::attach_metrics(nullptr);
    obs::attach_trace(nullptr);
    if (!metrics_out.empty())
        registry.write_json_file(metrics_out);
    if (!trace_out.empty())
        trace_session.write_chrome_trace_file(trace_out);

    for (const auto& entry : result.entries) {
        if (entry.solution.feasible)
            return 0;
    }
    return 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    // Subcommands: `serve` runs the evaluation daemon, `call` sends one
    // chrysalis-serve-v1 request. Everything else is the classic
    // flag-driven search front end.
    if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
        return serve::run_serve_cli(argc, argv, 2);
    if (argc > 1 && std::strcmp(argv[1], "call") == 0)
        return serve::run_call_cli(argc, argv, 2);
    if (argc > 1 && std::strcmp(argv[1], "campaign") == 0)
        return run_campaign_cli(argc, argv, 2);

    CliOptions options;
    if (!parse_args(argc, argv, options))
        return 2;

    // Observability sinks live in main so they outlive all the work;
    // attach before any search runs, detach (quiescent) before writing.
    obs::MetricsRegistry registry;
    obs::TraceSession trace_session;
    if (!options.metrics_out.empty())
        obs::attach_metrics(&registry);
    if (!options.trace_out.empty())
        obs::attach_trace(&trace_session);

    const int exit_code = run_cli(options);

    obs::attach_metrics(nullptr);
    obs::attach_trace(nullptr);
    if (!options.metrics_out.empty())
        registry.write_json_file(options.metrics_out);
    if (!options.trace_out.empty())
        trace_session.write_chrome_trace_file(options.trace_out);
    return exit_code;
}
