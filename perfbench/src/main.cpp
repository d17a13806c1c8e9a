/// \file
/// perfbench: the repository benchmark.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--out-dir <dir>]
///   perfbench --self-test
///
/// Workloads: campaign_resnet18, campaign_kws, serve_mixed, dist_kws.
/// With --trace 0 the run reports the end-to-end metrics; with
/// --trace 1 it reports the per-layer metrics, the ladder
/// reconciliation and writes the spans as a Chrome trace. Every run
/// first runs the self-tests and checks the program's outputs against
/// its reference paths; on a mismatch it exits 1 without a result.
/// The last line of standard output is one JSON object with the keys
/// correct, attempted, failed and metrics.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/logging.hpp"
#include "generator.hpp"
#include "runtime/thread_pool.hpp"
#include "stats.hpp"
#include "tracer.hpp"

namespace perfbench {

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
process_cpu_s()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peak_rss_mib()
{
    // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
    // exec, so under a launcher it reads the launcher's peak whenever
    // that is the larger one. VmHWM belongs to this program's image.
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    fatal("peak_rss_mib: no VmHWM line in /proc/self/status");
}

int
pin_to_one_cpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        fatal("pin_to_one_cpu: cannot read the CPU affinity");
    int cpu = CPU_SETSIZE - 1;
    while (cpu >= 0 && !CPU_ISSET(cpu, &allowed))
        --cpu;
    if (cpu < 0)
        fatal("pin_to_one_cpu: no CPU in the affinity mask");
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0)
        fatal("pin_to_one_cpu: cannot pin to CPU ", cpu);
    return cpu;
}

void
Report::reconcile(const std::string& rung, double parent, double children,
                  const std::string& residual_name)
{
    const double share = residual_share(parent, children);
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s: parent %.6g, children %.6g, %s residual %.1f%%",
                  rung.c_str(), parent, children, residual_name.c_str(),
                  share * 100.0);
    ladder.emplace_back(line);
    if (share > 0.10 || share < -0.10)
        flags.push_back(std::string("residual over 10%: ") + line);
}

EndToEndRecorder::EndToEndRecorder(double start_s, double length_s,
                                   bool serial, double tail_q)
    : start_s_(start_s), slice_s_(length_s / kSlices), serial_(serial),
      tail_q_(tail_q), slices_(kSlices)
{
    for (Slice& slice : slices_)
        slice.reservoir.assign(kReservoirSize, 0.0);  // touched up front
}

void
EndToEndRecorder::record(double end_s, double latency_s, double units)
{
    const auto index = static_cast<std::size_t>(std::clamp(
        (end_s - start_s_) / slice_s_, 0.0, kSlices - 1.0));
    const std::lock_guard<std::mutex> lock(mutex_);
    Slice& slice = slices_[index];
    slice.units += units;
    slice.busy_s += latency_s;
    // Algorithm R: the k-th sample replaces a random slot with
    // probability size / k.
    const std::uint64_t k = ++slice.seen;
    std::uint64_t slot = k - 1;
    if (k > kReservoirSize) {
        rng_state_ = rng_state_ * 6364136223846793005ULL +
                     1442695040888963407ULL;
        slot = (rng_state_ >> 11) % k;
    }
    if (slot < kReservoirSize)
        slice.reservoir[slot] = latency_s;
}

void
EndToEndRecorder::report(Report& report,
                         const std::vector<double>& setups_s) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> throughputs;
    std::vector<double> p50s;
    std::vector<double> tails;
    std::uint64_t total = 0;
    std::size_t fewest = 0;
    std::string per_slice;
    for (const Slice& slice : slices_) {
        total += slice.seen;
        if (slice.seen == 0)
            continue;
        const std::vector<double> latencies(
            slice.reservoir.begin(),
            slice.reservoir.begin() +
                static_cast<std::ptrdiff_t>(
                    std::min<std::uint64_t>(slice.seen, kReservoirSize)));
        fewest = throughputs.empty() ? latencies.size()
                                     : std::min(fewest, latencies.size());
        throughputs.push_back(
            ratio(slice.units, serial_ ? slice.busy_s : slice_s_));
        p50s.push_back(median(latencies));
        tails.push_back(quantile(latencies, tail_q_));
        char item[128];
        std::snprintf(item, sizeof(item), "%s%.6g/s p50 %.4g ms p%g %.4g ms",
                      per_slice.empty() ? "" : ", ", throughputs.back(),
                      p50s.back() * 1e3, tail_q_ * 100.0,
                      tails.back() * 1e3);
        per_slice += item;
    }
    report.add("setup_s", median(setups_s), "s");
    report.add("throughput_per_s", median(throughputs), "1/s");
    report.add("latency_p50_ms", median(p50s) * 1e3, "ms");
    report.add("latency_tail_ms", median(tails) * 1e3, "ms");
    report.add("peak_rss_mib", peak_rss_mib(), "MiB");
    report.add("failed_ratio",
               ratio(static_cast<double>(report.failed),
                     static_cast<double>(report.attempted)),
               "ratio");
    char tail[160];
    std::snprintf(tail, sizeof(tail),
                  "median over %zu slices of each slice's p%g; the "
                  "smallest slice has %zu samples, %.0f beyond it",
                  tails.size(), tail_q_ * 100.0, fewest,
                  static_cast<double>(fewest) * (1.0 - tail_q_));
    report.property("latency_tail", tail);
    report.property("latency_samples", std::to_string(total));
    report.property("slices", per_slice);
    report.property("setup_repetitions", std::to_string(setups_s.size()));
}

}  // namespace perfbench

namespace {

using namespace perfbench;

bool
self_test()
{
    return stats_self_test() && generator_self_test();
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <campaign_resnet18|"
                 "campaign_kws|serve_mixed|dist_kws> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n"
                 "       perfbench --self-test\n");
}

std::string
json_number(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::string
result_json(const Report& report)
{
    std::string out = "{\"correct\": true, \"attempted\": " +
                      std::to_string(report.attempted) +
                      ", \"failed\": " + std::to_string(report.failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric& metric = report.metrics[i];
        out += (i == 0 ? "\"" : ", \"") + metric.name +
               "\": {\"value\": " + json_number(metric.value) +
               ", \"unit\": \"" + metric.unit + "\"}";
    }
    return out + "}}";
}

}  // namespace

int
main(int argc, char** argv)
{
    RunOptions options;
    bool self_test_only = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            options.seconds = std::stod(value());
        } else if (arg == "--trace") {
            options.trace = value() == "1";
            have_trace = true;
        } else if (arg == "--out-dir") {
            options.out_dir = value();
        } else if (arg == "--self-test") {
            self_test_only = true;
        } else {
            usage();
            return 2;
        }
    }

    if (!self_test()) {
        std::fprintf(stderr, "perfbench: self-tests failed\n");
        return 1;
    }
    if (self_test_only) {
        std::printf("perfbench self-tests passed\n");
        return 0;
    }
    if (options.workload.empty() || !have_trace || !(options.seconds > 0.0)) {
        usage();
        return 2;
    }

    const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
    const bool asserts = true;
#else
    const bool asserts = false;
#endif
    if (build_type != "Release" || asserts) {
        std::fprintf(stderr,
                     "perfbench: refusing to report from a '%s' build "
                     "(assertions %s); configure with "
                     "-DCMAKE_BUILD_TYPE=Release\n",
                     build_type.c_str(), asserts ? "on" : "off");
        return 1;
    }

    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
#if defined(__clang__)
    const char* compiler = "clang";
#elif defined(__GNUC__)
    const char* compiler = "gcc";
#else
    const char* compiler = "unknown";
#endif
    std::printf("# nproc=%u hardware_threads=%d build=%s compiler=\"%s "
                "%s\"\n",
                std::thread::hardware_concurrency(),
                chrysalis::runtime::hardware_threads(), build_type.c_str(),
                compiler, __VERSION__);
    if (runs_on_one_cpu(options.workload)) {
        std::printf("# pinned to cpu %d with every thread it starts\n",
                    pin_to_one_cpu());
    }
    std::fflush(stdout);

    Tracer tracer;
    Report report;
    try {
        chrysalis::FatalThrowGuard guard;
        if (options.workload == "campaign_resnet18" ||
            options.workload == "campaign_kws")
            report = run_campaign_workload(options, tracer);
        else if (options.workload == "serve_mixed")
            report = run_serve_workload(options, tracer);
        else if (options.workload == "dist_kws")
            report = run_dist_workload(options, tracer);
        else {
            usage();
            return 2;
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     options.workload.c_str(), error.what());
        return 1;
    }
    if (!report.check_error.empty()) {
        std::fprintf(stderr, "perfbench: output check failed: %s\n",
                     report.check_error.c_str());
        return 1;
    }

    for (const auto& [key, value] : report.properties)
        std::printf("property %s = %s\n", key.c_str(), value.c_str());
    for (const auto& metric : report.metrics)
        std::printf("metric %s = %.6g %s\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str());
    for (const auto& line : report.ladder)
        std::printf("ladder %s\n", line.c_str());
    for (const auto& line : report.flags)
        std::printf("FLAG %s\n", line.c_str());

    const std::string stem = options.out_dir + "/perfbench_" +
                             options.workload +
                             (options.trace ? "_traced" : "_untraced");
    const std::string result = result_json(report);
    std::ofstream(stem + ".json") << result << '\n';
    if (options.trace) {
        tracer.session.write_chrome_trace_file(stem + "_chrome_trace.json");
        std::printf("# chrome trace: %s_chrome_trace.json (%llu spans)\n",
                    stem.c_str(),
                    static_cast<unsigned long long>(
                        tracer.session.event_count()));
    }
    std::printf("%s\n", result.c_str());
    return 0;
}
