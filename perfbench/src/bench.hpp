/// \file
/// Types shared by the benchmark's workload runners: the run options,
/// the report every runner fills, and the clock/usage helpers.

#ifndef CHRYSALIS_PERFBENCH_SRC_BENCH_HPP
#define CHRYSALIS_PERFBENCH_SRC_BENCH_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace chrysalis::core {
struct CampaignResult;
}

namespace perfbench {

// The benchmark drives every layer of the library; its names are used
// unqualified below namespace chrysalis (core::, search::, serve::, ...).
using namespace chrysalis;

class Tracer;

/// Command-line options of one run.
struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< length of the measured window
    bool trace = false;     ///< per-layer run instead of end-to-end run
    std::string out_dir = ".";  ///< where report files are written
};

/// One measured number.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What a workload runner hands back to main().
struct Report {
    /// Measured workload properties ("key", "value"), printed verbatim.
    std::vector<std::pair<std::string, std::string>> properties;
    /// Every metric the run measured, end-to-end or per-layer.
    std::vector<Metric> metrics;
    /// Ladder reconciliation lines ("rung: parent = children + residual").
    std::vector<std::string> ladder;
    /// Residuals over the 10% threshold.
    std::vector<std::string> flags;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Empty when the output check passed; otherwise why it failed.
    std::string check_error;

    void add(const std::string& name, double value, const std::string& unit)
    {
        metrics.push_back({name, value, unit});
    }
    void property(const std::string& key, const std::string& value)
    {
        properties.emplace_back(key, value);
    }
    /// Records "rung: parent = children + residual" and flags the
    /// residual when it exceeds 10% of the parent.
    void reconcile(const std::string& rung, double parent,
                   double children, const std::string& residual_name);
};

/// Seconds on a monotonic clock.
double now_s();

/// Process CPU time (user + system) in seconds.
double process_cpu_s();

/// Peak resident set size of this program image in MiB.
double peak_rss_mib();

/// Restricts this thread, and every thread it starts from now on, to
/// the last CPU it may run on; returns that CPU. Fatal when the
/// affinity cannot be read or set.
int pin_to_one_cpu();

/// Collects the end-to-end timings of the measured window
/// [start_s, start_s + length_s), cut into kSlices equal slices by
/// completion time. Each slice keeps a uniform reservoir of at most
/// kReservoirSize latencies (0.3 MiB in all, allocated up front), so
/// the benchmark's own memory stays small and flat and peak_rss_mib
/// reads the program's. A serve_mixed slice's p99 still has about 40
/// samples beyond it. Thread-safe.
class EndToEndRecorder
{
  public:
    static constexpr int kSlices = 10;
    static constexpr std::size_t kReservoirSize = 4096;

    /// \p serial: callers make one call at a time, so throughput is
    /// units over the summed latencies; otherwise over the slice length.
    /// \p tail_q is the quantile reported as latency_tail_ms.
    EndToEndRecorder(double start_s, double length_s, bool serial,
                     double tail_q);

    /// One finished unit of work a caller waited for: a campaign, a
    /// distributed campaign or a request completing \p units cases or
    /// requests at \p end_s after \p latency_s.
    void record(double end_s, double latency_s, double units);

    /// Adds setup_s (the median of \p setups_s), throughput_per_s,
    /// latency_p50_ms and latency_tail_ms (quantile tail_q), each the
    /// median of its per-slice values, so a stall of the machine in a
    /// few slices does not move them, then peak_rss_mib and
    /// failed_ratio.
    void report(Report& report, const std::vector<double>& setups_s) const;

  private:
    struct Slice {
        std::vector<double> reservoir;
        std::uint64_t seen = 0;
        double units = 0.0;
        double busy_s = 0.0;
    };

    double start_s_;
    double slice_s_;
    bool serial_;
    double tail_q_;
    mutable std::mutex mutex_;
    std::vector<Slice> slices_;  ///< guarded by mutex_
    std::uint64_t rng_state_ = 0x9e3779b97f4a7c15ULL;  ///< guarded by mutex_
};

/// Rows of \p result's deterministic CSV (header first) without the
/// cache_hits and cache_misses columns, whose values race between
/// threads; the output checks compare these rows.
std::vector<std::string>
checked_csv_rows(const chrysalis::core::CampaignResult& result);

/// Empty when \p actual matches \p expected row for row; otherwise the
/// first differing pair, prefixed by \p what.
std::string compare_rows(const std::string& what,
                         const std::vector<std::string>& expected,
                         const std::vector<std::string>& actual);

/// Set-up repetitions per run; the median is reported as setup_s.
inline constexpr int kSetupRepetitions = 9;

Report run_campaign_workload(const RunOptions& options, Tracer& tracer);
Report run_serve_workload(const RunOptions& options, Tracer& tracer);
Report run_dist_workload(const RunOptions& options, Tracer& tracer);

}  // namespace perfbench

#endif  // CHRYSALIS_PERFBENCH_SRC_BENCH_HPP
