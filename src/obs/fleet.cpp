#include "obs/fleet.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/logging.hpp"
#include "common/string_utils.hpp"

namespace chrysalis::obs {

namespace {

bool
parse_u64_text(std::string_view text, std::uint64_t& out)
{
    if (text.empty())
        return false;
    const std::string copy(text);
    char* end = nullptr;
    const unsigned long long value = std::strtoull(copy.c_str(), &end, 10);
    if (end != copy.c_str() + copy.size())
        return false;
    out = static_cast<std::uint64_t>(value);
    return true;
}

bool
parse_i64_text(std::string_view text, std::int64_t& out)
{
    if (text.empty())
        return false;
    const std::string copy(text);
    char* end = nullptr;
    const long long value = std::strtoll(copy.c_str(), &end, 10);
    if (end != copy.c_str() + copy.size())
        return false;
    out = static_cast<std::int64_t>(value);
    return true;
}

bool
parse_double_text(std::string_view text, double& out)
{
    if (text.empty())
        return false;
    const std::string copy(text);
    char* end = nullptr;
    const double value = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size())
        return false;
    out = value;
    return true;
}

/// Splits \p text into exactly \p fixed fields at ';', with everything
/// after the last separator (which may itself contain ';') appended as
/// one final field. Returns false when there are too few separators.
bool
split_fixed_then_rest(std::string_view text, std::size_t fixed,
                      std::vector<std::string_view>& out)
{
    out.clear();
    std::size_t begin = 0;
    for (std::size_t i = 0; i < fixed; ++i) {
        const std::size_t sep = text.find(';', begin);
        if (sep == std::string_view::npos)
            return false;
        out.push_back(text.substr(begin, sep - begin));
        begin = sep + 1;
    }
    out.push_back(text.substr(begin));
    return true;
}

/// The field separator is structural, so variable-length fields that
/// are not in the trailing "rest" position must not contain it.
std::string
sanitize_field(std::string_view text)
{
    std::string out(text);
    std::replace(out.begin(), out.end(), ';', '_');
    return out;
}

/// Worker ids become JSON object keys and metric-name segments; the
/// writers do not escape keys, so strip anything JSON-significant.
std::string
sanitize_worker_key(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
            out += '_';
        else
            out += c;
    }
    return out;
}

void
append_u64_list(std::string& out, const std::vector<std::uint64_t>& values)
{
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0)
            out += ',';
        out += std::to_string(values[i]);
    }
}

void
append_double_list(std::string& out, const std::vector<double>& values)
{
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0)
            out += ',';
        out += format_double_17g(values[i]);
    }
}

bool
parse_u64_list(std::string_view text, std::vector<std::uint64_t>& out)
{
    out.clear();
    if (text.empty())
        return true;
    std::size_t begin = 0;
    while (true) {
        const std::size_t sep = text.find(',', begin);
        const std::string_view item =
            text.substr(begin, sep == std::string_view::npos
                                   ? std::string_view::npos
                                   : sep - begin);
        std::uint64_t value = 0;
        if (!parse_u64_text(item, value))
            return false;
        out.push_back(value);
        if (sep == std::string_view::npos)
            return true;
        begin = sep + 1;
    }
}

bool
parse_double_list(std::string_view text, std::vector<double>& out)
{
    out.clear();
    if (text.empty())
        return true;
    std::size_t begin = 0;
    while (true) {
        const std::size_t sep = text.find(',', begin);
        const std::string_view item =
            text.substr(begin, sep == std::string_view::npos
                                   ? std::string_view::npos
                                   : sep - begin);
        double value = 0.0;
        if (!parse_double_text(item, value))
            return false;
        out.push_back(value);
        if (sep == std::string_view::npos)
            return true;
        begin = sep + 1;
    }
}

}  // namespace

double
clock_offset_from_probe(double local_send_s, double local_recv_s,
                        double remote_mono_now_s)
{
    return 0.5 * (local_send_s + local_recv_s) - remote_mono_now_s;
}

WorkerTelemetry
local_telemetry(std::string worker_id, const TraceSession& session,
                const MetricsRegistry* registry)
{
    WorkerTelemetry self;
    self.worker_id = std::move(worker_id);
    self.clock_offset_s = session.epoch_to_monotonic_skew_s();
    self.events = session.merged();
    self.dropped_events = session.dropped();
    if (registry != nullptr)
        self.metrics = registry->samples();
    return self;
}

void
FleetCollector::add_worker(WorkerTelemetry telemetry)
{
    workers_.push_back(std::move(telemetry));
}

std::vector<FleetCollector::AlignedEvent>
FleetCollector::aligned(std::uint64_t* clamped) const
{
    std::vector<AlignedEvent> events;
    events.reserve(event_count());
    for (std::size_t w = 0; w < workers_.size(); ++w) {
        // NOLINTNEXTLINE(chrysalis-unit-suffix): Chrome trace spec uses us
        const double shift_us = workers_[w].clock_offset_s * 1e6;
        for (const TraceEvent& event : workers_[w].events) {
            AlignedEvent aligned_event;
            aligned_event.worker = w;
            aligned_event.event = event;
            aligned_event.event.start_us = event.start_us + shift_us;
            events.push_back(std::move(aligned_event));
        }
    }
    // Re-base so the merged timeline starts at zero — offsets can be
    // negative and Chrome viewers dislike hugely negative timestamps.
    double base_us = 0.0;  // NOLINT(chrysalis-unit-suffix): trace unit
    bool have_base = false;
    for (const AlignedEvent& event : events) {
        if (!have_base || event.event.start_us < base_us) {
            base_us = event.event.start_us;
            have_base = true;
        }
    }
    std::uint64_t clamp_count = 0;
    for (AlignedEvent& event : events) {
        event.event.start_us -= base_us;
        // Durations are measured on one clock and unaffected by the
        // shift, but defend against garbage inputs: the merged trace
        // must never show time running backwards.
        if (event.event.duration_us < 0.0) {
            event.event.duration_us = 0.0;
            ++clamp_count;
        }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const AlignedEvent& a, const AlignedEvent& b) {
                         if (a.worker != b.worker)
                             return a.worker < b.worker;
                         if (a.event.tid != b.event.tid)
                             return a.event.tid < b.event.tid;
                         if (a.event.start_us != b.event.start_us)
                             return a.event.start_us < b.event.start_us;
                         return a.event.depth < b.event.depth;
                     });
    if (clamped != nullptr)
        *clamped = clamp_count;
    return events;
}

std::uint64_t
FleetCollector::event_count() const
{
    std::uint64_t total = 0;
    for (const WorkerTelemetry& worker : workers_)
        total += worker.events.size();
    return total;
}

void
FleetCollector::write_chrome_trace(std::ostream& out) const
{
    const std::vector<AlignedEvent> events = aligned();
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
        if (!first)
            out << ",";
        out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << w
            << ",\"tid\":0,\"args\":{\"name\":\"";
        write_escaped_trace_string(out, workers_[w].worker_id);
        out << "\"}}";
        first = false;
    }
    for (const AlignedEvent& event : events) {
        if (!first)
            out << ",";
        write_chrome_event(out, event.event, event.worker);
        first = false;
    }
    out << "]}\n";
}

void
FleetCollector::write_chrome_trace_file(const std::string& path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        fatal("FleetCollector: cannot open '", path, "' for writing");
    write_chrome_trace(out);
    out.flush();
    if (!out)
        fatal("FleetCollector: failed writing fleet trace to '", path,
              "'");
}

std::string
FleetCollector::metrics_rollup_json(ReportMode mode) const
{
    std::vector<MetricSample> rollup;
    // Cross-worker aggregates, keyed by the original metric name.
    std::map<std::string, MetricSample> totals;
    std::map<std::string, std::size_t> seen_ids;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
        std::string key = sanitize_worker_key(workers_[w].worker_id);
        if (key.empty())
            key = "worker" + std::to_string(w);
        // Two members reporting the same id would collide in the
        // namespaced keys; disambiguate the later one by index.
        const auto [it, inserted] = seen_ids.emplace(key, w);
        if (!inserted)
            key += "#" + std::to_string(w);
        for (const MetricSample& sample : workers_[w].metrics) {
            MetricSample namespaced = sample;
            namespaced.name = "fleet/" + key + "/" + sample.name;
            rollup.push_back(std::move(namespaced));

            const auto total = totals.find(sample.name);
            if (total == totals.end()) {
                totals.emplace(sample.name, sample);
                continue;
            }
            MetricSample& aggregate = total->second;
            if (aggregate.kind != sample.kind)
                continue;  // conflicting kinds: keep the first
            switch (sample.kind) {
              case MetricKind::kCounter:
                aggregate.count += sample.count;
                break;
              case MetricKind::kGauge:
                aggregate.value += sample.value;
                break;
              case MetricKind::kHistogram:
                if (aggregate.bounds != sample.bounds ||
                    aggregate.counts.size() != sample.counts.size())
                    continue;  // incomparable shapes: keep the first
                for (std::size_t i = 0; i < sample.counts.size(); ++i)
                    aggregate.counts[i] += sample.counts[i];
                if (sample.count > 0) {
                    if (aggregate.count == 0 ||
                        sample.min < aggregate.min)
                        aggregate.min = sample.min;
                    if (aggregate.count == 0 ||
                        sample.max > aggregate.max)
                        aggregate.max = sample.max;
                }
                aggregate.count += sample.count;
                aggregate.sum += sample.sum;
                break;
            }
        }
    }
    for (auto& [name, aggregate] : totals) {
        MetricSample total = std::move(aggregate);
        total.name = "fleet/total/" + name;
        rollup.push_back(std::move(total));
    }
    MetricSample workers_sample;
    workers_sample.name = "fleet/workers";
    workers_sample.kind = MetricKind::kCounter;
    workers_sample.stability = Stability::kStable;
    workers_sample.count = workers_.size();
    rollup.push_back(std::move(workers_sample));
    return samples_to_json(std::move(rollup), mode);
}

void
FleetCollector::write_metrics_rollup_file(const std::string& path,
                                          ReportMode mode) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        fatal("FleetCollector: cannot open '", path, "' for writing");
    out << metrics_rollup_json(mode);
    out.flush();
    if (!out)
        fatal("FleetCollector: failed writing fleet rollup to '", path,
              "'");
}

std::string
encode_trace_event(const TraceEvent& event)
{
    std::string out;
    out.reserve(64 + event.name.size() + event.worker.size());
    out += std::to_string(event.tid);
    out += ';';
    out += std::to_string(event.depth);
    out += ';';
    out += format_double_17g(event.start_us);
    out += ';';
    out += format_double_17g(event.duration_us);
    out += ';';
    out += std::to_string(event.trace_id);
    out += ';';
    out += std::to_string(event.case_index);
    out += ';';
    out += sanitize_field(event.worker);
    out += ';';
    out += event.name;  // trailing field: may contain ';'
    return out;
}

bool
decode_trace_event(const std::string& text, TraceEvent& out)
{
    std::vector<std::string_view> fields;
    if (!split_fixed_then_rest(text, 7, fields))
        return false;
    TraceEvent event;
    std::uint64_t tid = 0;
    std::uint64_t depth = 0;
    if (!parse_u64_text(fields[0], tid) ||
        !parse_u64_text(fields[1], depth) ||
        !parse_double_text(fields[2], event.start_us) ||
        !parse_double_text(fields[3], event.duration_us) ||
        !parse_u64_text(fields[4], event.trace_id) ||
        !parse_i64_text(fields[5], event.case_index))
        return false;
    event.tid = static_cast<std::uint32_t>(tid);
    event.depth = static_cast<std::uint32_t>(depth);
    event.worker = std::string(fields[6]);
    event.name = std::string(fields[7]);
    out = std::move(event);
    return true;
}

std::string
encode_metric_sample(const MetricSample& sample)
{
    std::string out;
    const char stability =
        sample.stability == Stability::kStable ? 's' : 'v';
    switch (sample.kind) {
      case MetricKind::kCounter:
        out += "c;";
        out += stability;
        out += ';';
        out += std::to_string(sample.count);
        out += ';';
        break;
      case MetricKind::kGauge:
        out += "g;";
        out += stability;
        out += ';';
        out += format_double_17g(sample.value);
        out += ';';
        break;
      case MetricKind::kHistogram:
        out += "h;";
        out += stability;
        out += ';';
        out += std::to_string(sample.count);
        out += ';';
        out += format_double_17g(sample.sum);
        out += ';';
        out += format_double_17g(sample.min);
        out += ';';
        out += format_double_17g(sample.max);
        out += ';';
        append_double_list(out, sample.bounds);
        out += ';';
        append_u64_list(out, sample.counts);
        out += ';';
        break;
    }
    out += sample.name;  // trailing field: may contain ';'
    return out;
}

bool
decode_metric_sample(const std::string& text, MetricSample& out)
{
    if (text.size() < 2)
        return false;
    const char kind = text[0];
    const std::size_t fixed = (kind == 'h') ? 8 : 3;
    std::vector<std::string_view> fields;
    if (!split_fixed_then_rest(text, fixed, fields))
        return false;
    MetricSample sample;
    if (fields[1] == "s")
        sample.stability = Stability::kStable;
    else if (fields[1] == "v")
        sample.stability = Stability::kVolatile;
    else
        return false;
    switch (kind) {
      case 'c':
        sample.kind = MetricKind::kCounter;
        if (!parse_u64_text(fields[2], sample.count))
            return false;
        sample.name = std::string(fields[3]);
        break;
      case 'g':
        sample.kind = MetricKind::kGauge;
        if (!parse_double_text(fields[2], sample.value))
            return false;
        sample.name = std::string(fields[3]);
        break;
      case 'h':
        sample.kind = MetricKind::kHistogram;
        if (!parse_u64_text(fields[2], sample.count) ||
            !parse_double_text(fields[3], sample.sum) ||
            !parse_double_text(fields[4], sample.min) ||
            !parse_double_text(fields[5], sample.max) ||
            !parse_double_list(fields[6], sample.bounds) ||
            !parse_u64_list(fields[7], sample.counts))
            return false;
        sample.name = std::string(fields[8]);
        break;
      default:
        return false;
    }
    out = std::move(sample);
    return true;
}

}  // namespace chrysalis::obs
