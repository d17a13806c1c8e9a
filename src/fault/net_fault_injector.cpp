#include "fault/net_fault_injector.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/logging.hpp"

namespace chrysalis::fault {

namespace {

/// Distinct hash streams so the same indices never correlate across
/// fault classes.
constexpr std::uint64_t kStreamRefuse = 11;
constexpr std::uint64_t kStreamAcceptStall = 12;
constexpr std::uint64_t kStreamTornWrite = 13;
constexpr std::uint64_t kStreamReset = 14;
constexpr std::uint64_t kStreamReadDelay = 15;

/// splitmix64 finalizer: a high-quality 64-bit mixer.
std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

void
check_probability(double value, const char* name)
{
    if (!(value >= 0.0 && value <= 1.0))
        fatal("NetFaultSpec: ", name, " must be in [0, 1], got ", value,
              " — probabilities are per-event, not percentages");
}

void
check_duration(double value, const char* name)
{
    if (!(value >= 0.0) || !std::isfinite(value))
        fatal("NetFaultSpec: ", name, " must be finite and >= 0, got ",
              value);
}

}  // namespace

void
NetFaultSpec::validate() const
{
    check_probability(connect_refusal_probability,
                      "connect_refusal_probability");
    check_probability(accept_stall_probability,
                      "accept_stall_probability");
    check_duration(accept_stall_s, "accept_stall_s");
    check_probability(torn_write_probability, "torn_write_probability");
    if (torn_write_chunk_bytes < 1)
        fatal("NetFaultSpec: torn_write_chunk_bytes must be >= 1 — a "
              "zero-byte chunk would stall the write forever");
    check_duration(torn_write_stall_s, "torn_write_stall_s");
    check_probability(reset_probability, "reset_probability");
    check_probability(read_delay_probability, "read_delay_probability");
    check_duration(read_delay_s, "read_delay_s");
}

bool
NetFaultSpec::any_active() const
{
    return connect_refusal_probability > 0.0 ||
           accept_stall_probability > 0.0 ||
           torn_write_probability > 0.0 || reset_probability > 0.0 ||
           read_delay_probability > 0.0;
}

NetFaultInjector::NetFaultInjector(const NetFaultSpec& spec) : spec_(spec)
{
    spec_.validate();
}

double
NetFaultInjector::hash01(std::uint64_t stream, std::uint64_t a,
                         std::uint64_t b) const
{
    const std::uint64_t word =
        mix64(spec_.seed + mix64(stream) +
              mix64(a * 0x9e3779b97f4a7c15ULL) +
              mix64(b + 0x6a09e667f3bcc909ULL));
    return static_cast<double>(word >> 11) * 0x1.0p-53;
}

bool
NetFaultInjector::refuse_connect(std::uint64_t accept_index) const
{
    if (spec_.connect_refusal_probability <= 0.0)
        return false;
    const bool refused = hash01(kStreamRefuse, accept_index, 0) <
                         spec_.connect_refusal_probability;
    if (refused)
        connect_refusals_.fetch_add(1, std::memory_order_relaxed);
    return refused;
}

double
NetFaultInjector::accept_stall(std::uint64_t accept_index) const
{
    if (spec_.accept_stall_probability <= 0.0)
        return 0.0;
    if (hash01(kStreamAcceptStall, accept_index, 0) >=
        spec_.accept_stall_probability)
        return 0.0;
    accept_stalls_.fetch_add(1, std::memory_order_relaxed);
    return spec_.accept_stall_s;
}

std::size_t
NetFaultInjector::write_cap_bytes(std::uint64_t connection_id,
                                  std::uint64_t write_index) const
{
    if (spec_.torn_write_probability <= 0.0)
        return std::numeric_limits<std::size_t>::max();
    if (hash01(kStreamTornWrite, connection_id, write_index) >=
        spec_.torn_write_probability)
        return std::numeric_limits<std::size_t>::max();
    torn_writes_.fetch_add(1, std::memory_order_relaxed);
    return spec_.torn_write_chunk_bytes;
}

double
NetFaultInjector::write_stall(std::uint64_t connection_id,
                              std::uint64_t write_index) const
{
    // The stall rides on the torn-write decision — same stream, no
    // extra activation count (the tear already counted).
    if (spec_.torn_write_probability <= 0.0)
        return 0.0;
    if (hash01(kStreamTornWrite, connection_id, write_index) >=
        spec_.torn_write_probability)
        return 0.0;
    return spec_.torn_write_stall_s;
}

bool
NetFaultInjector::reset_after_write(std::uint64_t connection_id,
                                    std::uint64_t write_index) const
{
    if (spec_.reset_probability <= 0.0)
        return false;
    const bool reset = hash01(kStreamReset, connection_id, write_index) <
                       spec_.reset_probability;
    if (reset)
        resets_.fetch_add(1, std::memory_order_relaxed);
    return reset;
}

double
NetFaultInjector::read_delay(std::uint64_t connection_id,
                             std::uint64_t read_index) const
{
    if (spec_.read_delay_probability <= 0.0)
        return 0.0;
    if (hash01(kStreamReadDelay, connection_id, read_index) >=
        spec_.read_delay_probability)
        return 0.0;
    read_delays_.fetch_add(1, std::memory_order_relaxed);
    return spec_.read_delay_s;
}

NetFaultInjector::ActivationCounts
NetFaultInjector::activation_counts() const
{
    ActivationCounts counts;
    counts.connect_refusals =
        connect_refusals_.load(std::memory_order_relaxed);
    counts.accept_stalls =
        accept_stalls_.load(std::memory_order_relaxed);
    counts.torn_writes = torn_writes_.load(std::memory_order_relaxed);
    counts.resets = resets_.load(std::memory_order_relaxed);
    counts.read_delays = read_delays_.load(std::memory_order_relaxed);
    return counts;
}

std::string
NetFaultInjector::describe() const
{
    std::ostringstream os;
    os << "net-faults[seed=" << spec_.seed;
    if (spec_.connect_refusal_probability > 0.0)
        os << " refuse=" << spec_.connect_refusal_probability;
    if (spec_.accept_stall_probability > 0.0) {
        os << " accept-stall=" << spec_.accept_stall_probability << '@'
           << spec_.accept_stall_s << 's';
    }
    if (spec_.torn_write_probability > 0.0) {
        os << " torn=" << spec_.torn_write_probability << '@'
           << spec_.torn_write_chunk_bytes << 'B';
    }
    if (spec_.reset_probability > 0.0)
        os << " reset=" << spec_.reset_probability;
    if (spec_.read_delay_probability > 0.0) {
        os << " read-delay=" << spec_.read_delay_probability << '@'
           << spec_.read_delay_s << 's';
    }
    if (!spec_.any_active())
        os << " none";
    os << ']';
    return os.str();
}

}  // namespace chrysalis::fault
