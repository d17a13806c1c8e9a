/// \file
/// Seed-deterministic fault injection for the serving path's network
/// layer — the transport-level sibling of `FaultInjector`.
///
/// The paper's devices survive intermittent *power*; a shared
/// evaluation daemon must survive intermittent *transport*. This
/// injector makes the flaky-network part explicit and reproducible. It
/// models five fault classes against a byte-stream connection:
///
///   1. connect refusals — an accepted connection is immediately reset,
///      as a listener under SYN-flood protection or a crashing peer
///      would behave;
///   2. accept stalls — the listener stops accepting for a while
///      (backlogged acceptor, thundering-herd recovery);
///   3. torn / partial writes — a write is split into small chunks that
///      reach the peer as separate segments, exercising incremental
///      frame reassembly on the other side;
///   4. mid-frame resets — the connection is torn down (RST) after a
///      prefix of a frame has been delivered;
///   5. delayed reads — the receiver sits on readable data for a while
///      (scheduling hiccup, congested peer), exercising wall-clock
///      deadlines rather than per-recv timeouts.
///
/// Every decision is a pure function of (seed, stream, connection,
/// operation index) via the same splitmix64-finalizer hashing as
/// `FaultInjector`: the schedule replays exactly for a fixed seed, in
/// any query order and from any thread. The only mutable state is a set
/// of relaxed activation counters that never feed back into decisions.
///
/// The injector itself is pure arithmetic — no sockets, no syscalls —
/// so it lives in src/fault/ untouched by the network-header lint
/// fence. The one code path that *acts* on its decisions is
/// serve::Server's chaos hook (`ServerOptions::chaos`), inside the
/// poll loop that owns the sockets.

#ifndef CHRYSALIS_FAULT_NET_FAULT_INJECTOR_HPP
#define CHRYSALIS_FAULT_NET_FAULT_INJECTOR_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace chrysalis::fault {

/// Network fault-model parameters. All probabilities are per-event in
/// [0, 1]; a default-constructed spec injects nothing.
struct NetFaultSpec {
    std::uint64_t seed = 1;  ///< schedule seed (independent streams per
                             ///< fault class)

    // -- connect refusals --------------------------------------------
    /// Probability that a freshly accepted connection is reset before
    /// any byte is served.
    double connect_refusal_probability = 0.0;

    // -- accept stalls -----------------------------------------------
    /// Probability that the listener pauses before a given accept.
    double accept_stall_probability = 0.0;
    double accept_stall_s = 0.02;  ///< length of one accept pause

    // -- torn / partial writes ---------------------------------------
    /// Probability that a given write operation is torn into chunks.
    double torn_write_probability = 0.0;
    /// Chunk cap for a torn write [bytes]; must be >= 1.
    std::size_t torn_write_chunk_bytes = 7;
    /// Pause between the torn chunks of one write; keeps the chunks in
    /// separate segments so the peer really reassembles.
    double torn_write_stall_s = 0.002;

    // -- mid-frame resets --------------------------------------------
    /// Probability that a given write operation is followed by a hard
    /// reset (RST) after its first chunk — the peer sees a torn frame
    /// and then a dead connection.
    double reset_probability = 0.0;

    // -- delayed reads -----------------------------------------------
    /// Probability that a given read operation is deferred.
    double read_delay_probability = 0.0;
    double read_delay_s = 0.01;  ///< length of one read deferral

    /// fatal() with an actionable message when any field is out of
    /// range (probabilities outside [0, 1], non-positive chunk size...).
    void validate() const;

    /// True when at least one fault class is active.
    bool any_active() const;
};

/// Deterministic network fault schedule. Logically immutable after
/// construction and safe to share across threads; the activation
/// counters are relaxed atomics that never influence any decision.
class NetFaultInjector
{
  public:
    /// Validates \p spec; fatal() on bad input.
    explicit NetFaultInjector(const NetFaultSpec& spec);

    /// True when the \p accept_index-th accepted connection must be
    /// reset immediately instead of served.
    bool refuse_connect(std::uint64_t accept_index) const;

    /// Pause before performing the \p accept_index-th accept [s];
    /// 0 = accept immediately.
    double accept_stall(std::uint64_t accept_index) const;

    /// Chunk cap for the \p write_index-th write on \p connection_id
    /// [bytes]; SIZE_MAX = write everything available.
    std::size_t write_cap_bytes(std::uint64_t connection_id,
                                std::uint64_t write_index) const;

    /// Pause after a capped (torn) write chunk [s].
    double write_stall(std::uint64_t connection_id,
                       std::uint64_t write_index) const;

    /// True when the connection must be hard-reset (RST) after the
    /// first chunk of the \p write_index-th write on \p connection_id.
    bool reset_after_write(std::uint64_t connection_id,
                           std::uint64_t write_index) const;

    /// Deferral before servicing the \p read_index-th read on
    /// \p connection_id [s]; 0 = read immediately.
    double read_delay(std::uint64_t connection_id,
                      std::uint64_t read_index) const;

    /// One-line summary of the active fault classes for reports.
    std::string describe() const;

    const NetFaultSpec& spec() const { return spec_; }

    /// Lifetime activation totals across every query answered so far.
    struct ActivationCounts {
        std::uint64_t connect_refusals = 0;
        std::uint64_t accept_stalls = 0;
        std::uint64_t torn_writes = 0;
        std::uint64_t resets = 0;
        std::uint64_t read_delays = 0;

        std::uint64_t
        total() const
        {
            return connect_refusals + accept_stalls + torn_writes +
                   resets + read_delays;
        }
    };
    ActivationCounts activation_counts() const;

  private:
    /// Uniform [0, 1) hash of (seed, stream, a, b); pure and stateless.
    double hash01(std::uint64_t stream, std::uint64_t a,
                  std::uint64_t b) const;

    NetFaultSpec spec_;
    mutable std::atomic<std::uint64_t> connect_refusals_{0};
    mutable std::atomic<std::uint64_t> accept_stalls_{0};
    mutable std::atomic<std::uint64_t> torn_writes_{0};
    mutable std::atomic<std::uint64_t> resets_{0};
    mutable std::atomic<std::uint64_t> read_delays_{0};
};

}  // namespace chrysalis::fault

#endif  // CHRYSALIS_FAULT_NET_FAULT_INJECTOR_HPP
