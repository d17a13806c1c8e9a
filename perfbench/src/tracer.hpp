/// \file
/// The benchmark's own spans, recorded around calls into each layer's
/// public functions into an obs::TraceSession (never attached globally,
/// so the library's own spans stay off) and written with its Chrome
/// writer when the run ends. Disabled (no clock read, nothing stored)
/// in the end-to-end run.

#ifndef CHRYSALIS_PERFBENCH_SRC_TRACER_HPP
#define CHRYSALIS_PERFBENCH_SRC_TRACER_HPP

#include <atomic>
#include <cstdint>

#include "obs/trace.hpp"

namespace perfbench {

struct Tracer {
    chrysalis::obs::TraceSession session;
    /// Switch only while no traced work runs.
    std::atomic<bool> enabled{false};
};

/// RAII span tagged (as TraceEvent::case_index) with the index \p id
/// of the case, request or round it belongs to, so the spans of one
/// share it; inert when the tracer is disabled.
class Span
{
  public:
    Span(Tracer& tracer, const char* name, std::int64_t id = -1)
        : name_(name), id_(id)
    {
        if (tracer.enabled.load(std::memory_order_relaxed)) {
            session_ = &tracer.session;
            start_s_ = session_->seconds_since_epoch();
        }
    }
    ~Span()
    {
        if (session_ == nullptr)
            return;
        chrysalis::obs::TraceEvent event;
        event.name = name_;
        event.start_us = start_s_ * 1e6;
        event.duration_us =
            (session_->seconds_since_epoch() - start_s_) * 1e6;
        event.case_index = id_;
        session_->add_event(std::move(event));
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    chrysalis::obs::TraceSession* session_ = nullptr;  ///< nullptr = inert
    const char* name_;
    std::int64_t id_;
    double start_s_ = 0.0;
};

}  // namespace perfbench

#endif  // CHRYSALIS_PERFBENCH_SRC_TRACER_HPP
