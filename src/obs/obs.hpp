// Observability macros — the only header instrumented code includes.
//
// The macros are always compiled in. Spans record only while
// obs::tracing_enabled() (one relaxed load when off). Counters and
// histograms are always live — they are how RunReport sees dispatch
// counts without tracing — and cost one relaxed atomic add at coarse
// (per-call/per-wave) granularity.
//
//   SMA_TRACE_SPAN("route", "wave");             // span until scope exit
//   SMA_TRACE_SPAN_V("route", "wave", index);    // ... with an i64 arg
//   SMA_COUNT("gemm.blocked_calls");             // counter += 1
//   SMA_COUNT_N("route.ripups", offenders);      // counter += n
//   SMA_HISTOGRAM("route.wave_us", micros);      // histogram.observe
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#define SMA_OBS_CONCAT_IMPL(a, b) a##b
#define SMA_OBS_CONCAT(a, b) SMA_OBS_CONCAT_IMPL(a, b)

#define SMA_TRACE_SPAN(cat, name) \
  ::sma::obs::SpanGuard SMA_OBS_CONCAT(sma_obs_span_, __LINE__)(cat, name)

#define SMA_TRACE_SPAN_V(cat, name, arg)                            \
  ::sma::obs::SpanGuard SMA_OBS_CONCAT(sma_obs_span_, __LINE__)(    \
      cat, name, static_cast<std::int64_t>(arg))

#define SMA_COUNT_N(name, n)                                          \
  do {                                                                \
    static ::sma::obs::Counter& SMA_OBS_CONCAT(sma_obs_counter_,      \
                                               __LINE__) =            \
        ::sma::obs::Registry::global().counter(name);                 \
    SMA_OBS_CONCAT(sma_obs_counter_, __LINE__)                        \
        .add(static_cast<std::uint64_t>(n));                          \
  } while (0)

#define SMA_COUNT(name) SMA_COUNT_N(name, 1)

/// Generic value histogram (power-of-two buckets of whatever unit the
/// call site observes — name the metric accordingly, e.g. `_us`).
#define SMA_HISTOGRAM(name, value)                                    \
  do {                                                                \
    static ::sma::obs::Histogram& SMA_OBS_CONCAT(sma_obs_hist_,       \
                                                 __LINE__) =          \
        ::sma::obs::Registry::global().histogram(name);               \
    SMA_OBS_CONCAT(sma_obs_hist_, __LINE__)                           \
        .observe(static_cast<std::uint64_t>(value));                  \
  } while (0)
