// Instrumentation entry points: the macros every layer records through.
//
// One gate, at runtime: obs::MetricsEnabled(), off by default, flipped by
// EnableMetrics() (CLI --metrics, benches) or the VSJ_METRICS environment
// variable. With recording off a site costs one relaxed atomic load and a
// predicted branch.
//
// The macros cache the registry lookup in a function-local static, so a
// hot site pays the name lookup once, then a shard-local fetch_add per
// event. Names must be string literals (sites with runtime-composed names
// — per-estimator latency histograms — call the registry directly at
// request granularity instead; see service/estimation_engine.cc).
//
// The bit-identity contract: instrumentation records counts and clock
// readings only. Nothing here may draw from an Rng, reorder float
// accumulation, or otherwise feed back into estimation — which is how
// runs with recording on and off stay estimate-for-estimate identical
// (tests/obs/metrics_equivalence_test.cc pins it).

#ifndef VSJ_OBS_OBS_H_
#define VSJ_OBS_OBS_H_

#include "vsj/obs/metrics.h"
#include "vsj/obs/trace.h"

// Always 1: servebench prints it; remove with the next benchmark change.
#define VSJ_METRICS_COMPILED 1

/// Adds `n` to the registry counter `name` (a string literal).
#define VSJ_COUNTER_ADD(name, n)                                         \
  do {                                                                   \
    if (::vsj::obs::MetricsEnabled()) {                                  \
      static ::vsj::obs::Counter& vsj_obs_counter_ =                     \
          ::vsj::obs::MetricRegistry::Global().GetCounter(name);         \
      vsj_obs_counter_.Add(static_cast<uint64_t>(n));                    \
    }                                                                    \
  } while (0)

/// Adds the signed delta `n` to the registry gauge `name`.
#define VSJ_GAUGE_ADD(name, n)                                           \
  do {                                                                   \
    if (::vsj::obs::MetricsEnabled()) {                                  \
      static ::vsj::obs::Gauge& vsj_obs_gauge_ =                         \
          ::vsj::obs::MetricRegistry::Global().GetGauge(name);           \
      vsj_obs_gauge_.Add(static_cast<int64_t>(n));                       \
    }                                                                    \
  } while (0)

/// Sets the registry gauge `name` to `v`.
#define VSJ_GAUGE_SET(name, v)                                           \
  do {                                                                   \
    if (::vsj::obs::MetricsEnabled()) {                                  \
      static ::vsj::obs::Gauge& vsj_obs_gauge_ =                         \
          ::vsj::obs::MetricRegistry::Global().GetGauge(name);           \
      vsj_obs_gauge_.Set(static_cast<int64_t>(v));                       \
    }                                                                    \
  } while (0)

/// Records `v` into the registry histogram `name`.
#define VSJ_HIST_RECORD(name, v)                                         \
  do {                                                                   \
    if (::vsj::obs::MetricsEnabled()) {                                  \
      static ::vsj::obs::Histogram& vsj_obs_hist_ =                      \
          ::vsj::obs::MetricRegistry::Global().GetHistogram(name);       \
      vsj_obs_hist_.Record(static_cast<uint64_t>(v));                    \
    }                                                                    \
  } while (0)

/// Declares a scoped timer `var` recording into histogram `name` (ns) and
/// the trace collector. Suffix histogram names carrying times with `_ns`
/// so reporters format them as durations.
#define VSJ_TRACE_SPAN(var, name) ::vsj::obs::TraceSpan var(name)

#endif  // VSJ_OBS_OBS_H_
