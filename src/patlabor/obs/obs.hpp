// Observability umbrella: instrumentation macros over stats.hpp/trace.hpp.
//
// One gate, off by default: obs::set_enabled(true).  While it is off every
// site below costs one relaxed atomic load.
//
// Conventions (see DESIGN.md "Observability"):
//   * counters / histograms: dotted lowercase "subsystem.metric"
//     (dw.states_expanded, lut.hits, search.moves_accepted, ...);
//   * spans: phase granularity only — a solver run, a net, a generation
//     pass — never inner loops; hot loops accumulate locally and flush one
//     PL_COUNT at scope exit.
#pragma once

#include "patlabor/obs/stats.hpp"
#include "patlabor/obs/trace.hpp"

namespace patlabor::obs {

/// Always true: instrumentation is always compiled in.  Kept because the
/// benchmark's context line still prints it.
constexpr bool compiled_in() { return true; }

}  // namespace patlabor::obs

#define PL_OBS_CONCAT_(a, b) a##b
#define PL_OBS_CONCAT(a, b) PL_OBS_CONCAT_(a, b)

/// RAII scoped trace span; `name` must be a string literal.
#define PL_SPAN(name) \
  ::patlabor::obs::TraceSpan PL_OBS_CONCAT(pl_obs_span_, __LINE__)(name)

/// Adds `n` to the named counter (registered on first enabled hit).
#define PL_COUNT(name, n)                                          \
  do {                                                             \
    if (::patlabor::obs::enabled()) {                              \
      static ::patlabor::obs::Counter& pl_obs_c =                  \
          ::patlabor::obs::StatsRegistry::instance().counter(name); \
      pl_obs_c.add(static_cast<std::uint64_t>(n));                 \
    }                                                              \
  } while (0)

/// Records `v` into the named histogram.
#define PL_HIST(name, v)                                             \
  do {                                                               \
    if (::patlabor::obs::enabled()) {                                \
      static ::patlabor::obs::Histogram& pl_obs_h =                  \
          ::patlabor::obs::StatsRegistry::instance().histogram(name); \
      pl_obs_h.record(static_cast<std::uint64_t>(v));                \
    }                                                                \
  } while (0)

/// Sets the named gauge to `v` (a signed level, may go down).
#define PL_GAUGE_SET(name, v)                                     \
  do {                                                            \
    if (::patlabor::obs::enabled()) {                             \
      static ::patlabor::obs::Gauge& pl_obs_g =                   \
          ::patlabor::obs::StatsRegistry::instance().gauge(name); \
      pl_obs_g.set(static_cast<std::int64_t>(v));                 \
    }                                                             \
  } while (0)
