// Shared support for the google-benchmark binaries (micro, ablation,
// related-work and hierarchy studies): the trace bundle and CAMP factory
// they replay, taken from the src/figures layer so a bench run and a
// `camp_figures` run see byte-identical traces.
//
// Scale: by default traces are generated at 1/10th of the paper's 4M rows
// so the whole bench suite finishes in minutes. Set CAMP_PAPER_SCALE=1 to
// run the paper's full scale.
//
// Determinism: the trace accessor takes an EXPLICIT seed (defaulting to
// the canonical paper seed) and forwards to figures::shared_trace, which
// is keyed by (kind, scale, seed) — no hidden global state feeds the
// generators.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>

#include "figures/factories.h"
#include "figures/traces.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "sim/sweep.h"

namespace camp::bench {

/// The paper's three-tier-cost trace at the environment's scale.
inline const figures::TraceBundle& default_trace(
    std::uint64_t seed = figures::seed_for(figures::TraceKind::kDefault,
                                           figures::kCanonicalSeed)) {
  return figures::shared_trace(figures::TraceKind::kDefault,
                               figures::Scale::from_env(), seed);
}

inline sim::CacheFactory camp_factory(int precision) {
  return figures::camp_factory(precision);
}

/// Report one simulation's paper metrics as counters.
inline void report_point(benchmark::State& state, const sim::Metrics& m) {
  state.counters["cost_miss_ratio"] = m.cost_miss_ratio();
  state.counters["miss_rate"] = m.miss_rate();
  state.counters["requests"] = static_cast<double>(m.requests);
}

}  // namespace camp::bench
