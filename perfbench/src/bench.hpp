#pragma once

// Workload entry points and the per-layer ledger they share.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/heuristics/heuristic.hpp"
#include "core/scenario_sweep.hpp"
#include "srv/service.hpp"

namespace pb {

/// Thread budget: the serving stack runs one event-loop thread, one service
/// worker and one client thread; the sweep runs a dedicated pool of one
/// worker beside the calling thread, which waits. Every thread of a run
/// shares one CPU (see pin_to_one_cpu), so no workload measures
/// concurrency. With the sweep's pool at two workers on two CPUs of a shared
/// x86-64 VM, one ten-seed set of runs had a median throughput 18% below the
/// set before it and a p99 spread of 0.25 of its median.
inline constexpr unsigned kServiceWorkers = 1;
inline constexpr unsigned kSweepThreads = 1;

/// Ledger queries per traced run, and timing repetitions per query (the
/// fastest repetition of each stage is kept).
inline constexpr std::size_t kLedgerQueries = 36;
inline constexpr int kLedgerRepeats = 3;

/// The Table 2 solvers plus refined-dp, as a sweep runs them. Brute-Force
/// scans 50 t1 candidates (not the paper's 5000) so that it costs about as
/// much as the other solvers together, and runs serially so that the sweep's
/// dedicated pool is the only pool in use.
[[nodiscard]] std::vector<sre::core::HeuristicPtr> sweep_solvers();
/// Eq. 13 Monte Carlo at N = 1000 (the paper's default), evaluated serially
/// inside each scenario: the estimate is chunk-deterministic, so this is
/// bit-identical to the default parallel estimate without touching the
/// machine-sized global pool.
[[nodiscard]] sre::core::EvaluationOptions sweep_eval();
/// Campaign `j` of a seed: the nine Table 1 laws, each with its parameters
/// scaled by seeded factors in [0.9, 1.1], x the four cost models x
/// `solvers`, in core::make_scenario_grid order (law outermost).
[[nodiscard]] std::vector<sre::core::SweepScenario> campaign_grid(
    std::uint64_t seed, std::uint64_t j,
    const std::vector<sre::core::HeuristicPtr>& solvers);

/// What the per-layer ledger needs from a workload.
struct LayerInputs {
  std::uint64_t seed = 0;                 ///< the run's seed
  std::vector<Query> queries;             ///< distinct ledger queries
  sre::srv::ServiceConfig service;        ///< the workload's service config
  /// Request line (with '\n') for stream index i of the workload's mix.
  std::function<std::string(std::uint64_t)> stream_line;
  std::vector<std::string> presolve;      ///< lines solved before the mix
  unsigned in_flight = 4;                 ///< concurrent requests in the mix
};

/// Per-layer metrics, measured in process through the public calls of each
/// layer with the benchmark's own spans: the request path (framing, parse,
/// prepare, cache, format, event-loop round trip), the cold solve (discretize,
/// DP, refinement, Eq. 4 evaluation, serialization, exact operation counts),
/// the service queue (PlanTelemetry stamps and ServiceCounters over a fixed
/// concurrent mix), and the sweep layers (SweepCounters, CdfCache, Monte
/// Carlo).
void measure_layers(const LayerInputs& in, Tracer& tr, Result& res);

/// serve_cold and serve_hot.
[[nodiscard]] Result run_serve(const Args& args);
/// sweep.
[[nodiscard]] Result run_sweep(const Args& args);

}  // namespace pb
