// The sweep workload: a researcher's offline campaign, from a law-and-cost
// spec to merged outcomes. One campaign is one core::run_scenario_sweep call
// over the whole grid, as every campaign in the repository runs one: the
// nine jittered Table 1 laws x the four cost models x the eight sweep
// solvers (288 scenarios), on a dedicated pool of kSweepThreads workers.

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "core/heuristics/brute_force.hpp"
#include "core/heuristics/dp_discretization.hpp"
#include "core/heuristics/moment_based.hpp"
#include "core/heuristics/refined_dp.hpp"
#include "core/scenario_sweep.hpp"
#include "platform/cli.hpp"

namespace pb {

std::vector<sre::core::HeuristicPtr> sweep_solvers() {
  using namespace sre::core;
  BruteForceOptions bf;
  bf.grid_points = 50;
  bf.parallel = false;
  const sre::sim::DiscretizationOptions eq_time{
      kSolverN, kEpsilon, sre::sim::DiscretizationScheme::kEqualTime};
  const sre::sim::DiscretizationOptions eq_prob{
      kSolverN, kEpsilon, sre::sim::DiscretizationScheme::kEqualProbability};
  RefinedDpOptions refined;
  refined.disc = eq_prob;
  return {
      std::make_shared<BruteForce>(bf),
      std::make_shared<MeanByMean>(),
      std::make_shared<MeanStdev>(),
      std::make_shared<MeanDoubling>(),
      std::make_shared<MedianByMedian>(),
      std::make_shared<DiscretizedDp>(eq_time),
      std::make_shared<DiscretizedDp>(eq_prob),
      std::make_shared<RefinedDp>(refined),
  };
}

sre::core::EvaluationOptions sweep_eval() {
  sre::core::EvaluationOptions eval;
  eval.mc.parallel = false;
  return eval;
}

std::vector<sre::core::SweepScenario> campaign_grid(
    std::uint64_t seed, std::uint64_t j,
    const std::vector<sre::core::HeuristicPtr>& solvers) {
  // Queries j * 36 .. j * 36 + 8 carry laws 0..8 (see draw_query).
  const std::uint64_t first = j * law_count() * cost_models().size();
  std::vector<sre::dist::PaperInstance> laws;
  for (std::size_t law = 0; law < law_count(); ++law) {
    const Query q = draw_query(seed, first + law);
    laws.push_back({law_label(q.law),
                    sre::platform::parse_distribution_spec(q.spec, nullptr)});
  }
  std::vector<std::pair<std::string, sre::core::CostModel>> models;
  for (std::size_t m = 0; m < cost_models().size(); ++m) {
    models.emplace_back(std::to_string(m), cost_models()[m]);
  }
  return sre::core::make_scenario_grid(laws, models, solvers);
}

namespace {

using sre::core::ScenarioOutcome;

// The traced run's open loop offers campaigns at this fixed rate, about a
// third of the closed-loop capacity measured on one CPU of an x86-64 VM.
constexpr double kOpenRate = 2.0;
constexpr std::uint64_t kOpenBase = 1ull << 32;
constexpr std::uint64_t kWarmupBase = 1ull << 40;
/// plan_cost_ratio averages every plan of these first campaigns.
constexpr std::uint64_t kRatioCampaigns = 4;
/// Every kSerialEvery-th measured campaign is re-run serially and compared
/// bit for bit, up to kSerialSamples of them.
constexpr std::uint64_t kSerialEvery = 16;
constexpr std::size_t kSerialSamples = 3;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_outcome(const ScenarioOutcome& a, const ScenarioOutcome& b) {
  const auto& x = a.eval;
  const auto& y = b.eval;
  if (a.solver != b.solver ||
      x.sequence.values().size() != y.sequence.values().size()) {
    return false;
  }
  for (std::size_t i = 0; i < x.sequence.values().size(); ++i) {
    if (!same_bits(x.sequence[i], y.sequence[i])) return false;
  }
  return same_bits(x.t1, y.t1) &&
         same_bits(x.expected_cost_mc, y.expected_cost_mc) &&
         same_bits(x.mc_std_error, y.mc_std_error) &&
         same_bits(x.expected_cost_analytic, y.expected_cost_analytic) &&
         same_bits(x.normalized_mc, y.normalized_mc) &&
         same_bits(x.normalized_analytic, y.normalized_analytic);
}

class Campaigns {
 public:
  Campaigns(std::uint64_t seed, Result& res)
      : seed_(seed), res_(res), solvers_(sweep_solvers()), eval_(sweep_eval()) {
    opts_.threads = kSweepThreads;
  }

  /// Builds campaign j from its spec.
  [[nodiscard]] std::vector<sre::core::SweepScenario> grid(
      std::uint64_t j) const {
    return campaign_grid(seed_, j, solvers_);
  }

  /// Runs campaign j, from spec to merged outcomes, and checks every plan;
  /// returns the campaign's latency in ns.
  std::uint64_t run(std::uint64_t j, Tracer* tr = nullptr) {
    const std::uint64_t t0 = now_ns();
    const auto scenarios = grid(j);
    const auto report = sre::core::run_scenario_sweep(scenarios, eval_, opts_);
    const std::uint64_t t1 = now_ns();
    if (tr != nullptr) tr->record("core.run_scenario_sweep", j, t0, t1);
    check(j, scenarios, report.outcomes);
    if (j < kOpenBase && j % kSerialEvery == 0 &&
        serial_.size() < kSerialSamples) {
      serial_.emplace_back(j, report.outcomes);
    }
    return t1 - t0;
  }

  void check(std::uint64_t j,
             const std::vector<sre::core::SweepScenario>& scenarios,
             const std::vector<ScenarioOutcome>& outcomes) {
    if (outcomes.size() != scenarios.size()) {
      res_.fail("campaign " + std::to_string(j) + ": outcome count");
      return;
    }
    // Scenarios of one (law, model) pair are consecutive, one per solver.
    PlanBounds bounds;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (i % solvers_.size() == 0) {
        bounds = plan_bounds(*scenarios[i].dist, scenarios[i].model);
      }
      const ScenarioOutcome& o = outcomes[i];
      ++res_.attempted;
      const auto& ev = o.eval;
      const double omniscient =
          ev.expected_cost_analytic / ev.normalized_analytic;
      std::string why =
          o.ok ? check_plan(ev.sequence.values(), ev.expected_cost_analytic,
                            omniscient, bounds)
               : "scenario failed";
      if (why.empty() && ev.t1 != ev.sequence.first()) {
        why = "t1 differs from plan[0]";
      }
      if (!why.empty()) {
        res_.fail("campaign " + std::to_string(j) + " " + o.dist_label + "/" +
                  o.model_label + "/" + o.solver + ": " + why);
      }
      if (j < kRatioCampaigns) {
        ratio_sum_ += ev.normalized_analytic;
        ++ratio_n_;
      }
    }
  }

  /// Re-runs the sampled campaigns with SweepOptions::serial and compares
  /// every outcome bit for bit.
  void compare_serial() {
    sre::sim::SweepOptions serial;
    serial.serial = true;
    for (const auto& [j, outcomes] : serial_) {
      ++res_.attempted;
      const auto report = sre::core::run_scenario_sweep(grid(j), eval_, serial);
      bool same = report.outcomes.size() == outcomes.size();
      for (std::size_t i = 0; same && i < outcomes.size(); ++i) {
        same = same_outcome(report.outcomes[i], outcomes[i]);
      }
      if (!same) {
        res_.fail("campaign " + std::to_string(j) +
                  ": differs from the serial run");
      }
    }
  }

  [[nodiscard]] double plan_cost_ratio() const {
    return ratio_n_ == 0 ? 0.0 : ratio_sum_ / static_cast<double>(ratio_n_);
  }
  [[nodiscard]] std::size_t scenarios() const {
    return law_count() * cost_models().size() * solvers_.size();
  }
  [[nodiscard]] std::size_t serial_samples() const { return serial_.size(); }

 private:
  std::uint64_t seed_;
  Result& res_;
  std::vector<sre::core::HeuristicPtr> solvers_;
  sre::core::EvaluationOptions eval_;
  sre::sim::SweepOptions opts_;
  double ratio_sum_ = 0.0;
  std::size_t ratio_n_ = 0;
  std::vector<std::pair<std::uint64_t, std::vector<ScenarioOutcome>>> serial_;
};

}  // namespace

Result run_sweep(const Args& args) {
  Result res;
  Tracer tr(args.trace);

  // Set-up: the solver set, then one warm-up campaign.
  std::vector<double> setups;
  std::unique_ptr<Campaigns> camp;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::uint64_t t0 = now_ns();
    camp = std::make_unique<Campaigns>(args.seed, res);
    camp->run(kWarmupBase + static_cast<std::uint64_t>(rep));
    setups.push_back(1e-9 * static_cast<double>(now_ns() - t0));
  }

  // Closed loop: campaigns back to back, the whole run (untraced) or its
  // first half in alternating untraced and traced windows (traced). Every
  // window reports its throughput, CPU per scenario and the p50/p99 of its
  // campaign latencies; with a few dozen campaigns a window, its p99 is its
  // slowest campaign, and the run reports the median over windows.
  const double closed_s = args.trace ? 0.5 * args.seconds : args.seconds;
  const int windows =
      args.trace ? 2 * windows_for(closed_s) : windows_for(closed_s);
  const auto per_campaign = static_cast<double>(camp->scenarios());
  std::vector<double> tput, cpu_us, plain, traced;
  std::vector<std::vector<double>> latency_ms(windows);
  std::uint64_t j = 0;
  {
    const std::uint64_t t0 = now_ns();
    const auto win_ns = static_cast<std::uint64_t>(closed_s * 1e9 / windows);
    for (int w = 0; w < windows; ++w) {
      const bool trace_window = args.trace && w % 2 == 1;
      const std::uint64_t w_start = now_ns();
      const std::uint64_t w_end =
          t0 + static_cast<std::uint64_t>(w + 1) * win_ns;
      const double cpu0 = cpu_seconds();
      std::size_t campaigns = 0;
      do {
        const std::uint64_t ns = camp->run(j++, trace_window ? &tr : nullptr);
        latency_ms[w].push_back(1e-6 * static_cast<double>(ns));
        ++campaigns;
      } while (now_ns() < w_end);
      const double elapsed = 1e-9 * static_cast<double>(now_ns() - w_start);
      const double scenarios = per_campaign * static_cast<double>(campaigns);
      tput.push_back(scenarios / elapsed);
      cpu_us.push_back(1e6 * (cpu_seconds() - cpu0) / scenarios);
      (trace_window ? traced : plain).push_back(tput.back());
    }
  }
  for (; j < kRatioCampaigns; ++j) camp->run(j);
  camp->compare_serial();
  const Percentiles lat = window_percentiles(latency_ms);
  if (!lat.p99_within_max) res.fail("p99 above max");

  if (args.trace) {
    // Open loop for the generator's lateness: campaign k is due at
    // t0 + k / rate, and a slow campaign makes the next ones late.
    std::vector<double> late_ms;
    const auto total =
        static_cast<std::uint64_t>(kOpenRate * 0.5 * args.seconds);
    const std::uint64_t t0 = now_ns() + 1000000;
    for (std::uint64_t k = 0; k < total; ++k) {
      const double offset_ns = 1e9 * static_cast<double>(k) / kOpenRate;
      const std::uint64_t due = t0 + static_cast<std::uint64_t>(offset_ns);
      while (now_ns() + 200000 < due) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      while (now_ns() < due) {
      }
      late_ms.push_back(1e-6 * static_cast<double>(now_ns() - due));
      camp->run(kOpenBase + k, &tr);
    }
    std::sort(late_ms.begin(), late_ms.end());
    res.add("obs.trace_overhead_share", 1.0 - median(traced) / median(plain),
            "ratio");
    res.add("gen.late_ms", quantile_sorted(late_ms, 0.99), "ms");

    LayerInputs in;
    in.seed = args.seed;
    for (std::uint64_t q = 0; q < kLedgerQueries; ++q) {
      in.queries.push_back(draw_query(args.seed, q));
    }
    in.stream_line = [seed = args.seed](std::uint64_t i) {
      return request_line(i, draw_query(seed, kOpenBase + i)) + "\n";
    };
    in.service.workers = kServiceWorkers;
    measure_layers(in, tr, res);
    if (!args.trace_out.empty() && !tr.write(args.trace_out)) {
      res.fail("cannot write the trace to " + args.trace_out);
    }
  } else {
    res.add("setup_s", median(setups), "s");
    res.add("throughput_per_s", median(tput), "1/s");
    res.add("p50_ms", lat.p50, "ms");
    res.add("p99_ms", lat.p99, "ms");
    res.add("cpu_us_per_op", median(cpu_us), "us");
    res.add("rss_mb", peak_rss_mb(), "MiB");
    res.add("plan_cost_ratio", camp->plan_cost_ratio(), "ratio");
  }

  res.info = "\"threads\":{\"sweep_pool\":" + std::to_string(kSweepThreads) +
             ",\"caller\":1},\"scenarios_per_campaign\":" +
             std::to_string(camp->scenarios()) +
             ",\"closed_loop_window_throughput\":" + json_array(tput) +
             ",\"closed_loop_campaigns\":" + std::to_string(j) +
             ",\"campaign_latency\":{\"windows\":" +
             std::to_string(latency_ms.size()) +
             ",\"samples\":" + std::to_string(lat.samples) +
             ",\"min_beyond_p99_per_window\":" +
             std::to_string(lat.min_beyond) +
             ",\"max_ms\":" + json_number(lat.max) + "}" +
             (args.trace ? ",\"open_loop_rate_per_s\":" + json_number(kOpenRate)
                         : std::string()) +
             ",\"serial_compared_campaigns\":" +
             std::to_string(camp->serial_samples()) +
             ",\"spans\":" + std::to_string(tr.size());
  return res;
}

}  // namespace pb
