// The per-layer ledger of a traced run. Each layer is timed through its own
// public call on the workload's ledger queries, with one span per call
// (spans of one query share its index as id). Each stage keeps the fastest
// of kLedgerRepeats repetitions per query, then averages over queries, so
// stage times add up the way the stages do.

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "client.hpp"
#include "core/expected_cost.hpp"
#include "core/heuristics/dp_discretization.hpp"
#include "core/heuristics/refined_dp.hpp"
#include "core/omniscient.hpp"
#include "core/scenario_sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "platform/cli.hpp"
#include "sim/discretize.hpp"
#include "srv/eventloop.hpp"
#include "srv/framing.hpp"
#include "srv/protocol.hpp"

namespace pb {

namespace {

using sre::srv::PlannerService;
using sre::srv::PlanRequest;
using sre::srv::PlanResponse;

enum Stage {
  kFraming, kParse, kPrepare, kLookup, kInsert, kFormat, kHandleHit, kCallHit,
  kRoundTrip, kCallCold, kDiscretize, kDp, kDiscretizedDp, kRefinedDp,
  kEvaluate, kSerialize, kStageCount
};
constexpr const char* kStageNames[kStageCount] = {
    "srv.framing", "srv.parse", "srv.prepare", "srv.cache.lookup",
    "srv.cache.insert", "srv.format", "srv.handle_line.hit",
    "srv.service.call.hit", "srv.loop.round_trip", "srv.service.call.cold",
    "sim.discretize", "core.dp", "core.discretized_dp.generate",
    "core.refined_dp.generate", "core.evaluate", "srv.serialize",
};

/// Fastest repetition per (stage, query).
class Ledger {
 public:
  explicit Ledger(std::size_t queries)
      : best_(kStageCount, std::vector<double>(queries, 1e300)) {}
  void time(Tracer& tr, Stage s, std::size_t q,
            const std::function<void()>& fn) {
    const double us = tr.span(kStageNames[s], q, fn);
    best_[s][q] = std::min(best_[s][q], us);
  }
  void put(Tracer& tr, Stage s, std::size_t q, std::uint64_t t0,
           std::uint64_t t1) {
    tr.record(kStageNames[s], q, t0, t1);
    best_[s][q] = std::min(best_[s][q], 1e-3 * static_cast<double>(t1 - t0));
  }
  [[nodiscard]] double us(Stage s) const { return mean(best_[s]); }

 private:
  std::vector<std::vector<double>> best_;
};

std::uint64_t counter(const char* name) {
  return sre::obs::counter(name).value();
}

/// Runs an event loop on its own thread; stops and joins it on scope exit,
/// exceptions included.
class LoopThread {
 public:
  explicit LoopThread(sre::srv::EventLoop& loop)
      : loop_(loop), thread_([this] { loop_.run(); }) {}
  ~LoopThread() {
    loop_.request_stop();
    thread_.join();
  }
  LoopThread(const LoopThread&) = delete;
  LoopThread& operator=(const LoopThread&) = delete;

 private:
  sre::srv::EventLoop& loop_;
  std::thread thread_;
};

/// Request path and event-loop round trip on a warm service (every ledger
/// query already cached), so each call is a hit.
void request_path(const LayerInputs& in, Tracer& tr, Ledger& led, Result& res) {
  sre::srv::ServiceConfig cfg = in.service;
  cfg.cache.capacity = 4096;  // keep every ledger plan resident
  PlannerService warm(cfg);
  const std::size_t n = in.queries.size();
  std::vector<std::string> lines(n);
  for (std::size_t q = 0; q < n; ++q) {
    lines[q] = request_line(q, in.queries[q]);
    ++res.attempted;
    const std::string why =
        check_served(sre::srv::handle_line(warm, lines[q]).line,
                     plan_bounds(in.queries[q]));
    if (!why.empty()) {
      res.fail("ledger query " + std::to_string(q) + ": " + why);
    }
  }

  sre::srv::EventLoopConfig lc;
  lc.stats_interval_s = 0.0;
  sre::srv::EventLoop loop(warm, lc);
  sre::srv::EventLoopCounters before;
  sre::srv::EventLoopCounters after;
  {
    LoopThread running(loop);
    before = loop.counters();
    Client cl(loop.port(), 1);
    for (int rep = 0; rep < kLedgerRepeats; ++rep) {
      for (std::size_t q = 0; q < n; ++q) {
        const std::string framed = lines[q] + "\n";
        cl.send(0, framed, q, now_ns());
        const std::uint64_t give_up = now_ns() + 10'000'000'000ull;
        while (cl.outstanding() > 0) {
          if (now_ns() > give_up) {
            throw std::runtime_error("ledger: no response in 10 s");
          }
          cl.poll(100'000'000, [&](unsigned, const Client::Pending& req,
                                   std::uint64_t recv_ns, std::string_view) {
            led.put(tr, kRoundTrip, q, req.sent_ns, recv_ns);
          });
        }
        const PlanRequest req = sre::srv::parse_request_line(lines[q]);
        PlanResponse resp;
        led.time(tr, kCallHit, q, [&] { resp = warm.call(req); });
      }
    }
  }
  after = loop.counters();
  const double bytes =
      static_cast<double>((after.bytes_in - before.bytes_in) +
                          (after.bytes_out - before.bytes_out));
  const double ops = static_cast<double>(after.responses - before.responses);

  for (int rep = 0; rep < kLedgerRepeats; ++rep) {
    sre::srv::PlanCache cache(in.service.cache);
    for (std::size_t q = 0; q < n; ++q) {
      const std::string framed = lines[q] + "\n";
      sre::srv::LineFramer framer(1 << 20);
      led.time(tr, kFraming, q, [&] {
        framer.feed(framed, [](std::string_view, bool) {});
      });
      PlanRequest req;
      led.time(tr, kParse, q,
               [&] { req = sre::srv::parse_request_line(lines[q]); });
      sre::srv::PreparedRequest prep;
      led.time(tr, kPrepare, q, [&] { prep = sre::srv::prepare(req); });
      const PlanResponse resp = warm.call(req);
      const auto value = std::make_shared<const std::string>(resp.result);
      led.time(tr, kInsert, q,
               [&] { cache.insert(prep.key, prep.key_hash, value); });
      led.time(tr, kLookup, q, [&] {
        if (cache.lookup(prep.key, prep.key_hash) == nullptr) {
          res.fail("ledger cache miss");
        }
      });
      std::string out;
      led.time(tr, kFormat, q,
               [&] { out = sre::srv::format_response(req.id, resp); });
      led.time(tr, kHandleHit, q,
               [&] { out = sre::srv::handle_line(warm, lines[q]).line; });
    }
  }

  const double parts = led.us(kFraming) + led.us(kParse) + led.us(kPrepare) +
                       led.us(kLookup) + led.us(kFormat);
  const double total = led.us(kFraming) + led.us(kHandleHit);
  res.add("srv.framing.us_per_line", led.us(kFraming), "us");
  res.add("srv.parse.us", led.us(kParse), "us");
  res.add("srv.prepare.us", led.us(kPrepare), "us");
  res.add("srv.cache.lookup_us", led.us(kLookup), "us");
  res.add("srv.cache.insert_us", led.us(kInsert), "us");
  res.add("srv.format.us", led.us(kFormat), "us");
  res.add("srv.request.hit_us", total, "us");
  res.add("srv.request.attributed_share", parts / total, "ratio");
  res.add("srv.loop.us", led.us(kRoundTrip) - led.us(kCallHit), "us");
  res.add("srv.loop.bytes_per_op", ops > 0 ? bytes / ops : 0.0, "bytes");
}

/// Cold solve, stage by stage, next to PlannerService::call on a service
/// with the cache off. Stages: prepare, then RefinedDp::generate split into
/// sim::discretize, the Theorem 5 DP, the rest of DiscretizedDp::generate
/// and the refinement (RefinedDp minus DiscretizedDp on the same inputs),
/// then Eq. 4 evaluation and result serialization. What the stages leave
/// of the call is the service's own hand-off. Exact operation counts come
/// from the program's obs counters around the first call of each query.
void cold_solve(const LayerInputs& in, Tracer& tr, Ledger& led, Result& res) {
  sre::srv::ServiceConfig cfg = in.service;
  cfg.cache_enabled = false;
  cfg.workers = 1;
  PlannerService cold(cfg);
  const std::size_t n = in.queries.size();
  const sre::sim::DiscretizationOptions disc{
      kSolverN, kEpsilon, sre::sim::DiscretizationScheme::kEqualProbability};
  const sre::core::DiscretizedDp seed_dp(disc);

  const std::uint64_t argmin0 = counter("core.dp.argmin_evals");
  const std::uint64_t objective0 = counter("core.refined_dp.objective_evals");
  const std::uint64_t quantile0 = counter("dist.quantile.batch_calls");
  const std::uint64_t cdf0 = counter("dist.cdf.batch_calls");
  for (std::size_t q = 0; q < n; ++q) {
    const PlanRequest req =
        sre::srv::parse_request_line(request_line(q, in.queries[q]));
    led.time(tr, kCallCold, q, [&] {
      if (!cold.call(req).ok) res.fail("ledger cold call failed");
    });
  }
  const auto per_solve = [&](const char* name, std::uint64_t before) {
    return static_cast<double>(counter(name) - before) / static_cast<double>(n);
  };
  res.add("core.dp.argmin_evals", per_solve("core.dp.argmin_evals", argmin0),
          "count");
  res.add("core.refine.objective_evals",
          per_solve("core.refined_dp.objective_evals", objective0), "count");
  res.add("dist.quantile.batch_calls",
          per_solve("dist.quantile.batch_calls", quantile0), "count");
  res.add("dist.cdf.batch_calls", per_solve("dist.cdf.batch_calls", cdf0),
          "count");

  for (int rep = 0; rep < kLedgerRepeats; ++rep) {
    for (std::size_t q = 0; q < n; ++q) {
      const PlanRequest req =
          sre::srv::parse_request_line(request_line(q, in.queries[q]));
      if (rep > 0) {
        led.time(tr, kCallCold, q, [&] { (void)cold.call(req); });
      }
      const sre::srv::PreparedRequest prep = sre::srv::prepare(req);
      const sre::dist::Distribution& d = *prep.dist;
      const sre::core::CostModel& m = prep.req.model;
      sre::dist::DiscreteDistribution discrete = sre::sim::discretize(d, disc);
      led.time(tr, kDiscretize, q,
               [&] { discrete = sre::sim::discretize(d, disc); });
      led.time(tr, kDp, q, [&] {
        (void)sre::core::dp_optimal_sequence(
            discrete, m, {}, sre::sim::DpVariant::kDivideAndConquer);
      });
      led.time(tr, kDiscretizedDp, q, [&] { (void)seed_dp.generate(d, m); });
      sre::core::ReservationSequence plan;
      led.time(tr, kRefinedDp, q, [&] { plan = prep.solver->generate(d, m); });
      double expected = 0.0;
      double omniscient = 0.0;
      led.time(tr, kEvaluate, q, [&] {
        expected = sre::core::expected_cost_analytic(plan, d, m);
        omniscient = sre::core::omniscient_cost(d, m);
      });
      // The service serializes every number of the result with
      // obs::format_double (plan, t1, E(S), E^o, E(S)/E^o).
      led.time(tr, kSerialize, q, [&] {
        std::string out;
        for (const double t : plan.values()) out += sre::obs::format_double(t);
        for (const double v :
             {plan.first(), expected, omniscient, expected / omniscient}) {
          out += sre::obs::format_double(v);
        }
      });
      if (rep == 0) {
        ++res.attempted;
        const std::string why =
            check_plan(plan.values(), expected, omniscient, plan_bounds(d, m));
        if (!why.empty()) {
          res.fail("ledger solve " + std::to_string(q) + ": " + why);
        }
      }
    }
  }
  const double refine = led.us(kRefinedDp) - led.us(kDiscretizedDp);
  const double stages = led.us(kPrepare) + led.us(kRefinedDp) +
                        led.us(kEvaluate) + led.us(kSerialize);
  res.add("sim.discretize.us", led.us(kDiscretize), "us");
  res.add("core.dp.us", led.us(kDp), "us");
  res.add("core.refine.us", refine, "us");
  res.add("core.evaluate.us", led.us(kEvaluate), "us");
  res.add("srv.serialize.us", led.us(kSerialize), "us");
  res.add("core.solve.call_us", led.us(kCallCold), "us");
  res.add("core.solve.unattributed_share", 1.0 - stages / led.us(kCallCold),
          "ratio");
}

/// The workload's own mix through PlannerService::submit with a fixed
/// number of requests in flight: PlanTelemetry queue waits and the
/// service and cache counters over a fixed request count.
void service_mix(const LayerInputs& in, Result& res) {
  constexpr std::uint64_t kRequests = 1024;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<PlanResponse> done;
  std::vector<double> waits_us;
  PlannerService svc(in.service);  // after what its callbacks touch

  const auto run = [&](const std::vector<std::string>& lines) {
    std::size_t sent = 0;
    std::size_t received = 0;
    std::size_t in_flight = 0;
    while (received < lines.size()) {
      while (sent < lines.size() && in_flight < in.in_flight) {
        std::string line = lines[sent++];
        if (!line.empty() && line.back() == '\n') line.pop_back();
        ++in_flight;
        svc.submit(sre::srv::parse_request_line(line), [&](PlanResponse&& r) {
          const std::lock_guard<std::mutex> lock(mu);
          done.push_back(std::move(r));
          cv.notify_one();
        });
      }
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !done.empty(); });
      while (!done.empty()) {
        const PlanResponse r = std::move(done.front());
        done.pop_front();
        --in_flight;
        ++received;
        ++res.attempted;
        if (!r.ok) res.fail("service mix: " + r.message);
        if (r.telem.batch_size > 0) {
          waits_us.push_back(1e-3 * static_cast<double>(r.telem.batched_ns -
                                                        r.telem.admitted_ns));
        }
      }
    }
  };

  const sre::srv::ServiceCounters c0 = svc.counters();
  run(in.presolve);
  const sre::srv::PlanCache::Counters k1 = svc.cache_counters();
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    lines.push_back(in.stream_line(i));
  }
  run(lines);
  const sre::srv::ServiceCounters c2 = svc.counters();
  const sre::srv::PlanCache::Counters k2 = svc.cache_counters();
  svc.stop();

  // Cache figures cover the mix; batching covers every solve, pre-solves
  // included (serve_hot's mix itself solves nothing).
  const double hits = static_cast<double>(k2.hits - k1.hits);
  const double lookups = hits + static_cast<double>(k2.misses - k1.misses);
  const double solves = static_cast<double>(c2.solves - c0.solves);
  const double coalesced = static_cast<double>(c2.coalesced - c0.coalesced);
  res.add("srv.cache.hits", hits, "count");
  res.add("srv.cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  res.add("srv.cache.evictions_per_op",
          static_cast<double>(k2.evictions - k1.evictions) /
              static_cast<double>(kRequests),
          "count");
  res.add("srv.queue_wait_us", mean(waits_us), "us");
  res.add("srv.batch.size_mean",
          solves > 0 ? (solves + coalesced) / solves : 0.0, "count");
  res.add("srv.coalesced_share",
          coalesced / static_cast<double>(c2.requests - c0.requests), "ratio");
}

/// Campaign 0 of the run's seed with the sweep's solvers and pool.
/// sim.sweep.scenario_us is process CPU time per scenario, so it does not
/// count the calling thread's wait for the pool.
void sweep_layers(const LayerInputs& in, Tracer& tr, Result& res) {
  const auto solvers = sweep_solvers();
  const std::vector<sre::core::SweepScenario> grid =
      campaign_grid(in.seed, 0, solvers);
  sre::sim::SweepOptions opts;
  opts.threads = kSweepThreads;
  const double cpu0 = cpu_seconds();
  const sre::core::ScenarioSweepReport report =
      sre::core::run_scenario_sweep(grid, sweep_eval(), opts);
  const double cpu_s = cpu_seconds() - cpu0;
  std::vector<double> mc_us;
  PlanBounds bounds;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i % solvers.size() == 0) {
      bounds = plan_bounds(*grid[i].dist, grid[i].model);
    }
    const auto& ev = report.outcomes[i].eval;
    ++res.attempted;
    const std::string why = check_plan(
        ev.sequence.values(), ev.expected_cost_analytic,
        ev.expected_cost_analytic / ev.normalized_analytic, bounds);
    if (!why.empty()) {
      res.fail("ledger sweep " + std::to_string(i) + ": " + why);
    }
    if (i % solvers.size() == solvers.size() - 1) {  // the refined-dp plan
      sre::sim::MonteCarloOptions mc = sweep_eval().mc;
      mc_us.push_back(tr.span("sim.monte_carlo", i / solvers.size(), [&] {
        (void)sre::core::expected_cost_monte_carlo(ev.sequence, *grid[i].dist,
                                                   grid[i].model, mc);
      }));
    }
  }
  const auto& sc = report.sweep;
  const auto& cc = report.cache;
  res.add("sim.sweep.scenario_us",
          1e6 * cpu_s / static_cast<double>(sc.scenarios), "us");
  res.add("sim.sweep.steal_share",
          static_cast<double>(sc.steals) / static_cast<double>(sc.batches),
          "ratio");
  res.add("core.cdf_cache.hit_ratio",
          static_cast<double>(cc.hits) /
              static_cast<double>(cc.hits + cc.misses),
          "ratio");
  res.add("core.cdf_cache.tables_built", static_cast<double>(cc.tables_built),
          "count");
  res.add("sim.monte_carlo.us", mean(mc_us), "us");
}

}  // namespace

void measure_layers(const LayerInputs& in, Tracer& tr, Result& res) {
  Ledger led(in.queries.size());
  request_path(in, tr, led, res);
  cold_solve(in, tr, led, res);
  service_mix(in, res);
  sweep_layers(in, tr, res);
}

}  // namespace pb
