// The serving workloads: a client asking the planner service for a
// reservation plan over loopback TCP, timed from the client's send (or, in
// the open loop, from when the request was due) to the response line.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "client.hpp"
#include "srv/eventloop.hpp"
#include "srv/protocol.hpp"

namespace pb {

namespace {

using sre::srv::EventLoop;
using sre::srv::PlannerService;
using sre::srv::ServiceConfig;

struct Spec {
  const char* name;
  unsigned closed_conns;     ///< closed loop connections
  unsigned depth;            ///< closed loop: requests in flight per connection
  unsigned open_conns;       ///< open loop: requests go round robin
  double open_rate;          ///< fixed offered rate of the open loop, 1/s
  std::size_t cache_capacity;
  std::size_t keys;          ///< distinct queries; 0 = every request distinct
  double zipf_s;
  bool presolve;             ///< solve every key during set-up
  std::size_t warmup;        ///< closed-loop requests before timing starts
};

// Open-loop rates sit at about a fifth of the closed-loop capacity measured
// on one CPU of an x86-64 VM: low enough that latency tracks service time
// rather than queueing behind the one service worker, which would amplify
// run-to-run noise (at 400/s serve_cold's p99 spread 0.21 over ten seeds).
// They are absolute, so a faster program sees the same offered load and
// shows lower latency.
//
// Only serve_cold is in BENCHMARK.json; serve_hot stays runnable by name and
// its exact hit count is checked by the benchmark's own test. Over ten
// seeds, serve_hot's p50 (a 40 us round trip) spread 0.33 of its median
// with the spinning client below, and its p99 split between 0.1 ms and over
// 1 ms with a client that sleeps between sends (a halted virtual CPU is
// woken late), against a bound of 0.25. Its layers are still measured by
// every traced run.
constexpr Spec kSpecs[] = {
    {"serve_cold", 8, 1, 8, 250.0, 1024, 0, 0.0, false, 256},
    {"serve_hot", 4, 16, 8, 4000.0, 1024, 64, 1.0, true, 512},
};

// Stream index spaces, so that no two phases send the same request.
constexpr std::uint64_t kOpenBase = 1ull << 32;
constexpr std::uint64_t kMixBase = 1ull << 36;
constexpr std::uint64_t kWarmupBase = 1ull << 40;
constexpr std::uint64_t kZipfStream = 21;
constexpr std::uint64_t kSampleStream = 22;
/// plan_cost_ratio averages the distinct plans among these first requests.
constexpr std::uint64_t kRatioPrefix = 1024;
constexpr std::size_t kByteSamples = 48;
/// A phase that sees no response for this long gives up.
constexpr std::uint64_t kStallNs = 30'000'000'000ull;

/// The workload's request mix: a pure function of (seed, stream index).
class Mix {
 public:
  Mix(const Spec& spec, std::uint64_t seed)
      : spec_(spec),
        seed_(seed),
        zipf_(spec.keys == 0 ? 1 : spec.keys, spec.zipf_s) {
    for (std::size_t k = 0; k < spec.keys; ++k) {
      keys_.push_back(draw_query(seed, k));
      bodies_.push_back(line_body(keys_.back()));
      bounds_.push_back(plan_bounds(keys_.back()));
    }
  }

  [[nodiscard]] bool keyed() const noexcept { return spec_.keys != 0; }
  [[nodiscard]] std::size_t key_of(std::uint64_t i) const {
    return zipf_.rank(unit(seed_, kZipfStream, i));
  }
  [[nodiscard]] Query query(std::uint64_t i) const {
    return keyed() ? keys_[key_of(i)] : draw_query(seed_, i);
  }
  [[nodiscard]] std::string line(std::uint64_t i) const {
    std::string l = "{\"id\":\"" + std::to_string(i);
    l += keyed() ? bodies_[key_of(i)] : line_body(draw_query(seed_, i));
    l += '\n';
    return l;
  }
  [[nodiscard]] const std::vector<Query>& keys() const noexcept {
    return keys_;
  }
  [[nodiscard]] const PlanBounds& bounds(std::size_t key) const {
    return bounds_[key];
  }
  /// Distinct queries for the ledger: the most popular keys, or the first
  /// requests of the measured stream.
  [[nodiscard]] std::vector<Query> ledger() const {
    std::vector<Query> out;
    for (std::uint64_t i = 0; out.size() < kLedgerQueries; ++i) {
      out.push_back(keyed() ? keys_[i] : draw_query(seed_, i));
    }
    return out;
  }

 private:
  const Spec& spec_;
  std::uint64_t seed_;
  Zipf zipf_;
  std::vector<Query> keys_;
  std::vector<std::string> bodies_;
  std::vector<PlanBounds> bounds_;
};

ServiceConfig service_config(const Spec& spec) {
  ServiceConfig cfg;
  cfg.workers = kServiceWorkers;
  cfg.queue_capacity = 4096;
  cfg.cache.capacity = spec.cache_capacity;
  return cfg;
}

/// Checks every response: ok, id in order, and either byte-identical to the
/// key's first verified plan or a plan that passes the paper's invariants.
class Verifier {
 public:
  Verifier(const Mix& mix, Result& res, std::uint64_t seed)
      : mix_(mix), res_(res), seed_(seed),
        expected_(mix.keys().size()), ratio_(mix.keys().size(), 0.0),
        in_prefix_(mix.keys().size(), 0) {}

  void operator()(std::uint64_t id, std::string_view line) {
    ++res_.attempted;
    if (!ok_prefix(id, line)) {
      res_.fail("request " + std::to_string(id) + ": " +
                std::string(line.substr(0, 200)));
      return;
    }
    const std::size_t at = line.find("\"result\":");
    if (mix_.keyed()) {
      const std::size_t k = mix_.key_of(id);
      const std::string_view result = line.substr(at);
      if (expected_[k].empty()) {
        if (!accept_first(k, line)) return;
      } else if (result != expected_[k]) {
        res_.fail("request " + std::to_string(id) +
                  ": bytes differ from key's plan");
        return;
      }
      if (id < kRatioPrefix) in_prefix_[k] = 1;
    } else {
      double ratio = 0.0;
      const std::string why =
          check_served(line, plan_bounds(mix_.query(id)), &ratio);
      if (!why.empty()) {
        res_.fail("request " + std::to_string(id) + ": " + why);
        return;
      }
      if (id < kRatioPrefix) {
        cold_ratio_sum_ += ratio;
        ++cold_ratio_n_;
      }
    }
    if (id < kOpenBase && samples_.size() < kByteSamples &&
        unit(seed_, kSampleStream, id) < 1.0 / 32.0) {
      samples_.emplace_back(id, std::string(line));
    }
  }

  /// A key's first plan: invariants checked, bytes kept for later responses.
  /// A plan solved again by a new service must repeat those bytes.
  bool accept_first(std::size_t k, std::string_view line) {
    if (!expected_[k].empty()) {
      if (line.substr(line.find("\"result\":")) == expected_[k]) return true;
      res_.fail("key " + std::to_string(k) + ": bytes differ between services");
      return false;
    }
    const std::string why = check_served(line, mix_.bounds(k), &ratio_[k]);
    if (!why.empty()) {
      res_.fail("key " + std::to_string(k) + ": " + why);
      return false;
    }
    expected_[k] = std::string(line.substr(line.find("\"result\":")));
    return true;
  }

  [[nodiscard]] double plan_cost_ratio() const {
    if (!mix_.keyed()) {
      return cold_ratio_n_ == 0
                 ? 0.0
                 : cold_ratio_sum_ / static_cast<double>(cold_ratio_n_);
    }
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t k = 0; k < ratio_.size(); ++k) {
      if (in_prefix_[k] == 0) continue;
      sum += ratio_[k];
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

  /// Replays the sampled socket responses through in-process handle_line
  /// on a fresh service and compares the bytes, `cached` normalized.
  void compare_samples(const ServiceConfig& cfg) {
    PlannerService fresh(cfg);
    for (const auto& [id, socket_line] : samples_) {
      ++res_.attempted;
      std::string line = mix_.line(id);
      line.pop_back();
      const std::string local = sre::srv::handle_line(fresh, line).line;
      if (normalize_cached(local) != normalize_cached(socket_line)) {
        res_.fail("request " + std::to_string(id) +
                  ": socket bytes differ from in-process handle_line");
      }
    }
  }
  [[nodiscard]] std::size_t samples() const noexcept { return samples_.size(); }

 private:
  static bool ok_prefix(std::uint64_t id, std::string_view line) {
    constexpr std::string_view kHead = "{\"id\":\"";
    constexpr std::string_view kOk = "\",\"ok\":true,";
    if (line.substr(0, kHead.size()) != kHead) return false;
    char digits[24];
    const int n = std::snprintf(digits, sizeof(digits), "%llu",
                                static_cast<unsigned long long>(id));
    const std::string_view want(digits, static_cast<std::size_t>(n));
    return line.substr(kHead.size(), want.size()) == want &&
           line.substr(kHead.size() + want.size(), kOk.size()) == kOk;
  }

  const Mix& mix_;
  Result& res_;
  std::uint64_t seed_;
  std::vector<std::string> expected_;
  std::vector<double> ratio_;
  std::vector<char> in_prefix_;
  double cold_ratio_sum_ = 0.0;
  std::size_t cold_ratio_n_ = 0;
  std::vector<std::pair<std::uint64_t, std::string>> samples_;
};

/// Service, event loop on its own thread, and the client connections.
struct Stack {
  std::unique_ptr<PlannerService> service;
  std::unique_ptr<EventLoop> loop;
  std::thread thread;
  std::unique_ptr<Client> closed;
  std::unique_ptr<Client> open;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { stop(); }

  void stop() {
    closed.reset();
    open.reset();
    if (loop) {
      loop->request_stop();
      if (thread.joinable()) thread.join();
      loop.reset();
    }
    if (service) service->stop();
  }
};

struct ClosedOut {
  std::vector<double> tput;       ///< per window, requests/s
  std::vector<double> cpu_us;     ///< per window, process CPU µs per request
  std::vector<char> traced;       ///< per window
  std::uint64_t done = 0;
};

/// Closed loop: each connection keeps `depth` requests in flight and sends
/// the next one when a response arrives; the requests a poll makes due go
/// out in one write per connection. Runs `max_requests` requests when
/// nonzero, else for `seconds` split into `windows` windows. With `tr`,
/// odd windows record one span per request.
ClosedOut closed_loop(Client& cl, const Mix& mix, std::uint64_t& next,
                      unsigned depth, double seconds, int windows,
                      std::uint64_t max_requests,
                      Verifier& verify, Tracer* tr = nullptr) {
  ClosedOut out;
  const std::uint64_t t0 = now_ns();
  const bool counted = max_requests != 0;
  const std::uint64_t end =
      counted ? ~0ull : t0 + static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t win_ns =
      counted ? ~0ull : static_cast<std::uint64_t>(seconds * 1e9 / windows);
  std::uint64_t sent = 0;
  bool sending = true;
  int w = 0;
  std::uint64_t w_start = t0;
  std::uint64_t w_done = 0;
  double w_cpu = cpu_seconds();
  const auto window_traced = [&] {
    return tr != nullptr && w % 2 == 1;
  };
  const auto send_next = [&](unsigned c) {
    cl.queue(c, mix.line(next), next, 0);
    ++next;
    ++sent;
    if (counted && sent >= max_requests) sending = false;
  };
  for (unsigned d = 0; d < depth && sending; ++d) {
    for (unsigned c = 0; c < cl.connections() && sending; ++c) send_next(c);
  }
  cl.flush();
  std::uint64_t last_response = t0;
  while (sending || cl.outstanding() > 0) {
    if (now_ns() - last_response > kStallNs) {
      throw std::runtime_error("closed loop: no response in 30 s");
    }
    cl.poll(1000000, [&](unsigned c, const Client::Pending& req,
                         std::uint64_t recv_ns, std::string_view line) {
      last_response = recv_ns;
      verify(req.id, line);
      ++out.done;
      if (recv_ns < end) ++w_done;
      if (window_traced()) {
        tr->record("client.request", req.id, req.sent_ns, recv_ns);
      }
      if (sending) send_next(c);
    });
    cl.flush();
    const std::uint64_t now = now_ns();
    if (!counted) {
      if (now >= end) sending = false;
      const std::uint64_t boundary =
          w + 1 == windows ? end
                           : t0 + static_cast<std::uint64_t>(w + 1) * win_ns;
      if (w < windows && now >= boundary) {
        const double cpu = cpu_seconds();
        const double elapsed = 1e-9 * static_cast<double>(now - w_start);
        out.tput.push_back(static_cast<double>(w_done) / elapsed);
        out.cpu_us.push_back(
            w_done == 0 ? 0.0
                        : 1e6 * (cpu - w_cpu) / static_cast<double>(w_done));
        out.traced.push_back(window_traced() ? 1 : 0);
        w_cpu = cpu;
        w_start = now;
        w_done = 0;
        ++w;
      }
    }
  }
  return out;
}

struct OpenOut {
  std::vector<double> latency_ms;  ///< by request, from due time to response
  std::vector<double> late_ms;     ///< by request, send time minus due time
};

/// Open loop: request k is due at t0 + k / rate, whatever the responses
/// do; connections take requests round robin.
OpenOut open_loop(Client& cl, const Mix& mix, double rate, double seconds,
                  Verifier& verify, Result& res, Tracer* tr = nullptr) {
  OpenOut out;
  const auto total = static_cast<std::uint64_t>(rate * seconds);
  out.latency_ms.resize(total);
  out.late_ms.reserve(total);
  const std::uint64_t t0 = now_ns() + 1000000;
  const double period_ns = 1e9 / rate;
  const std::uint64_t give_up =
      t0 + static_cast<std::uint64_t>(seconds * 1e9) + kStallNs;
  std::uint64_t k = 0;
  const auto on_response = [&](unsigned, const Client::Pending& req,
                               std::uint64_t recv_ns, std::string_view line) {
    out.latency_ms[req.id - kOpenBase] =
        1e-6 * static_cast<double>(recv_ns - req.due_ns);
    if (tr != nullptr) {
      tr->record("client.request", req.id, req.due_ns, recv_ns);
    }
    verify(req.id, line);
  };
  const auto due_of = [&](std::uint64_t i) {
    return t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
  };
  while (k < total || cl.outstanding() > 0) {
    std::uint64_t now = now_ns();
    while (k < total && due_of(k) <= now) {
      const std::uint64_t due = due_of(k);
      out.late_ms.push_back(1e-6 * static_cast<double>(now - due));
      cl.send(static_cast<unsigned>(k % cl.connections()),
              mix.line(kOpenBase + k), kOpenBase + k, due);
      ++k;
      now = now_ns();
    }
    // Spin, yielding, rather than sleep until the next request is due: the
    // event loop and the workers share this CPU and run whenever they have
    // work, and the CPU never halts, so a send is never late because the
    // host was slow to wake a halted virtual CPU (with a sleeping client the
    // spread of serve_cold's p99 over seeds was 1.7 of its median; spinning,
    // 0.06).
    if (cl.poll(0, on_response) == 0) sched_yield();
    if (now > give_up) {
      res.fail("open loop did not drain within 30 s of its end");
      break;
    }
  }
  return out;
}

/// Builds the stack and warms it up; returns the set-up time in seconds.
double set_up(Stack& st, const Spec& spec, const Mix& mix, Verifier& verify,
              int rep) {
  const std::uint64_t t0 = now_ns();
  st.service = std::make_unique<PlannerService>(service_config(spec));
  sre::srv::EventLoopConfig lc;
  lc.port = 0;
  lc.stats_interval_s = 0.0;
  st.loop = std::make_unique<EventLoop>(*st.service, lc);
  st.thread = std::thread([loop = st.loop.get()] { loop->run(); });
  st.closed = std::make_unique<Client>(st.loop->port(), spec.closed_conns);
  st.open = std::make_unique<Client>(st.loop->port(), spec.open_conns);
  if (spec.presolve) {
    for (std::size_t k = 0; k < mix.keys().size(); ++k) {
      const std::string line = request_line(k, mix.keys()[k]);
      const std::string resp = sre::srv::handle_line(*st.service, line).line;
      verify.accept_first(k, resp);
    }
  }
  std::uint64_t next = kWarmupBase + (static_cast<std::uint64_t>(rep) << 24);
  closed_loop(*st.closed, mix, next, spec.depth, 0.0, 1, spec.warmup, verify);
  return 1e-9 * static_cast<double>(now_ns() - t0);
}

}  // namespace

Result run_serve(const Args& args) {
  const Spec* found = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) found = &s;
  }
  if (found == nullptr) {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  const Spec& spec = *found;
  // The open loop gets two thirds of the run: its p99 is a median over
  // windows of at least kMinWindowSamples requests, and more windows make
  // that median less sensitive to a burst from a neighbouring process.
  const double closed_s = args.seconds / 3.0;
  const double open_s = args.seconds - closed_s;
  const int windows = windows_for(closed_s);

  Result res;
  Tracer tr(args.trace);
  const Mix mix(spec, args.seed);
  Verifier verify(mix, res, args.seed);

  std::vector<double> setups;
  std::unique_ptr<Stack> st;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    st = std::make_unique<Stack>();  // the previous stack stops first
    setups.push_back(set_up(*st, spec, mix, verify, rep));
  }

  // Traced runs alternate untraced and traced windows, so the two halves
  // see the same machine and their difference is the tracing overhead.
  std::uint64_t next = 0;
  const ClosedOut closed =
      args.trace ? closed_loop(*st->closed, mix, next, spec.depth, closed_s,
                               2 * windows, 0, verify, &tr)
                 : closed_loop(*st->closed, mix, next, spec.depth, closed_s,
                               windows, 0, verify);
  OpenOut open = open_loop(*st->open, mix, spec.open_rate, open_s, verify, res,
                           args.trace ? &tr : nullptr);
  const sre::srv::PlanCache::Counters cache = st->service->cache_counters();
  st->stop();
  if (!mix.keyed() && cache.hits != 0) {
    res.fail("serve_cold: " + std::to_string(cache.hits) +
             " cache hits on distinct keys");
  }
  verify.compare_samples(service_config(spec));

  const auto latency_windows = sample_windows(open.latency_ms);
  const Percentiles lat = window_percentiles(latency_windows);
  if (!lat.p99_within_max) res.fail("p99 above max");

  if (args.trace) {
    std::vector<double> plain, traced;
    for (std::size_t w = 0; w < closed.tput.size(); ++w) {
      (closed.traced[w] != 0 ? traced : plain).push_back(closed.tput[w]);
    }
    std::sort(open.late_ms.begin(), open.late_ms.end());
    res.add("obs.trace_overhead_share", 1.0 - median(traced) / median(plain),
            "ratio");
    res.add("gen.late_ms", quantile_sorted(open.late_ms, 0.99), "ms");

    LayerInputs in;
    in.seed = args.seed;
    in.queries = mix.ledger();
    in.service = service_config(spec);
    in.stream_line = [&mix](std::uint64_t i) { return mix.line(kMixBase + i); };
    if (spec.presolve) {
      for (std::size_t k = 0; k < mix.keys().size(); ++k) {
        in.presolve.push_back(request_line(k, mix.keys()[k]) + "\n");
      }
    }
    in.in_flight = spec.closed_conns * spec.depth;
    measure_layers(in, tr, res);
    if (!args.trace_out.empty() && !tr.write(args.trace_out)) {
      res.fail("cannot write the trace to " + args.trace_out);
    }
  } else {
    if (lat.min_beyond < 10) {
      res.fail("fewer than 10 samples beyond p99 in a window");
    }
    res.add("setup_s", median(setups), "s");
    res.add("throughput_per_s", median(closed.tput), "1/s");
    res.add("p50_ms", lat.p50, "ms");
    res.add("p99_ms", lat.p99, "ms");
    res.add("cpu_us_per_op", median(closed.cpu_us), "us");
    res.add("rss_mb", peak_rss_mb(), "MiB");
    res.add("plan_cost_ratio", verify.plan_cost_ratio(), "ratio");
  }

  res.info = "\"threads\":{\"event_loop\":1,\"service_workers\":" +
             std::to_string(kServiceWorkers) + ",\"client\":1}" +
             ",\"connections\":{\"closed_loop\":" +
             std::to_string(spec.closed_conns) +
             ",\"closed_loop_depth\":" + std::to_string(spec.depth) +
             ",\"open_loop\":" + std::to_string(spec.open_conns) + "}" +
             ",\"open_loop_rate_per_s\":" + json_number(spec.open_rate) +
             ",\"cache_capacity\":" + std::to_string(spec.cache_capacity) +
             ",\"distinct_keys\":" + std::to_string(spec.keys) +
             ",\"closed_loop_window_throughput\":" + json_array(closed.tput) +
             ",\"closed_loop_requests\":" + std::to_string(closed.done) +
             ",\"open_loop\":{\"windows\":" +
             std::to_string(latency_windows.size()) +
             ",\"samples\":" + std::to_string(lat.samples) +
             ",\"min_beyond_p99_per_window\":" +
             std::to_string(lat.min_beyond) +
             ",\"max_ms\":" + json_number(lat.max) + "}" +
             ",\"byte_samples\":" + std::to_string(verify.samples()) +
             ",\"cache\":{\"hits\":" + std::to_string(cache.hits) +
             ",\"misses\":" + std::to_string(cache.misses) +
             ",\"evictions\":" + std::to_string(cache.evictions) + "}" +
             ",\"spans\":" + std::to_string(tr.size());
  return res;
}

}  // namespace pb
