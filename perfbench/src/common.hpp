#pragma once

// Shared pieces of the end-to-end benchmark: clocks and process counters,
// exact order statistics, the benchmark's own span recorder, the seeded
// query generator every workload draws from, the paper's plan invariants,
// and the result record. The benchmark talks to the program only through
// its public headers (srv, core, sim, dist, obs, platform).

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cost_model.hpp"
#include "dist/distribution.hpp"

namespace pb {

// -- clocks and process counters ---------------------------------------------

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process user + system CPU time, all threads.
[[nodiscard]] double cpu_seconds();
/// Peak resident set size of the process, MiB.
[[nodiscard]] double peak_rss_mb();

// -- thread placement --------------------------------------------------------

/// Restricts the calling thread, and every thread it creates later, to the
/// first CPU it may run on. On a virtual machine a wake-up aimed at an idle
/// virtual CPU waits for the host to schedule that CPU, a delay that varies
/// from run to run; with every thread of a run on one CPU, hand-offs between
/// client, event loop, workers and pool are plain context switches.
void pin_to_one_cpu();

// -- exact order statistics --------------------------------------------------

/// Nearest-rank quantile of an ascending sample: the smallest value with at
/// least q of the samples at or below it. Never interpolates, so it never
/// leaves [min, max].
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted,
                                     double q);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

// -- the benchmark's own spans -----------------------------------------------

/// In-memory span recorder. Spans of one request or query share `id`; the
/// whole buffer is written as Chrome Trace JSON when the run ends. When off,
/// `span()` still runs the call (and returns its duration) but keeps nothing.
class Tracer {
 public:
  struct Record {
    const char* name;
    std::uint64_t id;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  explicit Tracer(bool on) : on_(on) {}

  /// Times `fn`, records it when tracing is on, returns the duration in µs.
  double span(const char* name, std::uint64_t id,
              const std::function<void()>& fn);
  void record(const char* name, std::uint64_t id, std::uint64_t start_ns,
              std::uint64_t end_ns) {
    if (on_) spans_.push_back({name, id, start_ns, end_ns});
  }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// Writes the spans as Chrome Trace Event JSON; false when the file
  /// cannot be written.
  bool write(const std::string& path) const;

 private:
  bool on_;
  std::vector<Record> spans_;
};

// -- seeded queries ----------------------------------------------------------

/// One plan query: a jittered Table 1 law, one of the four evaluation cost
/// models, solver refined-dp at n = 1000, epsilon = 1e-7.
struct Query {
  int law = 0;          ///< index into the nine Table 1 laws
  std::string spec;     ///< "gamma:alpha=2.13,beta=1.87"
  sre::core::CostModel model;
  int model_index = 0;
};

inline constexpr std::size_t kSolverN = 1000;
inline constexpr double kEpsilon = 1e-7;

[[nodiscard]] const std::vector<sre::core::CostModel>& cost_models();
[[nodiscard]] const char* law_label(int law);
/// Number of Table 1 laws (nine).
[[nodiscard]] std::size_t law_count();

/// Query `index` of a stream: law index % 9, cost model (index / 9) % 4, so
/// every stretch of 36 queries covers each (law, model) pair once and the
/// mix is the same for every seed; the seed scales each law parameter by a
/// factor in [0.9, 1.1].
[[nodiscard]] Query draw_query(std::uint64_t seed, std::uint64_t index);
/// Uniform double in [0, 1) from (seed, stream, index).
[[nodiscard]] double unit(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

/// Zipf(s) sampler over ranks 0..n-1.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t rank(double u) const;

 private:
  std::vector<double> cdf_;
};

/// The request line body after the id: `","dist":...}`; a full line is
/// `{"id":"<id>` + body.
[[nodiscard]] std::string line_body(const Query& q);
[[nodiscard]] std::string request_line(std::uint64_t id, const Query& q);

// -- plan invariants ---------------------------------------------------------

/// What the invariants need about one query, precomputed once.
struct PlanBounds {
  double truncation = 0.0;  ///< b = Q(1 - epsilon), or the upper support end
  double a1 = 0.0;          ///< Theorem 2 bound on t1 (core::upper_bound_t1)
};
[[nodiscard]] PlanBounds plan_bounds(const sre::dist::Distribution& d,
                                     const sre::core::CostModel& m);
[[nodiscard]] PlanBounds plan_bounds(const Query& q);

/// The paper's invariants on a plan: strictly increasing and positive, its
/// last reservation covers the truncation point, E(S) >= E^o, t1 <= A1.
/// Returns "" when all hold, else the first violation.
[[nodiscard]] std::string check_plan(const std::vector<double>& plan,
                                     double expected, double omniscient,
                                     const PlanBounds& bounds);

/// Checks a served response line end to end: ok, parsable, invariants, and
/// t1 equal to the first reservation. "" when it passes.
[[nodiscard]] std::string check_served(std::string_view line,
                                       const PlanBounds& bounds,
                                       double* ratio_out = nullptr);
/// A response line with `"cached":true` rewritten to `"cached":false`.
[[nodiscard]] std::string normalize_cached(std::string line);

// -- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one run reports. `info` is an already-serialized JSON object
/// body (no braces) printed on the report line before the result line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  ///< first few, for the report
  std::vector<Metric> metrics;
  std::string info;

  void fail(std::string why);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< where the traced run writes its spans
};

/// Windows a timed phase is split into: one per second, at least 1 and at
/// most 10. Each phase reports medians over its windows, so a burst of
/// contention from a neighbouring process that spans a few windows does not
/// move the result.
[[nodiscard]] int windows_for(double phase_s);

/// Splits latency samples, in the order their requests were due, into
/// equal consecutive windows of at least kMinWindowSamples (at most 10), so
/// that every window's p99 has ten samples beyond it.
inline constexpr std::size_t kMinWindowSamples = 1100;
[[nodiscard]] std::vector<std::vector<double>> sample_windows(
    const std::vector<double>& samples);

/// Exact nearest-rank p50 and p99 of each window's latency samples, then
/// the median of each over the windows.
struct Percentiles {
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;            ///< largest sample of all windows
  std::size_t samples = 0;     ///< all windows
  std::size_t min_beyond = 0;  ///< fewest samples above a window's p99
  bool p99_within_max = true;  ///< every window's p99 <= its max
};
[[nodiscard]] Percentiles window_percentiles(
    std::vector<std::vector<double>> windows);

/// Fixed-size set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// JSON number (shortest round trip; non-finite values become null).
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(std::string_view s);
[[nodiscard]] std::string json_array(const std::vector<double>& v);

}  // namespace pb
