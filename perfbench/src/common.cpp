#include "common.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "core/bounds.hpp"
#include "obs/report.hpp"
#include "platform/cli.hpp"
#include "sim/discretize.hpp"
#include "sim/rng.hpp"

namespace pb {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter carries over the peak of
  // the process image this one was exec'ed from (the launching script).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    CPU_ZERO(&set);
    CPU_SET(c, &set);
    sched_setaffinity(0, sizeof(set), &set);
    return;
  }
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// -- spans -------------------------------------------------------------------

double Tracer::span(const char* name, std::uint64_t id,
                    const std::function<void()>& fn) {
  const std::uint64_t t0 = now_ns();
  fn();
  const std::uint64_t t1 = now_ns();
  record(name, id, t0, t1);
  return 1e-3 * static_cast<double>(t1 - t0);
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (i != 0) out << ',';
    out << "\n{\"name\":\"" << r.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":"
        << json_number(1e-3 * static_cast<double>(r.start_ns - base))
        << ",\"dur\":"
        << json_number(1e-3 * static_cast<double>(r.end_ns - r.start_ns))
        << ",\"args\":{\"id\":" << r.id << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// -- queries -----------------------------------------------------------------

namespace {

struct LawSpec {
  const char* label;
  const char* name;
  std::vector<std::pair<const char*, double>> params;
};

// Table 1 of the paper, in row order (TruncatedNormal: sigma^2 = 2).
const std::vector<LawSpec>& laws() {
  static const std::vector<LawSpec> table = {
      {"Exponential", "exponential", {{"lambda", 1.0}}},
      {"Weibull", "weibull", {{"lambda", 1.0}, {"kappa", 0.5}}},
      {"Gamma", "gamma", {{"alpha", 2.0}, {"beta", 2.0}}},
      {"Lognormal", "lognormal", {{"mu", 3.0}, {"sigma", 0.5}}},
      {"TruncatedNormal", "truncatednormal",
       {{"mu", 8.0}, {"sigma", std::sqrt(2.0)}, {"a", 0.0}}},
      {"Pareto", "pareto", {{"nu", 1.5}, {"alpha", 3.0}}},
      {"Uniform", "uniform", {{"a", 10.0}, {"b", 20.0}}},
      {"Beta", "beta", {{"alpha", 2.0}, {"beta", 2.0}}},
      {"BoundedPareto",
       "boundedpareto",
       {{"l", 1.0}, {"h", 20.0}, {"alpha", 2.1}}},
  };
  return table;
}

}  // namespace

const std::vector<sre::core::CostModel>& cost_models() {
  // The four evaluation cost models of the serving benches: reservation
  // only, pay-per-use, pay-per-use with start-up cost, and a NeuroHPC-like
  // wait-time fit.
  static const std::vector<sre::core::CostModel> models = {
      sre::core::CostModel::reservation_only(),
      {1.0, 1.0, 0.0},
      {1.0, 1.0, 1.0},
      {0.95, 1.0, 1.05},
  };
  return models;
}

std::size_t law_count() { return laws().size(); }

const char* law_label(int law) {
  return laws()[static_cast<std::size_t>(law)].label;
}

double unit(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  std::uint64_t state = sre::sim::substream_seed(
      sre::sim::substream_seed(seed, stream), index);
  const std::uint64_t bits = sre::sim::splitmix64(state) >> 11;
  return static_cast<double>(bits) * 0x1.0p-53;
}

Query draw_query(std::uint64_t seed, std::uint64_t index) {
  constexpr std::uint64_t kJitterStream = 13;
  Query q;
  q.law = static_cast<int>(index % laws().size());
  q.model_index =
      static_cast<int>((index / laws().size()) % cost_models().size());
  q.model = cost_models()[static_cast<std::size_t>(q.model_index)];
  const LawSpec& law = laws()[static_cast<std::size_t>(q.law)];
  q.spec = law.name;
  char sep = ':';
  std::uint64_t k = 0;
  for (const auto& [key, base] : law.params) {
    const double jitter =
        0.9 + 0.2 * unit(seed, kJitterStream, index * 8 + k++);
    q.spec += sep;
    q.spec += key;
    q.spec += '=';
    q.spec += sre::obs::format_double(base * jitter);
    sep = ',';
  }
  return q;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::rank(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

std::string line_body(const Query& q) {
  using sre::obs::format_double;
  std::string l = "\",\"dist\":\"" + q.spec;
  l += "\",\"cost\":{\"alpha\":" + format_double(q.model.alpha);
  l += ",\"beta\":" + format_double(q.model.beta);
  l += ",\"gamma\":" + format_double(q.model.gamma);
  l += "},\"solver\":\"refined-dp\",\"n\":" + std::to_string(kSolverN);
  l += ",\"epsilon\":" + format_double(kEpsilon) + "}";
  return l;
}

std::string request_line(std::uint64_t id, const Query& q) {
  return "{\"id\":\"" + std::to_string(id) + line_body(q);
}

// -- invariants --------------------------------------------------------------

PlanBounds plan_bounds(const sre::dist::Distribution& d,
                       const sre::core::CostModel& m) {
  return {sre::sim::truncation_point(d, kEpsilon),
          sre::core::upper_bound_t1(d, m)};
}

PlanBounds plan_bounds(const Query& q) {
  std::string err;
  const auto d = sre::platform::parse_distribution_spec(q.spec, &err);
  if (!d) return {std::nan(""), std::nan("")};
  return plan_bounds(*d, q.model);
}

std::string check_plan(const std::vector<double>& plan, double expected,
                       double omniscient, const PlanBounds& bounds) {
  if (plan.empty()) return "empty plan";
  if (!(plan.front() > 0.0)) return "non-positive first reservation";
  for (std::size_t i = 1; i < plan.size(); ++i) {
    if (!(plan[i] > plan[i - 1])) return "plan not strictly increasing";
  }
  if (!(plan.back() >= bounds.truncation)) {
    return "last reservation below the truncation point";
  }
  if (!(expected >= omniscient)) return "E(S) below the omniscient E^o";
  if (!(plan.front() <= bounds.a1)) return "t1 above the Theorem 2 bound A1";
  return {};
}

namespace {

/// Facts parsed from a served response line.
struct ServedPlan {
  std::vector<double> plan;
  double t1 = 0.0;
  double expected = 0.0;
  double omniscient = 0.0;
};

bool number_after(std::string_view line, std::string_view key, double& out) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return false;
  const std::size_t from = at + key.size();
  // Every line is a view into a std::string, so strtod stops at that
  // string's terminator at the latest.
  const char* begin = line.data() + from;
  char* stop = nullptr;
  out = std::strtod(begin, &stop);
  return stop != begin;
}

/// Parses "t1", "plan", "expected_cost" and "omniscient_cost" out of a
/// successful response line; false when a field is missing.
bool parse_served(std::string_view line, ServedPlan& out) {
  out.plan.clear();
  if (!number_after(line, "\"t1\":", out.t1)) return false;
  std::size_t pos = line.find("\"plan\":[");
  if (pos == std::string_view::npos) return false;
  pos += 8;
  while (pos < line.size() && line[pos] != ']') {
    const char* begin = line.data() + pos;
    char* stop = nullptr;
    const double v = std::strtod(begin, &stop);
    if (stop == begin) return false;
    out.plan.push_back(v);
    pos += static_cast<std::size_t>(stop - begin);
    if (pos < line.size() && line[pos] == ',') ++pos;
  }
  return number_after(line, "\"expected_cost\":", out.expected) &&
         number_after(line, "\"omniscient_cost\":", out.omniscient);
}

}  // namespace

std::string check_served(std::string_view line, const PlanBounds& bounds,
                         double* ratio_out) {
  if (line.find("\"ok\":true") == std::string_view::npos) {
    return "response not ok: " + std::string(line.substr(0, 160));
  }
  ServedPlan sp;
  if (!parse_served(line, sp)) return "unparsable result";
  std::string why = check_plan(sp.plan, sp.expected, sp.omniscient, bounds);
  if (why.empty() && sp.t1 != sp.plan.front()) why = "t1 differs from plan[0]";
  if (ratio_out != nullptr) *ratio_out = sp.expected / sp.omniscient;
  return why;
}

std::string normalize_cached(std::string line) {
  const auto pos = line.find("\"cached\":true");
  if (pos != std::string::npos) line.replace(pos, 13, "\"cached\":false");
  return line;
}

// -- results -----------------------------------------------------------------

void Result::fail(std::string why) {
  ++failed;
  if (violations.size() < 8) violations.push_back(std::move(why));
}

int windows_for(double phase_s) {
  return std::clamp(static_cast<int>(phase_s + 0.5), 1, 10);
}

std::vector<std::vector<double>> sample_windows(
    const std::vector<double>& samples) {
  const std::size_t n =
      std::clamp<std::size_t>(samples.size() / kMinWindowSamples, 1, 10);
  std::vector<std::vector<double>> out(n);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out[i * n / samples.size()].push_back(samples[i]);
  }
  return out;
}

Percentiles window_percentiles(std::vector<std::vector<double>> windows) {
  Percentiles out;
  std::vector<double> p50s, p99s;
  bool first = true;
  for (auto& w : windows) {
    if (w.empty()) continue;
    std::sort(w.begin(), w.end());
    const double p99 = quantile_sorted(w, 0.99);
    const auto beyond = static_cast<std::size_t>(
        w.end() - std::upper_bound(w.begin(), w.end(), p99));
    p50s.push_back(quantile_sorted(w, 0.50));
    p99s.push_back(p99);
    out.max = std::max(out.max, w.back());
    out.samples += w.size();
    out.min_beyond = first ? beyond : std::min(out.min_beyond, beyond);
    out.p99_within_max = out.p99_within_max && p99 <= w.back();
    first = false;
  }
  out.p50 = median(p50s);
  out.p99 = median(p99s);
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return sre::obs::format_double(v);
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += json_number(v[i]);
  }
  return out + "]";
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace pb
