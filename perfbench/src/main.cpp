// perfbench: runs one workload at one seed and prints two JSON lines on
// stdout, a report (configuration, sample counts, violations) and then the
// result. Exit status 0 when every output checked was correct, 1 when a
// check failed, 2 on a usage or set-up error (no result printed).
//
//   perfbench --workload serve_cold --seed 7 --seconds 10 --trace 0
//             [--trace-out spans.json]

#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

void usage() {
  std::cerr << "usage: perfbench"
               " --workload serve_cold|serve_hot|sweep"
               " --seed N --seconds S --trace 0|1 [--trace-out PATH]\n";
}

bool parse(int argc, char** argv, pb::Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

std::string metrics_json(const pb::Result& res) {
  std::string out = "{";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const pb::Metric& m = res.metrics[i];
    if (i != 0) out += ",";
    out += pb::json_string(m.name) + ":{\"value\":" + pb::json_number(m.value) +
           ",\"unit\":" + pb::json_string(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  try {
    if (!parse(argc, argv, args)) {
      usage();
      return 2;
    }
  } catch (const std::exception&) {
    usage();
    return 2;
  }

  pb::pin_to_one_cpu();

  pb::Result res;
  try {
    res = args.workload == "sweep" ? pb::run_sweep(args) : pb::run_serve(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  std::string violations = "[";
  for (std::size_t i = 0; i < res.violations.size(); ++i) {
    if (i != 0) violations += ",";
    violations += pb::json_string(res.violations[i]);
  }
  violations += "]";
  const bool correct = res.failed == 0;
  std::cout << "{\"report\":{\"workload\":" << pb::json_string(args.workload)
            << ",\"seed\":" << args.seed
            << ",\"seconds\":" << pb::json_number(args.seconds)
            << ",\"trace\":" << (args.trace ? 1 : 0)
            << ",\"setup_repeats\":" << pb::kSetupRepeats << ","
            << res.info << ",\"violations\":" << violations << "}}\n";
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << res.attempted
            << ",\"failed\":" << res.failed
            << ",\"metrics\":" << metrics_json(res) << "}\n";
  return correct ? 0 : 1;
}
