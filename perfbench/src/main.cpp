// perfbench/src/main.cpp
//
// The repo benchmark's entry point:
//
//   perfbench --workload <serve|churn_local|flash_hrw> --seed <n>
//             --seconds <s> --trace <0|1> [--threads <n>]
//
// (--workload event_cost and --threads give the README's ungated
// reference figures.)
// Runs one workload, prints notes, then one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Untraced runs report the end-to-end metrics; traced runs attach the
// timestamping sink and report the per-layer metrics instead.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

std::string metrics_json(const std::vector<Result::Metric>& metrics) {
  std::ostringstream json;
  json.precision(10);
  json << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
         << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}";
  return json.str();
}

}  // namespace perfbench

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <serve|churn_local|flash_hrw|"
               "event_cost> --seed <n> --seconds <s> --trace <0|1> "
               "[--threads <n>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--threads") {
      config.threads = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || config.seconds <= 0.0) return usage();

  perfbench::Result result;
  try {
    if (workload == "serve") {
      result = perfbench::run_serve(config);
    } else if (workload == "churn_local") {
      result = perfbench::run_churn_local(config);
    } else if (workload == "flash_hrw") {
      result = perfbench::run_flash_hrw(config);
    } else if (workload == "event_cost") {
      result = perfbench::run_event_cost(config);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " threw: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& note : result.notes) std::cout << note << "\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << perfbench::metrics_json(result.metrics)
            << "}" << std::endl;
  return 0;
}
