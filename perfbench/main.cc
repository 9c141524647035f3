// perfbench: the repository's end-to-end benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Runs one workload in this process and prints, as the last line of
// standard output, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits non-zero when an argument is bad or a check fails to run.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "basket_static_read|census_durable_rw|basket_serve_zipf "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

bool ParseU64(const char* text, uint64_t* value) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *value = v;
  return true;
}

void PrintResult(const Outcome& outcome, bool trace) {
  const Metrics& metrics = trace ? outcome.per_layer : outcome.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  bool first = true;
  for (const auto& [name, value_unit] : metrics.entries()) {
    const double value =
        std::isfinite(value_unit.first) ? value_unit.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value,
                value_unit.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  args.process_start = Clock::now();
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value after " + flag).c_str());
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &args.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseU64(value, &number) || number == 0 || number > 600) {
        return Usage("--seconds must be 1..600");
      }
      args.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace must be 0 or 1");
      }
      args.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) return Usage(("cannot create " + args.out_dir).c_str());

  Outcome outcome;
  if (args.workload == "basket_static_read") {
    outcome = RunBasketStaticRead(args);
  } else if (args.workload == "census_durable_rw") {
    outcome = RunCensusDurableRw(args);
  } else if (args.workload == "basket_serve_zipf") {
    outcome = RunBasketServeZipf(args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (!outcome.finished) {
    std::fprintf(stderr, "perfbench: %s did not run to its end\n",
                 args.workload.c_str());
    return 1;
  }
  if (args.trace) outcome.per_layer.Set("trace.span_ns", MeasureSpanNs(), "ns");
  if (outcome.attempted == 0) outcome.Fail("no operation was attempted");
  PrintResult(outcome, args.trace);
  return 0;
}
