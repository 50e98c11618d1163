// perfbench: runs one fxdist benchmark workload and prints its report.
//
//   perfbench --workload <local_zipf|remote_uniform|ingest_sweep>
//             --seed <n> --seconds <s> --trace <0|1> [--span-dir <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1).  The exit code is 0 only when every answer
// matched its oracle.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <local_zipf|remote_uniform|ingest_sweep> "
               "--seed <n> --seconds <s> --trace <0|1> [--span-dir <dir>]\n",
               argv0);
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--span-dir") {
      options.span_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || !perfbench::IsWorkload(options.workload) ||
      !(options.seconds > 0)) {
    return Usage(argv[0]);
  }
  const perfbench::RunReport report = perfbench::RunWorkload(options);
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    if (i) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
