// perfbench: the repo benchmark's runner binary. Runs one workload with a
// given seed and prints its metrics (see ../NOTES.md for what each
// workload and metric means). Normally invoked through ../run.py:
//
//   perfbench --workload serve_mix|serve_tiny|stream_journal --seed N
//             --seconds S --trace 0|1 --workdir DIR [--trace-out FILE]
//
// Exit code 0 when every correctness check passed, 1 when one failed,
// 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const std::map<std::string, std::function<void(const RunOptions&, Report*)>>
      workloads = {{"serve_mix", run_serve_mix},
                   {"serve_tiny", run_serve_tiny},
                   {"stream_journal", run_stream_journal}};
  const auto it = workloads.find(workload);
  if (it == workloads.end() || options.workdir.empty() ||
      !(options.seconds > 0.0) ||
      (options.trace && options.trace_out.empty())) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve_mix|serve_tiny|"
                 "stream_journal --seed N --seconds S --trace 0|1 "
                 "--workdir DIR [--trace-out FILE]\n");
    return 2;
  }
  Report report;
  it->second(options, &report);
  report.set("peak_rss_mb", peak_rss_mb(), "MiB");
  report.print(stdout, workload);
  return report.correct() ? 0 : 1;
}
