// Group Scissor benchmark: command-line entry point.
//
//   perfbench --workload <compress_lenet|serve_lenet|fleet_lenet>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload and prints, as the last line of standard output, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The untraced
// run (--trace 0) reports the end-to-end metrics; the traced run reports the
// per-layer metrics and writes its spans under .bench_build/. Exits 1 when an
// output check fails and 2 on a usage or runtime error (no result line).
// perfbench/run.py builds this program and pins GS_NUM_THREADS.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "common/thread_pool.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<compress_lenet|serve_lenet|fleet_lenet> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    char* end = nullptr;
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage();
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return usage();
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage();
      }
      options.trace = value[0] == '1';
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1) return usage();

  perfbench::Result (*run)(const perfbench::Options&) = nullptr;
  if (options.workload == "compress_lenet") {
    run = perfbench::run_compress_lenet;
  } else if (options.workload == "serve_lenet") {
    run = perfbench::run_serve_lenet;
  } else if (options.workload == "fleet_lenet") {
    run = perfbench::run_fleet_lenet;
  } else {
    return usage();
  }

  const char* threads = std::getenv("GS_NUM_THREADS");
  std::printf("perfbench %s seed %llu seconds %g trace %d; nproc %u, "
              "GS_NUM_THREADS=%s (global pool %zu)\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, std::thread::hardware_concurrency(),
              threads != nullptr ? threads : "unset",
              gs::ThreadPool::global().size());
  try {
    perfbench::Result result = run(options);
    perfbench::finalize_metrics(result, options.trace);
    perfbench::print_result(result);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
