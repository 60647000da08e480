// perfbench: runs one benchmark workload and prints its result.
//
//   perfbench --workload raster|serving|pagerank|matmul --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--trace-dir DIR]
//             [--corrupt-op K]
//
// Prints a provenance line and, last, one JSON result line. Exits 1 when
// any answer fails its check. Normally started by run.py, which builds
// this binary first.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

std::string SiblingExecutord() {
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return "";
  std::string path(exe, static_cast<size_t>(n));
  return path.substr(0, path.rfind('/') + 1) + "spangle_executord";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload raster|serving|pagerank|matmul "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--trace-dir DIR] [--corrupt-op K]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else if (key == "--corrupt-op") {
      args.corrupt_op = std::strtoll(value.c_str(), nullptr, 10);
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1) return Usage();
  args.executord = SiblingExecutord();
  // Daemons and any engine-created temp dir land in the benchmark's own
  // work dir.
  ::setenv("TMPDIR", args.work_dir.c_str(), 1);

  perfbench::Report report;
  if (args.workload == "raster") {
    perfbench::RunRaster(args, &report);
  } else if (args.workload == "serving") {
    perfbench::RunServing(args, &report);
  } else if (args.workload == "pagerank") {
    perfbench::RunPagerank(args, &report);
  } else if (args.workload == "matmul") {
    perfbench::RunMatmul(args, &report);
  } else {
    return Usage();
  }
  if (report.failed > 0) report.correct = false;
  report.Print(args);
  return report.correct ? 0 : 1;
}
