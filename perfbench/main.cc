// oblivbench: the repository benchmark's measuring program.  run.py builds
// it and is the command to use; see perfbench/README.md.
//
//   oblivbench --workload paper_join|skew_join|served_mix --seed N
//              --seconds S --trace 0|1 [--smoke] [--setup-only] [--calibrate]
//
// Prints span lines (traced runs) and, as its last line, one JSON object:
// correct / attempted / failed / metrics / machine.  Exits 1 when a
// correctness gate fails, 2 on a usage or environment error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/thread_pool.h"
#include "workloads.h"

extern char** environ;

namespace {

// OBLIVDB_* variables silently change the program being measured; only
// OBLIVDB_THREADS equal to nproc (the default pool size) is accepted.
bool EnvironmentIsClean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "OBLIVDB_", 8) != 0) continue;
    const std::string var(*e);
    if (var == "OBLIVDB_THREADS=" + std::to_string(perfbench::Nproc())) continue;
    std::fprintf(stderr, "refusing to run: %s changes the measured program\n",
                 var.c_str());
    clean = false;
  }
  return clean;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--workload" && next) {
      o.workload = argv[++i];
    } else if (a == "--seed" && next) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && next) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && next) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else if (a == "--calibrate") {
      o.calibrate = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return 2;
    }
  }
  if (!EnvironmentIsClean()) return 2;
  const bool solo = o.workload == "paper_join" || o.workload == "skew_join";
  if (!solo && o.workload != "served_mix") {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  if (!(o.seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  perfbench::Result result;
  if (solo) {
    perfbench::RunSolo(o, result);
  } else {
    perfbench::RunServed(o, result);
  }
  result.Describe("workload", perfbench::JsonString(o.workload));
  result.Describe("seed", std::to_string(o.seed));
  result.Describe("nproc", std::to_string(perfbench::Nproc()));
  result.Describe("pool_workers",
                  std::to_string(oblivdb::ThreadPool::Global().worker_count()));
  result.Describe("compiler", perfbench::JsonString(__VERSION__));
  result.Describe("build_type", perfbench::JsonString(OBLIVBENCH_BUILD_TYPE));
  result.Print();
  return result.correct() ? 0 : 1;
}
