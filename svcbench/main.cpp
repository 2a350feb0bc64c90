// svcbench: the service benchmark's client-side binary.
//
//   svcbench load  --dir D --port P --server-pid PID --conns N
//                  [--warmup S] [--seconds S] [--drain S]
//   svcbench check --dir D [--trace] [--sample N]
//
// run.py drives both; see README.md.
#include <exception>
#include <iostream>
#include <string>

#include "bench_io.h"

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "load") return svcbench::run_load(argc - 1, argv + 1);
    if (mode == "check") return svcbench::run_check(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::cerr << "svcbench " << mode << ": " << e.what() << "\n";
    return 2;
  }
  std::cerr << "usage: svcbench load|check [--flags]\n";
  return 2;
}
