//===--- main.cpp - The wdmbench program ----------------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
//
// wdmbench --workload <gsl_study|small_sweep|serve_mix> --seed <n>
//          --seconds <s> --trace <0|1> --wdm <wdm cli> --work-dir <dir>
//          --oracle <expected-answer file>
//
// Prints an info line and then one JSON result line; exits 1 when any
// output was incorrect and 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdlib>
#include <filesystem>
#include <iostream>

using namespace wdmbench;

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      O.Workload = V;
    else if (K == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      O.Trace = V == "1";
    else if (K == "--wdm")
      O.WdmExe = V;
    else if (K == "--work-dir")
      O.WorkDir = V;
    else if (K == "--oracle")
      O.Oracle = V;
    else {
      std::cerr << "wdmbench: unknown argument " << K << "\n";
      return 2;
    }
  }
  if (O.WorkDir.empty() || O.Seconds <= 0) {
    std::cerr << "wdmbench: --work-dir and --seconds are required\n";
    return 2;
  }
  std::filesystem::create_directories(O.WorkDir);

  Result Out;
  Out.info("workload", wdm::json::Value::string(O.Workload));
  Out.info("seed", wdm::json::Value::number(O.Seed));
  if (O.Workload == "gsl_study" || O.Workload == "small_sweep")
    runSuiteWorkload(O, Out);
  else if (O.Workload == "serve_mix")
    runServeMix(O, Out);
  else {
    std::cerr << "wdmbench: unknown workload '" << O.Workload << "'\n";
    return 2;
  }
  if (!O.Trace)
    Out.metric("ok_frac",
               1.0 - static_cast<double>(Out.failures()) /
                         static_cast<double>(std::max<uint64_t>(
                             Out.attemptedCount(), 1)),
               "frac");
  int Rc = Out.finish();
  std::error_code EC;
  std::filesystem::remove_all(O.WorkDir, EC);
  return Rc;
}
