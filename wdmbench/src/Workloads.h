//===--- Workloads.h - The three benchmark workloads -----------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#ifndef WDMBENCH_WORKLOADS_H
#define WDMBENCH_WORKLOADS_H

#include "Common.h"

#include <cstdint>
#include <string>

namespace wdmbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WdmExe = WDMBENCH_WDM_EXE; ///< serve_mix's daemon binary.
  std::string WorkDir; ///< Working files, inside the checkout.
  std::string Oracle;  ///< The gsl_study expected-answer file.
};

/// gsl_study and small_sweep: suites through the in-process JobScheduler.
void runSuiteWorkload(const Options &O, Result &Out);

/// serve_mix: an open-loop request stream against a `wdm serve` child.
void runServeMix(const Options &O, Result &Out);

} // namespace wdmbench

#endif // WDMBENCH_WORKLOADS_H
