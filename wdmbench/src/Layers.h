//===--- Layers.h - Per-layer probes of the traced run ---------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times calls into each module's public functions from the benchmark's
/// own code, on a sample of the workload's own inputs. Nothing here adds
/// a span inside wdm; the obs spans and counters wdm already has are
/// only read.
///
//===----------------------------------------------------------------------===//

#ifndef WDMBENCH_LAYERS_H
#define WDMBENCH_LAYERS_H

#include "Common.h"

#include "support/Json.h"

#include <cstdint>
#include <string>
#include <vector>

namespace wdmbench {

struct LayerInputs {
  /// Spec JSON documents sampled from the workload's inputs.
  std::vector<std::string> Specs;
  /// The spec whose search trajectory is recorded and replayed through
  /// every execution tier.
  std::string TrajectorySpec;
  /// A suite document of the workload (or its sample as explicit jobs).
  std::string SuiteText;
  std::string WorkDir;
  uint64_t Seed = 0;
};

/// Runs every module-level probe and reports the metrics into \p Out.
/// Outputs the probes can cross-check (tier bit-identity of replayed
/// weak distances, HTTP statuses) count as failures in \p Out.
void runLayerProbes(const LayerInputs &In, Result &Out);

/// What a traced workload run measured, turned into the shared metrics:
/// core/opt/analyses ratios from obs counters and spans, layer self
/// times, and trace coverage against \p OperationMs (the summed time of
/// the operations the benchmark timed from outside).
struct TracedRun {
  wdm::json::Value Trace;          ///< obs::traceJson() of the run.
  wdm::json::Value CounterDelta;   ///< obs::deltaJson around the run.
  double OperationMs = 0;
  uint64_t Jobs = 0;
  uint64_t Findings = 0;
  uint64_t Evals = 0;
  double EvalNs = 0;   ///< exec.eval_ns of the tier the reports used.
  double VerifyUs = 0; ///< Interpreter replay cost per witness.
};
void reportTracedRun(const TracedRun &T, Result &Out);

} // namespace wdmbench

#endif // WDMBENCH_LAYERS_H
