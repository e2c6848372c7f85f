//===--- Inputs.h - Seeded workload inputs ---------------------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every input the benchmark hands to wdm is derived here from the
/// workload seed: suite documents, generated inline-IR modules, fpsat
/// constraints, the Zipf hot set and the Poisson arrival schedule. wdm
/// itself only ever sees the generated text.
///
//===----------------------------------------------------------------------===//

#ifndef WDMBENCH_INPUTS_H
#define WDMBENCH_INPUTS_H

#include "support/RNG.h"

#include <cstdint>
#include <string>
#include <vector>

namespace wdmbench {

/// One `gsl_study` suite: {bessel, hyperg, airy} x {overflow,
/// inconsistency} x \p SeedsPerBatch seeds, default search, one search
/// thread per job.
std::string gslStudySuite(uint64_t Seed, unsigned Batch,
                          unsigned SeedsPerBatch);

/// One `small_sweep` suite: 11 builtins x {boundary, coverage, overflow}
/// x {default, de, prune:sites} x \p SeedsPerBatch seeds at 300 evals.
std::string smallSweepSuite(uint64_t Seed, unsigned Batch,
                            unsigned SeedsPerBatch);

/// A generated module in wdm's textual IR: one function `f` over 1-3
/// doubles, straight-line arithmetic, if/else diamonds and bounded
/// counted loops, sized by the generator.
std::string randomModuleIr(wdm::RNG &Rand);

/// A generated CNF constraint in fpsat's s-expression form, satisfiable
/// by construction (every clause holds at a hidden point).
std::string randomConstraint(wdm::RNG &Rand);

/// Request classes of `serve_mix`.
enum class ReqClass : uint8_t { Hit, Warm, Cold };
const char *className(ReqClass C);

struct Request {
  double Due = 0; ///< Seconds after the phase start.
  ReqClass Class = ReqClass::Hit;
  std::string Body; ///< The spec JSON POSTed to /v1/run.
};

/// The `serve_mix` generator: a fixed pool of hit specs (larger than the
/// daemon's 256-entry memory LRU), seed variants for warm requests, and
/// never-seen modules/constraints for cold requests.
class ServeInputs {
public:
  explicit ServeInputs(uint64_t Seed);

  /// Specs the daemon is primed with before timing (the hit pool).
  const std::vector<std::string> &hitPool() const { return Pool; }

  /// An open-loop Poisson schedule at \p Rate req/s for \p Seconds.
  std::vector<Request> schedule(double Rate, double Seconds);

  /// One request of class \p C (draws from the generator's stream).
  std::string make(ReqClass C);

private:
  wdm::RNG Rand;
  std::vector<std::string> Pool;
  std::vector<double> ZipfCdf;
  uint64_t Unique = 0;
};

} // namespace wdmbench

#endif // WDMBENCH_INPUTS_H
