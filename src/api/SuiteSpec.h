//===--- SuiteSpec.h - Declarative suites of analysis jobs -----*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's headline results are not single solves but *studies*:
/// hundreds of (function × analysis × config × seed) runs. A SuiteSpec
/// is the declarative unit of such a study — plain data with full JSON
/// round-trip that either lists explicit AnalysisSpec fragments or
/// declares a matrix (subjects × tasks × config overlays × seeds)
/// expanded deterministically into a job list.
///
/// Composition rule: every job starts from the suite's `defaults`
/// fragment, deep-merged under the job's own fragment (job fields win),
/// and the merged document is validated by the ordinary
/// AnalysisSpec::fromJson. Job IDs are content-addressed — the FNV-1a
/// hash of the canonical (serialize-after-parse) spec text — so an ID is
/// stable across runs, shard assignments, and reorderings of the suite
/// file, and changing any spec field changes the ID. The resumable
/// checkpoint log keys on exactly this property.
///
/// Example:
/// \code{.json}
///   {
///     "suite": "gsl-overflow-sweep",
///     "defaults": {"search": {"starts": 2, "max_evals": 4000}},
///     "matrix": {
///       "subjects": ["bessel", "hyperg", "airy"],
///       "tasks": ["overflow"],
///       "configs": [{"overflow_metric": "absgap"}],
///       "seed_base": 100, "seed_count": 5
///     }
///   }
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef WDM_API_SUITESPEC_H
#define WDM_API_SUITESPEC_H

#include "api/AnalysisSpec.h"
#include "support/Json.h"

#include <cstdint>
#include <string>
#include <vector>

namespace wdm::api {

/// The declarative cross product: subjects × tasks × configs × seeds,
/// expanded in exactly that nesting order (seeds innermost).
struct SuiteMatrix {
  /// Builtin subject names ({"module": {"builtin": <name>}} per job).
  std::vector<std::string> Subjects;
  std::vector<TaskKind> Tasks;
  /// Partial AnalysisSpec overlays, one job per entry (e.g. different
  /// backend portfolios or budgets). Empty = a single empty overlay.
  std::vector<json::Value> Configs;
  /// Explicit seeds, then SeedBase..SeedBase+SeedCount-1. Both empty =
  /// one job whose seed comes from defaults/config (or stays unset).
  std::vector<uint64_t> Seeds;
  uint64_t SeedBase = 0;
  unsigned SeedCount = 0;

  bool empty() const { return Subjects.empty() && Tasks.empty(); }
  std::vector<uint64_t> seedList() const;
};

/// Fault-tolerance policy for suite jobs: deadlines, stall detection,
/// retry budget, and child resource limits. Declared suite-wide under
/// the top-level `"limits"` member and overridable per job (a job
/// fragment's own `"limits"` member deep-merges over the suite's); CLI
/// flags override both. Zero means "unset / no limit" throughout.
///
/// Limits are *policy*, not *work*: the `"limits"` member is stripped
/// from every merged job document before AnalysisSpec validation, so a
/// job's content-addressed ID — and therefore the resume checkpoint —
/// is independent of how the job is supervised.
struct JobLimits {
  double TimeoutSec = 0;      ///< Wall-clock deadline per attempt.
  double StallTimeoutSec = 0; ///< No output/heartbeat for N sec = stalled.
  unsigned Retries = 0;       ///< Extra attempts after the first.
  double BackoffSec = 0.5;    ///< Base retry delay (exponential + jitter).
  unsigned MemLimitMb = 0;    ///< Child RLIMIT_AS, MiB (subprocess mode).
  unsigned CpuLimitSec = 0;   ///< Child RLIMIT_CPU, sec (subprocess mode).
  unsigned MaxFailures = 0;   ///< Suite-wide fail-fast threshold.

  /// Strict parse of a `"limits"` object (null = all defaults). Unknown
  /// keys and negative values are errors.
  static Expected<JobLimits> fromJson(const json::Value &V);
};

/// One expanded, validated unit of suite work.
struct SuiteJob {
  /// Content-addressed ID: fnv1a64Hex(CanonicalSpec). Doubles as the
  /// spec hash in the checkpoint log.
  std::string Id;
  AnalysisSpec Spec;
  /// The canonical spec text (serialize-after-parse fixed point); what
  /// subprocess workers receive and what Id hashes.
  std::string CanonicalSpec;
  size_t Index = 0; ///< Position in deterministic expansion order.
  /// Effective supervision policy: suite `"limits"` deep-merged with the
  /// job fragment's own `"limits"` overlay. Not part of Id/CanonicalSpec.
  JobLimits Limits;

  /// Short human label: "task subject" ("task constraint" for fpsat).
  std::string subject() const;
};

/// A plain-data description of a whole study.
struct SuiteSpec {
  std::string Name;
  /// Partial AnalysisSpec merged under every job (explicit and matrix).
  json::Value Defaults;
  /// Raw suite-wide `"limits"` object (validated at parse; round-trips
  /// byte-wise). Per-job `"limits"` overlays merge over this at expand.
  json::Value LimitsJson;
  /// Explicit job fragments, expanded before the matrix.
  std::vector<json::Value> Jobs;
  SuiteMatrix Matrix;

  /// Appends \p Spec as an explicit job fragment.
  void addJob(const AnalysisSpec &Spec) { Jobs.push_back(Spec.toJson()); }

  /// The suite-wide limits (LimitsJson parsed; defaults when absent).
  /// Always succeeds after fromJson validated the document.
  JobLimits baseLimits() const;

  /// Deterministic expansion into validated jobs with stable IDs.
  /// \p ApplyEnvOverrides overlays $WDM_STARTS/$WDM_THREADS/$WDM_SEED
  /// onto every job's search config before canonicalization (the CLI
  /// policy), so env-steered runs get their own job IDs. Errors on
  /// invalid job specs, duplicate jobs (identical canonical spec), and
  /// empty suites.
  Expected<std::vector<SuiteJob>> expand(bool ApplyEnvOverrides = false) const;

  // -- JSON round trip --------------------------------------------------
  json::Value toJson() const;
  std::string toJsonText() const;
  static Expected<SuiteSpec> fromJson(const json::Value &V);
  static Expected<SuiteSpec> parse(std::string_view JsonText);
};

} // namespace wdm::api

#endif // WDM_API_SUITESPEC_H
