//===--- Report.h - Uniform analysis result ---------------------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The uniform result of one Analyzer run: a list of kind-tagged findings
/// (witness inputs, site ids, root causes) plus the aggregate counters
/// every task reports (Evals/Seconds/ThreadsUsed/UnsoundCandidates),
/// serialized to JSON by the same writer the benches use.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_API_REPORT_H
#define WDM_API_REPORT_H

#include "api/AnalysisSpec.h"
#include "support/Json.h"

#include <cstdint>
#include <string>
#include <vector>

namespace wdm::api {

/// One result item. The Kind tag names what the payload means:
///   "boundary"       witness input; Details.sites = boundary sites hit
///   "path"           witness input following the required path
///   "coverage-test"  one generated test input; Details.directions
///   "overflow"       SiteId/Description = the overflowing operation
///   "inconsistency"  Input replays to success-status + non-finite result;
///                    Details = {status, val, err, root_cause, bug}
///   "sat-model"      Input = verified model; Details.vars = names
struct Finding {
  std::string Kind;
  std::vector<double> Input; ///< Witness input (may be empty).
  int SiteId = -1;           ///< Site id when site-addressed, else -1.
  std::string Description;   ///< Human-readable location/cause text.
  json::Value Details;       ///< Kind-specific payload (object or null).
};

/// One site verdict of the static pre-pass worth reporting: a site the
/// search no longer has to visit.
struct StaticItem {
  std::string Kind; ///< "unreachable" | "proved_safe".
  int SiteId = -1;
  std::string Description; ///< Site/reason text.
};

/// The "static" findings section: what the absint pre-pass proved before
/// the search spent its first eval. Absent (Ran == false) when pruning is
/// off — older logs without the section parse as Ran == false, and the
/// serialized report is byte-identical to a pre-pass-free build's.
struct StaticSection {
  bool Ran = false;
  std::string Mode; ///< "sites" | "sites+box".
  unsigned SitesTotal = 0;
  unsigned SitesPruned = 0; ///< Dropped from the objective (both kinds).
  unsigned SitesProvedSafe = 0;
  /// This run's pre-pass cost (stripped by deterministic form): the
  /// prepare step's when this run did it, plus this run's box shrink. A
  /// warm run that reused an entry's prepared state counts only its shrink.
  double Seconds = 0;
  bool BoxShrunk = false;
  double BoxLo = 0; ///< Shrunken start box (valid when BoxShrunk).
  double BoxHi = 0;
  std::vector<StaticItem> Items;
};

struct Report {
  TaskKind Task = TaskKind::Boundary;
  std::string Function; ///< Subject name (constraint text for fpsat).
  /// Task-level success: witness found / all covered / any overflow /
  /// any inconsistency / sat.
  bool Success = false;
  std::vector<Finding> Findings;

  // Aggregates (uniform across tasks).
  uint64_t Evals = 0;
  double Seconds = 0;
  unsigned ThreadsUsed = 1;
  unsigned StartsUsed = 0;
  unsigned UnsoundCandidates = 0;
  double WStar = 0; ///< Smallest weak distance seen (0 when found).
  /// The highest execution tier the weak distance ran on in this run:
  /// "jit", "vm", "interp", or "native" (fpsat's CNF distance is
  /// compiled into the binary). With the engine unset this is "jit"
  /// exactly when the run's counted evaluations passed the promotion
  /// point (and the JIT took the subject), so it is deterministic.
  std::string Engine;
  /// Why a tier rejected the subject and evaluation fell below the
  /// requested tier (empty otherwise; a tiered run that cannot promote
  /// is not a fallback).
  std::string EngineFallback;

  /// Task-specific aggregate payload, e.g. {"num_ops": 23} for overflow
  /// or {"covered": 5, "total": 6} for coverage.
  json::Value Extra;

  /// What the static pre-pass proved (when search.prune enabled it).
  StaticSection Static;

  /// Telemetry snapshot of this run (obs::deltaJson of the process
  /// registry around the task), attached only when the caller enabled
  /// metrics (`wdm --metrics`, api::AnalysisOptions). Null — and absent
  /// from the JSON — by default, and stripped from the deterministic
  /// view either way: counter values include wall-clock-dependent data
  /// (timings, rates) that must not perturb report hashes.
  json::Value Metrics;

  /// Findings whose Kind == \p K.
  unsigned count(const std::string &K) const;
  const Finding *first(const std::string &K) const;

  json::Value toJson() const;
  std::string toJsonText() const;
  /// Inverse of toJson: toJson(fromJson(toJson(R))) is byte-identical to
  /// toJson(R). This is how suite checkpoints and subprocess shards hand
  /// reports back to the driver.
  static Expected<Report> fromJson(const json::Value &V);
  static Expected<Report> parse(std::string_view JsonText);
};

/// \p ReportJson with the wall-clock fields removed: top-level "seconds",
/// the inconsistency task's "extra"."detector_seconds", the static
/// pre-pass's "static"."seconds", and the optional telemetry "metrics"
/// section (timings and rates live there). What remains
/// is deterministic for a fixed spec — it is the payload the suite
/// layer's report_hash covers, and the identity bar across
/// inprocess/subprocess/shard-count run configurations.
json::Value deterministicReportJson(const json::Value &ReportJson);

} // namespace wdm::api

#endif // WDM_API_REPORT_H
