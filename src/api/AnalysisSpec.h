//===--- AnalysisSpec.h - Declarative unit of analysis work ----*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serializable unit of work behind wdm::api: one AnalysisSpec fully
/// describes one analysis run — which reduction instance to solve
/// (boundary | path | coverage | overflow | inconsistency | fpsat), on
/// which module/function, with which task parameters and search
/// configuration. Specs parse from and serialize to JSON, so they can be
/// checked into a repo, shipped over a wire, or fanned out across
/// processes — the seam the ROADMAP's sharding driver needs.
///
/// Example:
/// \code{.json}
///   {
///     "task": "boundary",
///     "module": {"builtin": "sin"},
///     "function": "sin",
///     "search": {"seed": 2019, "max_evals": 30000}
///   }
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef WDM_API_ANALYSISSPEC_H
#define WDM_API_ANALYSISSPEC_H

#include "support/Error.h"
#include "support/Json.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace wdm::core {
struct SearchOptions;
} // namespace wdm::core

namespace wdm::vm {
enum class EngineKind : uint8_t;
} // namespace wdm::vm

namespace wdm::api {

/// The six analysis problems Algorithm 2 uniformly solves.
enum class TaskKind : uint8_t {
  Boundary,      ///< Instance 1: boundary value analysis.
  Path,          ///< Instance 2: path reachability.
  Coverage,      ///< Instance 4: branch-coverage-based testing.
  Overflow,      ///< Instance 3: floating-point overflow detection.
  Inconsistency, ///< Section 6.3.2: overflow + GSL status replay.
  FpSat,         ///< Instance 5: XSat-style FP satisfiability.
};

const char *taskKindName(TaskKind K);
/// Parses "boundary", "path", ...; false on unknown names.
bool taskKindByName(const std::string &Name, TaskKind &Out);

/// The static pre-pass modes (ISSUE: "search.prune").
enum class PruneMode : uint8_t { Off, Sites, SitesBox };

const char *pruneModeName(PruneMode M);
/// Parses "off", "sites", "sites+box"; false on unknown names.
bool pruneModeByName(const std::string &Name, PruneMode &Out);

/// Rejects the value \p N of unsigned spec field \p Field when it is
/// negative, not an integer, or above its bound: 65536 "starts", 256
/// "threads", UINT64_MAX for "max_evals" and "seed", and UINT32_MAX for
/// every other field ("batch", "nfp", "max_stall", a path leg's
/// "branch"), whose members are unsigned. Starts are planned up front
/// and threads are OS threads, so a count far beyond any real run only
/// exhausts the process (or the daemon serving it); an out-of-range
/// value would otherwise narrow or read as 0. \p N is a double so that a
/// JSON number of any form compares exactly.
Status checkSearchCount(const std::string &Field, double N);

/// Where the subject module comes from. Builtin names resolve through
/// api::buildBuiltinSubject (the GSL models and the subjects/ corpus,
/// which exist only as builder code, not as text).
struct ModuleSource {
  enum class Kind : uint8_t { None, File, Inline, Builtin };
  Kind K = Kind::None;
  std::string Text; ///< Path, inline IR text, or builtin name.

  static ModuleSource file(std::string Path);
  static ModuleSource inlineText(std::string Ir);
  static ModuleSource builtin(std::string Name);
};

/// The unified search configuration. Every field is optional: unset
/// fields defer to the task's own defaults (the direct-class defaults),
/// so a spec that pins only {seed, max_evals} reproduces a direct
/// BoundaryAnalysis::findOne run with those two knobs bit-for-bit.
struct SearchConfig {
  std::optional<uint64_t> MaxEvals; ///< Total eval budget (per round for
                                    ///< overflow/inconsistency).
  std::optional<unsigned> Starts;
  std::optional<uint64_t> Seed;
  std::optional<double> StartLo;
  std::optional<double> StartHi;
  std::optional<double> WildStartProb;
  std::optional<unsigned> Threads;
  /// Evaluation block size for the population backends (JSON "batch",
  /// CLI --batch=). 0 = auto: each search worker adopts its evaluator's
  /// preferred size — 32 on the VM tier, 8 on the interpreter. Results
  /// are bit-for-bit invariant in this knob.
  std::optional<unsigned> Batch;
  /// Backend portfolio by name: "basinhopping", "de", "neldermead",
  /// "powell", "random", "ulp". Empty = the paper's default
  /// (basinhopping only).
  std::vector<std::string> Backends;
  /// Weak-distance execution tier: "interp" | "vm" | "jit". Empty =
  /// unset, which resolves to tiered execution: start on the VM and
  /// move to the JIT once the run is hot (Report.engine names the tier
  /// the run reached). A pinned "jit" parses on every platform; where
  /// the native tier is unavailable (or rejects the subject) the chain
  /// degrades jit -> vm -> interp automatically and the Report says so
  /// via engine/engine_fallback. Ignored by fpsat, whose CNF distance
  /// is native code already.
  std::string Engine;
  /// Static pre-pass (src/absint/): "off" | "sites" | "sites+box".
  /// Empty = unset, which resolves per task (see effectivePruneMode).
  /// "sites" classifies the instrumented sites and drops proved ones
  /// from the search objective; "sites+box" additionally shrinks the
  /// start box to the slices from which a target is still feasible.
  /// "off" is the paper-exact search. The intervals are rounded outward,
  /// so a dropped site provably cannot fire and no finding is lost; the
  /// remaining rounds draw a shifted RNG stream, so individual witnesses
  /// may differ from an "off" run.
  std::string Prune;

  /// The resolved execution tier (unset maps to vm::EngineKind::Tiered).
  vm::EngineKind engineKind() const;

  /// The shared env-override policy of the CLI, examples, and benches:
  /// a config whose Starts/Threads/Seed are set from $WDM_STARTS /
  /// $WDM_THREADS / $WDM_SEED when those are present (unset otherwise).
  static SearchConfig fromEnv();

  /// Overlays $WDM_STARTS/$WDM_THREADS/$WDM_SEED onto this config (env
  /// wins — the knobs exist to steer checked-in specs from outside).
  void applyEnv();

  /// Overwrites the set fields onto \p Opts, leaving the rest at the
  /// caller's defaults.
  void applyTo(core::SearchOptions &Opts) const;
};

/// One required branch direction of a path spec, naming the branch by
/// its condbr index in the function's layout order.
struct PathLegSpec {
  unsigned Branch = 0;
  bool Taken = true;
};

/// A plain-data description of one unit of analysis work.
struct AnalysisSpec {
  TaskKind Task = TaskKind::Boundary;
  ModuleSource Module;
  /// Subject function name; may be empty for builtin modules (the
  /// builtin's primary function) and is unused for fpsat.
  std::string Function;

  // -- Task-specific parameters -----------------------------------------
  /// fpsat: the s-expression constraint text.
  std::string Constraint;
  /// fpsat: "ulp" (default) or "abs" distance metric.
  std::string SatMetric;
  /// path: required branch directions.
  std::vector<PathLegSpec> Path;
  /// boundary: "product" (default) | "min" | "minulp".
  std::string BoundaryForm;
  /// overflow/inconsistency: "ulpgap" | "absgap". Defaults: overflow
  /// uses "ulpgap" (the OverflowDetector default), inconsistency uses
  /// "absgap" (the paper-faithful Table 3/5 configuration).
  std::string OverflowMetric;
  /// overflow/inconsistency: Algorithm 3's nFP — maximum rounds (0 = one
  /// round per site, the run-to-completion default).
  unsigned NFP = 0;
  /// coverage: consecutive fruitless attempts before stopping.
  std::optional<unsigned> MaxStall;
  /// inconsistency: extra inputs replayed through the checker in
  /// addition to the detector's findings (e.g. the airy bug probes).
  std::vector<std::vector<double>> Probes;
  /// inconsistency on file/inline modules: names of the val/err result
  /// globals (builtin GSL subjects carry their own slots).
  std::string ValGlobal;
  std::string ErrGlobal;

  SearchConfig Search;

  // -- JSON round trip --------------------------------------------------
  json::Value toJson() const;
  std::string toJsonText() const;
  static Expected<AnalysisSpec> fromJson(const json::Value &V);
  static Expected<AnalysisSpec> parse(std::string_view JsonText);
};

/// The pre-pass mode \p Spec runs with. An explicit search.prune wins.
/// Unset resolves to Sites for the two Algorithm 3 tasks (overflow and
/// inconsistency), where retiring provably futile rounds costs less than
/// it saves, and to Off for every other task, whose short runs cannot
/// earn the pre-pass back. Unset stays absent from the spec's JSON, so
/// spec hashes and warm keys do not depend on this default.
PruneMode effectivePruneMode(const AnalysisSpec &Spec);

/// The human label of a spec's subject: the module source text, or the
/// constraint for the module-free fpsat task. The one spelling shared
/// by suite events, reports, and the CLI.
inline const std::string &subjectText(const AnalysisSpec &Spec) {
  return Spec.Task == TaskKind::FpSat ? Spec.Constraint
                                      : Spec.Module.Text;
}

} // namespace wdm::api

#endif // WDM_API_ANALYSISSPEC_H
