//===--- Analyzer.h - Spec in, report out ----------------------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one entry point of wdm::api: an Analyzer owns module parsing,
/// builtin-subject construction, backend minting, and task dispatch, so
/// running any of the six analyses is
///
/// \code
///   api::AnalysisSpec Spec;
///   Spec.Task = api::TaskKind::Boundary;
///   Spec.Module = api::ModuleSource::builtin("sin");
///   Spec.Search.Seed = 2019;
///   Expected<api::Report> R = api::Analyzer::analyze(Spec);
/// \endcode
///
/// Every run takes one path: validate the spec, resolve it into a
/// WarmEntry (a WarmCache's entry when one is attached and the spec is
/// warmable, a fresh local one otherwise), and switch on the task kind
/// to its adapter, which prepares once per entry and searches every
/// run (see Warm.h).
///
/// Error contract: every error run() returns is a spec error — a bad
/// field, an unknown builtin or backend, an unreadable or unparseable
/// module, a path leg out of range. `wdm run` exits 2 on it and `wdm
/// serve` answers 400. A new error added here must be one too.
///
/// The fine-grained classes (BoundaryAnalysis, OverflowDetector, ...)
/// remain public for callers that need recorders or incremental control;
/// the Analyzer is the uniform, serializable surface over them.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_API_ANALYZER_H
#define WDM_API_ANALYZER_H

#include "api/AnalysisSpec.h"
#include "api/Report.h"
#include "api/Warm.h"

#include <memory>

namespace wdm::api {

class Analyzer {
public:
  explicit Analyzer(AnalysisSpec Spec) : Spec(std::move(Spec)) {}

  const AnalysisSpec &spec() const { return Spec; }

  /// Attaches a warm-state cache (service mode): when the spec is
  /// warmable, run() reuses the cached resolved module and prepared
  /// analysis state instead of resolving/instrumenting/lowering from
  /// scratch. The cache must outlive the Analyzer. Null detaches.
  Analyzer &setWarmCache(WarmCache *WC) {
    Warm = WC;
    return *this;
  }

  /// True when the last run() reused a ready warm entry.
  bool lastRunWarm() const { return WasWarm; }

  /// Resolves the module and function, constructs the backends, and
  /// dispatches to the task adapter. Wall-clock Seconds covers the whole
  /// run including parsing and instrumentation. Errors are spec errors
  /// (see the file comment).
  Expected<Report> run();

  /// One-shot convenience.
  static Expected<Report> analyze(const AnalysisSpec &Spec) {
    return Analyzer(Spec).run();
  }

  /// The module the last run() resolved (parsed, read, or built);
  /// null before run() and for module-free tasks. Owned by the last
  /// run's entry, which the Analyzer retains.
  ir::Module *module() const { return Entry ? Entry->M.get() : nullptr; }

private:
  AnalysisSpec Spec;
  WarmCache *Warm = nullptr;
  std::shared_ptr<WarmEntry> Entry; ///< The last run's entry.
  bool WasWarm = false;
};

} // namespace wdm::api

#endif // WDM_API_ANALYZER_H
