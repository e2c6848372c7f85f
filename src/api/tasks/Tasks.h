//===--- Tasks.h - The six task adapters -----------------------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adapters the Analyzer dispatches to, one per TaskKind: each turns
/// a resolved TaskContext (module, function, backends, spec, warm entry)
/// into a uniform Report. The IR tasks split like Algorithm 3: a prepare
/// step (instrument, pre-pass, classify) runs once per warm entry, and a
/// search step (start-box shrink, search, Report) runs every time.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_API_TASKS_TASKS_H
#define WDM_API_TASKS_TASKS_H

#include "api/AnalysisSpec.h"
#include "api/Report.h"
#include "api/Warm.h"
#include "core/SearchEngine.h"

#include <memory>

namespace wdm::api {

/// Everything an adapter needs, resolved by the Analyzer: the parsed or
/// built module, the subject function, any GSL result slots, the
/// constructed backend portfolio, and the run's warm entry.
struct TaskContext {
  const AnalysisSpec &Spec;
  /// The entry this run resolved into (locked for the duration of the
  /// task): a WarmCache's for a warmable spec in service mode, a fresh
  /// local one otherwise. IR adapters park their prepared state in it.
  WarmEntry &Warm;
  ir::Module *M;             ///< Null for module-free tasks (fpsat).
  ir::Function *F;           ///< Resolved subject; null for fpsat.
  gsl::SfResultSlots Slots;  ///< val/err globals when resolvable.
  std::vector<std::unique_ptr<opt::Optimizer>> Backends; ///< >= 1 entry.
  /// Whether this run did the prepare step (set by tasks::prepared), so
  /// only that run reports the prepare cost.
  bool Prepared = false;

  TaskContext(const AnalysisSpec &Spec, WarmEntry &Warm)
      : Spec(Spec), Warm(Warm), M(Warm.M.get()), F(Warm.F),
        Slots(Warm.Slots) {}

  /// The spec's SearchConfig applied over \p Defaults, with the backend
  /// portfolio wired in when more than one backend was requested (a
  /// single backend goes through the solve(Backend, ...) path, matching
  /// the direct-class calls bit-for-bit).
  core::SearchOptions searchOptions(core::SearchOptions Defaults) const {
    Spec.Search.applyTo(Defaults);
    if (Backends.size() > 1)
      for (const auto &B : Backends)
        Defaults.Portfolio.push_back({B.get(), 1.0});
    return Defaults;
  }

  /// The spec's resolved execution tier (unset defaults to the VM).
  vm::EngineKind engineKind() const { return Spec.Search.engineKind(); }

  opt::Optimizer &primaryBackend() const { return *Backends.front(); }
};

Expected<Report> runBoundary(TaskContext &Ctx);
Expected<Report> runPath(TaskContext &Ctx);
Expected<Report> runCoverage(TaskContext &Ctx);
Expected<Report> runOverflow(TaskContext &Ctx);
Expected<Report> runInconsistency(TaskContext &Ctx);
Expected<Report> runFpSat(TaskContext &Ctx);

} // namespace wdm::api

#endif // WDM_API_TASKS_TASKS_H
