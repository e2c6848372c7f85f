//===--- Prune.h - Static pre-pass plumbing for task adapters --*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared "search.prune" flow of the IR-backed task adapters: run the
/// absint pre-pass over the original subject, classify the instrumented
/// sites and drop proved ones from the search objective (the prepare
/// step, once per warm entry), and in sites+box mode shrink the start box
/// (the search step, every run). The intervals are rounded outward, so a
/// dropped site provably cannot fire under any rounding mode and no
/// finding is lost; what changes is where the eval budget goes (and, with
/// it, the RNG stream the remaining rounds draw). Everything that ran
/// lands in Report::Static.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_API_TASKS_PRUNE_H
#define WDM_API_TASKS_PRUNE_H

#include "absint/AbsInt.h"
#include "api/Report.h"
#include "api/tasks/Tasks.h"
#include "core/SearchEngine.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_set>

namespace wdm::api::tasks {

/// One adapter's prepared pre-pass state: the analysis of the original
/// subject plus the site classification.
struct PrunePlan {
  PruneMode Mode = PruneMode::Off;
  /// The pre-pass analysis of the original subject (set when Mode != Off
  /// and the task has an IR subject). Intervals are certificates, so a
  /// non-Unknown verdict is a proof.
  std::unique_ptr<absint::FunctionAnalysis> FA;
  std::vector<absint::SiteReport> Sites;
  std::unordered_set<int> Dropped; ///< Site ids out of the objective.
  unsigned SitesTotal = 0;
  unsigned ProvedSafe = 0;
  std::chrono::steady_clock::time_point Clock0;
  double Seconds = 0; ///< Prepare cost so far (stamped per step).

  bool ran() const { return FA != nullptr; }

  /// Restamps the prepare cost; call when a pre-pass step finishes so
  /// Seconds never includes the work that follows.
  void stamp() {
    Seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - Clock0)
                  .count();
  }
};

/// What a run's search step adds to the plan: the start-box shrink.
/// Start boxes are volatile knobs (WarmCache::keyFor strips them), so it
/// reruns on every run, warm or cold.
struct BoxShrink {
  bool Shrunk = false;
  double Lo = 0;
  double Hi = 0;
  double Seconds = 0;
};

/// The absint.* counters, interned once: the pre-pass runs on every
/// overflow and inconsistency job by default.
struct PruneCounters {
  obs::Counter PrepassRuns = obs::counter("absint.prepass_runs");
  obs::Counter SitesTotal = obs::counter("absint.sites_total");
  obs::Counter SitesPruned = obs::counter("absint.sites_pruned");
  obs::Counter SitesProvedSafe = obs::counter("absint.sites_proved_safe");
  obs::Counter BoxesShrunk = obs::counter("absint.boxes_shrunk");
};

inline PruneCounters &pruneCounters() {
  static PruneCounters C;
  return C;
}

/// Runs the pre-pass over \p Ctx's subject when the spec's effective
/// mode (effectivePruneMode) asks for it. Argument intervals stay top:
/// searchers draw wild starts over all of F^N, so only input-independent
/// facts are certificates here.
inline PrunePlan planPrune(const TaskContext &Ctx) {
  PrunePlan P;
  P.Mode = effectivePruneMode(Ctx.Spec);
  P.Clock0 = std::chrono::steady_clock::now();
  if (P.Mode == PruneMode::Off || !Ctx.F)
    return P;
  {
    obs::ScopedSpan Span("absint_prepass");
    P.FA = std::make_unique<absint::FunctionAnalysis>(*Ctx.F);
  }
  if (obs::enabled())
    pruneCounters().PrepassRuns.add();
  P.stamp();
  return P;
}

/// A site-skip predicate over \p P for instrumentation-time pruning
/// (BoundaryAnalysis). Valid while \p P is alive.
inline std::function<bool(const instr::Site &)>
skipPredicate(const PrunePlan &P) {
  if (!P.ran())
    return nullptr;
  const absint::FunctionAnalysis *FA = P.FA.get();
  return [FA](const instr::Site &S) {
    return absint::classifySite(*FA, S) != absint::SiteVerdict::Unknown;
  };
}

/// Classifies \p Sites against the plan's analysis, filling Dropped and
/// the per-site reports.
inline void classifySites(PrunePlan &P, const instr::SiteTable &Sites) {
  P.SitesTotal = static_cast<unsigned>(Sites.size());
  if (!P.ran())
    return;
  P.Sites = absint::classifySites(*P.FA, Sites);
  for (const absint::SiteReport &R : P.Sites) {
    if (R.Verdict == absint::SiteVerdict::Unknown)
      continue;
    P.Dropped.insert(R.Id);
    P.ProvedSafe += R.Verdict == absint::SiteVerdict::ProvedSafe;
  }
  P.stamp();
}

/// The pruned sites as a deterministic (sorted) list, the shape the
/// OverflowDetector/BranchCoverage options take.
inline std::vector<int> droppedSorted(const PrunePlan &P) {
  std::vector<int> Out(P.Dropped.begin(), P.Dropped.end());
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// In sites+box mode, shrinks [\p Lo, \p Hi] to the per-dimension
/// slices from which \p MaybeFeasible holds. A heuristic for start
/// placement only — wild starts roam the full domain regardless, so
/// findings are unaffected.
inline BoxShrink
shrinkBox(const PrunePlan &P, const ir::Function &F, double &Lo, double &Hi,
          const std::function<bool(const absint::FunctionAnalysis &)>
              &MaybeFeasible) {
  BoxShrink B;
  if (P.Mode != PruneMode::SitesBox || !P.ran())
    return B;
  obs::ScopedSpan Span("box_shrink");
  auto Clock0 = std::chrono::steady_clock::now();
  absint::BoxShrinkResult R =
      absint::shrinkStartBox(F, Lo, Hi, {}, MaybeFeasible);
  if (R.Changed) {
    Lo = B.Lo = R.Lo;
    Hi = B.Hi = R.Hi;
    B.Shrunk = true;
  }
  B.Seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - Clock0)
                  .count();
  return B;
}

/// The site flavour: keeps the slices from which some still-active
/// (not dropped) site of \p Sites may trigger.
inline BoxShrink shrinkBox(const PrunePlan &P, const ir::Function &F,
                           double &Lo, double &Hi,
                           const instr::SiteTable &Sites) {
  if (P.Mode != PruneMode::SitesBox || !P.ran())
    return {};
  std::unordered_set<int> Active;
  for (const instr::Site &S : Sites)
    if (!P.Dropped.count(S.Id))
      Active.insert(S.Id);
  if (Active.empty())
    return {};
  return shrinkBox(P, F, Lo, Hi, [&](const absint::FunctionAnalysis &FA) {
    return absint::anySiteMaybeTriggers(FA, Sites, Active);
  });
}

/// Records the plan and this run's box shrink as the report's "static"
/// section (a no-op when the pre-pass did not run, keeping prune-off
/// reports byte-identical to a pre-pass-free build's). Its seconds are
/// this run's shrink, plus the prepare cost when this run prepared.
inline void fillStatic(const TaskContext &Ctx, Report &Rep,
                       const PrunePlan &P, const BoxShrink &Box) {
  if (!P.ran())
    return;
  if (obs::enabled()) {
    PruneCounters &C = pruneCounters();
    C.SitesTotal.add(P.SitesTotal);
    C.SitesPruned.add(P.Dropped.size());
    C.SitesProvedSafe.add(P.ProvedSafe);
    if (Box.Shrunk)
      C.BoxesShrunk.add();
  }
  Rep.Static.Ran = true;
  Rep.Static.Mode = pruneModeName(P.Mode);
  Rep.Static.SitesTotal = P.SitesTotal;
  Rep.Static.SitesPruned = static_cast<unsigned>(P.Dropped.size());
  Rep.Static.SitesProvedSafe = P.ProvedSafe;
  Rep.Static.Seconds = (Ctx.Prepared ? P.Seconds : 0) + Box.Seconds;
  Rep.Static.BoxShrunk = Box.Shrunk;
  Rep.Static.BoxLo = Box.Lo;
  Rep.Static.BoxHi = Box.Hi;
  for (const absint::SiteReport &R : P.Sites) {
    if (R.Verdict == absint::SiteVerdict::Unknown)
      continue;
    StaticItem It;
    It.Kind = R.Verdict == absint::SiteVerdict::Unreachable
                  ? "unreachable"
                  : "proved_safe";
    It.SiteId = R.Id;
    It.Description = R.Reason;
    Rep.Static.Items.push_back(std::move(It));
  }
}

} // namespace wdm::api::tasks

#endif // WDM_API_TASKS_PRUNE_H
