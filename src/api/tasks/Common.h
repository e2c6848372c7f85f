//===--- Common.h - Shared adapter helpers ---------------------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#ifndef WDM_API_TASKS_COMMON_H
#define WDM_API_TASKS_COMMON_H

#include "analyses/OverflowDetector.h"
#include "api/Report.h"
#include "api/TaskRegistry.h"
#include "core/SearchEngine.h"
#include "vm/VMWeakDistance.h"

namespace wdm::api::tasks {

/// Records the highest execution tier the analysis run reached (and why
/// a tier fell back, when one did).
inline void fillEngine(Report &Rep, const vm::FactoryBundle &Tier) {
  Rep.Engine = vm::engineKindName(Tier.reached());
  Rep.EngineFallback = Tier.FallbackReason;
}

/// Copies the uniform counters of a SearchEngine run into a report.
inline void fillAggregates(Report &Rep, const core::SearchResult &R) {
  Rep.Evals = R.Evals;
  Rep.StartsUsed = R.StartsUsed;
  Rep.UnsoundCandidates = R.UnsoundCandidates;
  Rep.ThreadsUsed = R.ThreadsUsed;
  Rep.WStar = R.Found ? 0.0 : R.WStar;
}

/// The spec's SearchConfig mapped onto Algorithm 3's per-round knobs
/// (shared by the overflow and inconsistency adapters): the detector
/// defaults go through the one TaskContext::searchOptions overlay and
/// come back renamed — MaxEvals is the per-round budget, Starts the
/// per-round width. The context's backends replace the detector's
/// built-in Basinhopping.
inline analyses::OverflowDetector::Options
overflowOptions(const TaskContext &Ctx) {
  analyses::OverflowDetector::Options Opts;
  core::SearchOptions S;
  S.MaxEvals = Opts.EvalsPerRound;
  S.Starts = Opts.StartsPerRound;
  S.Seed = Opts.Seed;
  S.StartLo = Opts.StartLo;
  S.StartHi = Opts.StartHi;
  S.WildStartProb = Opts.WildStartProb;
  S.Threads = Opts.Threads;
  S.Batch = Opts.Batch;
  S = Ctx.searchOptions(S);
  Opts.EvalsPerRound = S.MaxEvals;
  Opts.StartsPerRound = std::max(1u, S.Starts);
  Opts.Seed = S.Seed;
  Opts.StartLo = S.StartLo;
  Opts.StartHi = S.StartHi;
  Opts.WildStartProb = S.WildStartProb;
  Opts.Threads = S.Threads;
  Opts.Batch = S.Batch;
  Opts.Backend = &Ctx.primaryBackend();
  Opts.Portfolio = S.Portfolio;
  Opts.MaxRounds = Ctx.Spec.NFP;
  return Opts;
}

/// The detector shared by the overflow and inconsistency adapters, with
/// the spec's metric default applied and the execution tier selected.
inline analyses::OverflowDetector
makeOverflowDetector(TaskContext &Ctx, instr::OverflowMetric Default) {
  instr::OverflowMetric Metric = Default;
  if (Ctx.Spec.OverflowMetric == "absgap")
    Metric = instr::OverflowMetric::AbsGap;
  else if (Ctx.Spec.OverflowMetric == "ulpgap")
    Metric = instr::OverflowMetric::UlpGap;
  return analyses::OverflowDetector(*Ctx.M, *Ctx.F, Metric,
                                    Ctx.engineKind());
}

/// The per-site overflow findings of a detector report, as "overflow"
/// report findings (found sites only).
inline void appendOverflowFindings(Report &Rep,
                                   const analyses::OverflowReport &R) {
  for (const analyses::OverflowFinding &F : R.Findings) {
    if (!F.Found)
      continue;
    Finding Item;
    Item.Kind = "overflow";
    Item.Input = F.Input;
    Item.SiteId = F.SiteId;
    Item.Description = F.Description;
    Rep.Findings.push_back(std::move(Item));
  }
}

} // namespace wdm::api::tasks

#endif // WDM_API_TASKS_COMMON_H
