//===--- Common.h - Shared adapter helpers ---------------------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#ifndef WDM_API_TASKS_COMMON_H
#define WDM_API_TASKS_COMMON_H

#include "analyses/OverflowDetector.h"
#include "api/Report.h"
#include "api/tasks/Prune.h"
#include "api/tasks/Tasks.h"
#include "core/SearchEngine.h"
#include "vm/VMWeakDistance.h"

#include <thread>

namespace wdm::api::tasks {

/// The adapter's prepared state in the run's entry: on the entry's first
/// run \p Prepare fills a fresh State (instrument, pre-pass, classify)
/// and it is parked (and Ctx.Prepared set); every later run of the same
/// warm key reuses it. A failed prepare (a spec error) parks nothing.
/// The warm key pins the task kind, so the cast back is safe.
template <typename State, typename PrepareFn>
Expected<State *> prepared(TaskContext &Ctx, PrepareFn Prepare) {
  if (!Ctx.Warm.State) {
    auto S = std::make_shared<State>();
    if (Status St = Prepare(*S); !St.ok())
      return Expected<State *>::error(St.message());
    Ctx.Warm.State = std::move(S);
    Ctx.Prepared = true;
  }
  return static_cast<State *>(Ctx.Warm.State.get());
}

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

/// The prepared state shared by the overflow and inconsistency adapters:
/// the instrumented detector and the pre-pass plan over its sites.
struct PreparedOverflow {
  PrunePlan Plan;
  std::unique_ptr<analyses::OverflowDetector> Detector;
};

/// Their shared prepare step: the detector with the spec's metric
/// default applied and the execution tier selected, and its sites
/// classified.
inline Expected<PreparedOverflow *>
prepareOverflow(TaskContext &Ctx, instr::OverflowMetric Default) {
  return prepared<PreparedOverflow>(Ctx, [&](PreparedOverflow &P) {
    instr::OverflowMetric Metric = Default;
    if (Ctx.Spec.OverflowMetric == "absgap")
      Metric = instr::OverflowMetric::AbsGap;
    else if (Ctx.Spec.OverflowMetric == "ulpgap")
      Metric = instr::OverflowMetric::UlpGap;
    P.Detector = std::make_unique<analyses::OverflowDetector>(
        *Ctx.M, *Ctx.F, Metric, Ctx.engineKind());
    P.Plan = planPrune(Ctx);
    classifySites(P.Plan, P.Detector->sites());
    return Status::success();
  });
}

/// Their shared search step: one Algorithm 3 run with the proved sites
/// retired up front and, in sites+box mode, the start box shrunk. Fills
/// the report fields both adapters share, found sites as "overflow"
/// findings.
inline analyses::OverflowReport searchOverflow(TaskContext &Ctx,
                                               PreparedOverflow &P,
                                               Report &Rep) {
  analyses::OverflowDetector::Options Opts = overflowOptions(Ctx);
  Opts.PrunedSites = droppedSorted(P.Plan);
  BoxShrink Box = shrinkBox(P.Plan, *Ctx.F, Opts.StartLo, Opts.StartHi,
                            P.Detector->sites());
  analyses::OverflowReport R = P.Detector->run(Opts);
  fillStatic(Ctx, Rep, P.Plan, Box);
  Rep.Evals = R.Evals;
  fillEngine(Rep, P.Detector->executionTier());
  Rep.ThreadsUsed = Opts.Threads
                        ? Opts.Threads
                        : std::max(1u, std::thread::hardware_concurrency());
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
  return R;
}

} // namespace wdm::api::tasks

#endif // WDM_API_TASKS_COMMON_H
