//===--- OverflowDetector.cpp - Instance 3 driver (fpod) ----------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "analyses/OverflowDetector.h"

#include "opt/BasinHopping.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

using namespace wdm;
using namespace wdm::analyses;
using namespace wdm::exec;

OverflowDetector::OverflowDetector(ir::Module &M, ir::Function &F,
                                   instr::OverflowMetric Metric,
                                   vm::EngineKind Engine)
    : M(M), Orig(F) {
  Instr = instr::instrumentOverflow(F, Metric);
  Eng = std::make_unique<exec::Engine>(M);
  WeakCtx = std::make_unique<ExecContext>(M);
  ProbeCtx = std::make_unique<ExecContext>(M);
  Weak = std::make_unique<instr::IRWeakDistance>(
      *Eng, Instr.Wrapped, Instr.W, Instr.WInit, *WeakCtx);
  Factory = vm::makeWeakDistanceFactory(Engine, *Eng, Instr.Wrapped,
                                        Instr.W, Instr.WInit, *WeakCtx);
}

bool OverflowDetector::overflowsAt(int SiteId,
                                   const std::vector<double> &X) {
  instr::OverflowObserver Obs;
  ProbeCtx->resetGlobals();
  ProbeCtx->setObserver(&Obs);
  std::vector<RTValue> Args;
  for (double V : X)
    Args.push_back(RTValue::ofDouble(V));
  Eng->run(&Orig, Args, *ProbeCtx);
  ProbeCtx->setObserver(nullptr);
  return Obs.overflowedAt(SiteId);
}

OverflowReport OverflowDetector::run(const Options &Opts) {
  auto Clock0 = std::chrono::steady_clock::now();
  OverflowReport Report;
  Report.NumOps = static_cast<unsigned>(Instr.Sites.size());
  Factory.beginRun();

  RNG Rand(Opts.Seed);
  opt::BasinHopping DefaultBackend;
  opt::Optimizer *Backend =
      Opts.Backend ? Opts.Backend : &DefaultBackend;
  opt::MinimizeOptions MinOpts = Opts.MinOpts;

  std::unordered_set<int> L; // sites already targeted (Algorithm 3's L)
  std::unordered_map<int, OverflowFinding> BySite;
  for (const instr::Site &S : Instr.Sites) {
    // Sites start enabled (not in L).
    WeakCtx->setSiteEnabled(S.Id, true);
    BySite[S.Id] = {S.Id, false, {}, S.Description};
  }

  auto AddToL = [&](int SiteId) {
    L.insert(SiteId);
    WeakCtx->setSiteEnabled(SiteId, false);
  };

  // Statically-proved sites enter L before the first round (they can
  // never fire, so retiring them early only redirects budget).
  for (int SiteId : Opts.PrunedSites)
    if (BySite.count(SiteId) && !L.count(SiteId))
      AddToL(SiteId);

  // One engine serves every round; its factory snapshots the current L
  // (the site-enabled table) each time a round's workers are minted.
  core::SearchEngine Search(*Factory.Factory, nullptr);
  core::SearchOptions SOpts;
  SOpts.Starts = std::max(1u, Opts.StartsPerRound);
  SOpts.MaxEvals = Opts.EvalsPerRound * SOpts.Starts;
  SOpts.StartLo = Opts.StartLo;
  SOpts.StartHi = Opts.StartHi;
  SOpts.WildStartProb = Opts.WildStartProb;
  SOpts.VerifySolutions = false; // verification below is site-targeted
  SOpts.Threads = Opts.Threads;
  SOpts.Batch = Opts.Batch;
  SOpts.MinOpts = MinOpts;
  SOpts.Portfolio = Opts.Portfolio;

  // Step (8): |L| grows by one per round, so at most nFP rounds.
  unsigned Rounds = 0;
  while (L.size() < Instr.Sites.size() &&
         (Opts.MaxRounds == 0 || Rounds++ < Opts.MaxRounds)) {
    // Steps (4)-(5): starting points are drawn from the detector's
    // persistent stream; the engine runs Basinhopping from each.
    core::SearchResult R = Search.solveWithRng(Backend, SOpts, Rand);
    Report.Evals += R.Evals;
    const std::vector<double> &XStar = R.Found ? R.Witness : R.WStarAt;

    // Re-evaluate at the minimum point so last_site reflects this run.
    double WStar = (*Weak)(XStar);
    ++Report.Evals;
    int Target = static_cast<int>(Weak->readIntGlobal(Instr.LastSite));

    if (WStar == 0.0 && Target >= 0 && !L.count(Target)) {
      // Step (6): a zero — verify on the original before recording.
      if (overflowsAt(Target, XStar)) {
        OverflowFinding &F = BySite[Target];
        F.Found = true;
        F.Input = XStar;
        if (Report.EvalsToFirstFinding == 0)
          Report.EvalsToFirstFinding = Report.Evals;
      }
      // Step (7): track the instruction either way.
      AddToL(Target);
      continue;
    }

    // Nonzero minimum: the targeted instruction cannot be triggered (or
    // the backend failed — Limitation 3). Retire it to guarantee
    // termination.
    if (Target >= 0 && !L.count(Target)) {
      AddToL(Target);
      continue;
    }
    // No enabled site executed on this input (e.g. the run never reached
    // an enabled instruction): retire the first still-enabled site.
    for (const instr::Site &S : Instr.Sites) {
      if (!L.count(S.Id)) {
        AddToL(S.Id);
        break;
      }
    }
  }

  for (const instr::Site &S : Instr.Sites)
    Report.Findings.push_back(BySite[S.Id]);

  Report.Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Clock0)
                       .count();
  return Report;
}
