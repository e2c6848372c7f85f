//===--- BranchCoverage.cpp - Instance 4 driver (CoverMe-style) ---------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "analyses/BranchCoverage.h"

#include <unordered_set>

using namespace wdm;
using namespace wdm::analyses;
using namespace wdm::exec;

/// S_B: the inputs taking a direction outside the run's covered set B.
class BranchCoverage::NewCoverageOracle : public core::AnalysisProblem {
public:
  NewCoverageOracle(BranchCoverage &Parent, std::map<int, bool> &Covered)
      : Parent(Parent), Covered(Covered) {}

  unsigned dim() const override { return Parent.Orig.numArgs(); }

  bool contains(const std::vector<double> &X) override {
    for (int Dir : Parent.directionsTaken(X))
      if (!Covered[Dir])
        return true;
    return false;
  }

  std::string name() const override {
    return "coverage(" + Parent.Orig.name() + ")";
  }

private:
  BranchCoverage &Parent;
  std::map<int, bool> &Covered;
};

BranchCoverage::BranchCoverage(ir::Module &M, ir::Function &F,
                               vm::EngineKind Engine)
    : M(M), Orig(F) {
  Instr = instr::instrumentCoverage(F);
  Eng = std::make_unique<exec::Engine>(M);
  WeakCtx = std::make_unique<ExecContext>(M);
  ProbeCtx = std::make_unique<ExecContext>(M);
  Weak = std::make_unique<instr::IRWeakDistance>(
      *Eng, Instr.Wrapped, Instr.W, Instr.WInit, *WeakCtx);
  Factory = vm::makeWeakDistanceFactory(Engine, *Eng, Instr.Wrapped,
                                        Instr.W, Instr.WInit, *WeakCtx);
}

BranchCoverage::~BranchCoverage() = default;

std::vector<int>
BranchCoverage::directionsTaken(const std::vector<double> &X) {
  instr::BranchTraceObserver Obs;
  ProbeCtx->resetGlobals();
  ProbeCtx->setObserver(&Obs);
  std::vector<RTValue> Args;
  for (double V : X)
    Args.push_back(RTValue::ofDouble(V));
  Eng->run(&Orig, Args, *ProbeCtx);
  ProbeCtx->setObserver(nullptr);

  std::vector<int> Dirs;
  for (const auto &V : Obs.visits()) {
    if (V.Branch->id() < 0)
      continue;
    Dirs.push_back(V.Branch->id() + (V.TakenTrue ? 0 : 1));
  }
  return Dirs;
}

CoverageReport BranchCoverage::run(opt::Optimizer &Backend,
                                   const Options &Opts) {
  CoverageReport Report;
  Report.Total = static_cast<unsigned>(Instr.Sites.size());
  Factory.beginRun();

  // B starts empty: every direction uncovered, every site enabled.
  std::map<int, bool> &CoveredDirs = Report.DirectionCovered;
  for (const instr::Site &S : Instr.Sites) {
    CoveredDirs[S.Id] = false;
    WeakCtx->setSiteEnabled(S.Id, true);
  }
  NewCoverageOracle Oracle(*this, CoveredDirs);

  // Directions proved unreachable never gate the loop and never get
  // search budget; they stay uncovered in the report (truthfully so).
  std::unordered_set<int> Excluded;
  for (int Dir : Opts.ExcludedDirs)
    if (CoveredDirs.count(Dir) && !CoveredDirs[Dir]) {
      Excluded.insert(Dir);
      WeakCtx->setSiteEnabled(Dir, false);
    }

  core::SearchOptions Reduce = Opts.Reduce;
  unsigned Stall = 0;
  while (Stall < Opts.MaxStall) {
    // Any direction left?
    bool AnyLeft = false;
    for (auto &[Dir, Covered] : CoveredDirs)
      AnyLeft |= !Covered && !Excluded.count(Dir);
    if (!AnyLeft)
      break;

    // The factory snapshots the current covered set B, so worker
    // evaluators minted this round all chase the same uncovered
    // directions.
    core::SearchEngine Engine(*Factory.Factory, &Oracle);
    core::SearchResult R = Engine.solve(Backend, Reduce);
    Report.Evals += R.Evals;
    Reduce.Seed = Reduce.Seed * 6364136223846793005ull + 1ull;

    if (!R.Found) {
      ++Stall;
      continue;
    }
    Stall = 0;
    Report.TestInputs.push_back(R.Witness);
    // Mark every direction this witness takes as covered; disable the
    // corresponding sites so W stops chasing them (B grows).
    for (int Dir : directionsTaken(R.Witness)) {
      if (!CoveredDirs[Dir]) {
        CoveredDirs[Dir] = true;
        WeakCtx->setSiteEnabled(Dir, false);
      }
    }
  }

  for (auto &[Dir, Covered] : CoveredDirs)
    Report.Covered += Covered;
  return Report;
}
