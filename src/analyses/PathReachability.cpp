//===--- PathReachability.cpp - Instance 2 driver -----------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "analyses/PathReachability.h"

using namespace wdm;
using namespace wdm::analyses;
using namespace wdm::exec;

class PathReachability::MembershipOracle : public core::AnalysisProblem {
public:
  explicit MembershipOracle(PathReachability &Parent) : Parent(Parent) {}

  unsigned dim() const override { return Parent.Orig.numArgs(); }

  bool contains(const std::vector<double> &X) override {
    return Parent.follows(X);
  }

  std::string name() const override {
    return "path(" + Parent.Orig.name() + ")";
  }

private:
  PathReachability &Parent;
};

PathReachability::PathReachability(ir::Module &M, ir::Function &F,
                                   const instr::PathSpec &Spec,
                                   vm::EngineKind Engine)
    : M(M), Orig(F), Spec(Spec) {
  Instr = instr::instrumentPath(F, Spec);
  Eng = std::make_unique<exec::Engine>(M);
  WeakCtx = std::make_unique<ExecContext>(M);
  ProbeCtx = std::make_unique<ExecContext>(M);
  Weak = std::make_unique<instr::IRWeakDistance>(
      *Eng, Instr.Wrapped, Instr.W, Instr.WInit, *WeakCtx);
  Factory = vm::makeWeakDistanceFactory(Engine, *Eng, Instr.Wrapped,
                                        Instr.W, Instr.WInit, *WeakCtx);
  Oracle = std::make_unique<MembershipOracle>(*this);
}

PathReachability::~PathReachability() = default;

core::AnalysisProblem &PathReachability::problem() { return *Oracle; }

bool PathReachability::follows(const std::vector<double> &X) {
  instr::BranchTraceObserver Obs;
  ProbeCtx->resetGlobals();
  ProbeCtx->setObserver(&Obs);
  std::vector<RTValue> Args;
  for (double V : X)
    Args.push_back(RTValue::ofDouble(V));
  Eng->run(&Orig, Args, *ProbeCtx);
  ProbeCtx->setObserver(nullptr);
  for (const instr::PathLeg &Leg : Spec.Legs)
    if (!Obs.followed(Leg.Branch, Leg.DesiredTaken))
      return false;
  return true;
}

core::SearchResult
PathReachability::findOne(opt::Optimizer &Backend,
                          const core::SearchOptions &Opts,
                          opt::SampleRecorder *Recorder) {
  Factory.beginRun();
  core::SearchEngine Engine(*Factory.Factory, Oracle.get());
  return Engine.solve(Backend, Opts, Recorder);
}
