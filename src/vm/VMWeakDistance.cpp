//===--- VMWeakDistance.cpp - Compiled-tier weak distance ------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "vm/VMWeakDistance.h"

#include <cassert>
#include <limits>

using namespace wdm;
using namespace wdm::vm;
using namespace wdm::exec;
using namespace wdm::ir;

const char *wdm::vm::engineKindName(EngineKind K) {
  switch (K) {
  case EngineKind::Interp:
    return "interp";
  case EngineKind::VM:
    return "vm";
  case EngineKind::JIT:
    return "jit";
  case EngineKind::Tiered:
    return "tiered";
  }
  return "?";
}

bool wdm::vm::engineKindByName(const std::string &Name, EngineKind &Out) {
  if (Name == "interp") {
    Out = EngineKind::Interp;
    return true;
  }
  if (Name == "vm") {
    Out = EngineKind::VM;
    return true;
  }
  if (Name == "jit") {
    Out = EngineKind::JIT;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// VMWeakDistance
//===----------------------------------------------------------------------===//

VMWeakDistance::VMWeakDistance(const CompiledModule &CM,
                               const CompiledFunction &F, unsigned WIdx,
                               double WInit, const ExecContext &Parent,
                               ExecOptions Opts)
    : F(F), WIdx(WIdx), WInit(WInit), Ctx(*CM.M), Mach(CM), Opts(Opts) {
  assert(F.Ok && "minting a VM evaluator for a rejected function");
  Ctx.adoptSiteState(Parent);
}

double VMWeakDistance::operator()(const std::vector<double> &X) {
  assert(X.size() == F.NumArgs && "input dimension mismatch");
  Ctx.resetGlobals();
  Ctx.globalSlots()[WIdx] = RTValue::ofDouble(WInit);

  Last = Mach.run(F, X.data(), X.size(), Ctx, Opts);
  if (Last.Kind == ExecResult::Outcome::StepLimitExceeded)
    return std::numeric_limits<double>::infinity();
  // Normal returns and traps both leave w meaningful (same policy as
  // instr::IRWeakDistance).
  return Ctx.globalSlots()[WIdx].asDouble();
}

void VMWeakDistance::evalBatch(const double *Xs, std::size_t K,
                               double *Fs) {
  if (Ctx.observer()) {
    // Observed runs must see events in scalar evaluation order.
    core::WeakDistance::evalBatch(Xs, K, Fs);
    return;
  }
  Lanes.resize(K);
  Mach.runBatch(F, Xs, K, WIdx, WInit, Ctx, Opts, Lanes.data());
  for (std::size_t L = 0; L < K; ++L)
    Fs[L] = Lanes[L].Kind == ExecResult::Outcome::StepLimitExceeded
                ? std::numeric_limits<double>::infinity()
                : Lanes[L].Watched;
  if (K) {
    Last = ExecResult();
    Last.Kind = Lanes[K - 1].Kind;
    Last.Steps = Lanes[K - 1].Steps;
  }
}

//===----------------------------------------------------------------------===//
// VMWeakDistanceFactory
//===----------------------------------------------------------------------===//

VMWeakDistanceFactory::VMWeakDistanceFactory(
    const Engine &E, const Function *F, const GlobalVar *WVar,
    double WInit, const ExecContext &Parent, ExecOptions Opts,
    const Limits &L)
    : F(F), WVar(WVar), WInit(WInit), Parent(Parent), Opts(Opts),
      Compiled(compile(E.module(), L)),
      InterpFallback(E, F, WVar, WInit, Parent, Opts) {
  const CompiledFunction *CF = Compiled.lookup(F);
  assert(CF && "subject function outside the engine's module");
  if (CF->Ok) {
    Target = CF;
    WIdx = Parent.globalIndexOf(WVar);
  } else {
    Reason = CF->RejectReason;
  }
}

std::unique_ptr<core::WeakDistance> VMWeakDistanceFactory::make() {
  if (!Target)
    return InterpFallback.make();
  return makeCompiled();
}

std::unique_ptr<VMWeakDistance> VMWeakDistanceFactory::makeCompiled() {
  assert(Target && "minting a VM evaluator for a rejected subject");
  return std::make_unique<VMWeakDistance>(Compiled, *Target, WIdx, WInit,
                                          Parent, Opts);
}

// makeWeakDistanceFactory is defined in src/jit/JITWeakDistance.cpp so
// the EngineKind::JIT case can mint jit factories without this layer
// depending on the jit one.
