//===--- PathReachability.h - Instance 2 driver ----------------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Path reachability (paper Instance 2, Section 4.3): find an input that
/// drives every required branch in its desired direction. The membership
/// oracle replays the original program and checks the recorded branch
/// trace — the Section 5.2 Remark's "run the program to see if the input
/// indeed passes through the branch".
///
//===----------------------------------------------------------------------===//

#ifndef WDM_ANALYSES_PATHREACHABILITY_H
#define WDM_ANALYSES_PATHREACHABILITY_H

#include "core/SearchEngine.h"
#include "instrument/IRWeakDistance.h"
#include "instrument/Observers.h"
#include "instrument/PathPass.h"
#include "vm/VMWeakDistance.h"

#include <memory>

namespace wdm::analyses {

class PathReachability {
public:
  PathReachability(ir::Module &M, ir::Function &F,
                   const instr::PathSpec &Spec,
                   vm::EngineKind Engine = vm::EngineKind::Tiered);
  ~PathReachability();

  instr::IRWeakDistance &weak() { return *Weak; }
  core::AnalysisProblem &problem();

  /// True if running the original program on \p X follows the path.
  bool follows(const std::vector<double> &X);

  core::SearchResult findOne(opt::Optimizer &Backend,
                                const core::SearchOptions &Opts,
                                opt::SampleRecorder *Recorder = nullptr);

  /// Which execution tier search workers start on (and the tier the
  /// last run reached).
  const vm::FactoryBundle &executionTier() const { return Factory; }

private:
  class MembershipOracle;

  ir::Module &M;
  ir::Function &Orig;
  instr::PathSpec Spec;
  instr::PathInstrumentation Instr;
  std::unique_ptr<exec::Engine> Eng;
  std::unique_ptr<exec::ExecContext> WeakCtx;
  std::unique_ptr<exec::ExecContext> ProbeCtx;
  std::unique_ptr<instr::IRWeakDistance> Weak;
  vm::FactoryBundle Factory;
  std::unique_ptr<MembershipOracle> Oracle;
};

} // namespace wdm::analyses

#endif // WDM_ANALYSES_PATHREACHABILITY_H
