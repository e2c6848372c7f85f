//===--- BranchCoverage.h - Instance 4 driver (CoverMe-style) --*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Branch-coverage-based testing (paper Instance 4, realized as CoverMe
/// in [Fu & Su PLDI'17]): repeatedly solve ⟨Prog; S_B⟩ where S_B is the
/// set of inputs taking a branch direction outside the covered set B.
/// Each witness is replayed to mark every direction it takes as covered
/// (disabling those sites), until no progress remains. B is per run:
/// run() starts from an empty covered set with every site enabled, so
/// one object can run again (a warm entry does) with a fresh object's
/// result.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_ANALYSES_BRANCHCOVERAGE_H
#define WDM_ANALYSES_BRANCHCOVERAGE_H

#include "core/SearchEngine.h"
#include "instrument/CoveragePass.h"
#include "instrument/IRWeakDistance.h"
#include "instrument/Observers.h"
#include "vm/VMWeakDistance.h"

#include <map>
#include <memory>

namespace wdm::analyses {

struct CoverageReport {
  unsigned Total = 0;   ///< Branch directions in the subject.
  unsigned Covered = 0; ///< Directions covered by the generated suite.
  std::vector<std::vector<double>> TestInputs;
  std::map<int, bool> DirectionCovered; ///< site id -> covered.
  uint64_t Evals = 0;

  double ratio() const {
    return Total ? static_cast<double>(Covered) / Total : 1.0;
  }
};

class BranchCoverage {
public:
  struct Options {
    core::SearchOptions Reduce;
    /// Stop after this many consecutive fruitless attempts.
    unsigned MaxStall = 3;
    /// Branch directions (site ids) the static pre-pass proved
    /// unreachable: excluded from the objective (their sites disabled up
    /// front, and they no longer count as "directions left"), but still
    /// reported uncovered in Total/Covered — they really are uncovered.
    std::vector<int> ExcludedDirs;
  };

  BranchCoverage(ir::Module &M, ir::Function &F,
                 vm::EngineKind Engine = vm::EngineKind::Tiered);
  ~BranchCoverage();

  CoverageReport run(opt::Optimizer &Backend, const Options &Opts);

  const instr::SiteTable &sites() const { return Instr.Sites; }
  instr::IRWeakDistance &weak() { return *Weak; }

  /// Which execution tier search workers start on (and the tier the
  /// last run reached).
  const vm::FactoryBundle &executionTier() const { return Factory; }

  /// Directions (site ids) the original program takes on \p X.
  std::vector<int> directionsTaken(const std::vector<double> &X);

private:
  class NewCoverageOracle;

  ir::Module &M;
  ir::Function &Orig;
  instr::CoverageInstrumentation Instr;
  std::unique_ptr<exec::Engine> Eng;
  std::unique_ptr<exec::ExecContext> WeakCtx;
  std::unique_ptr<exec::ExecContext> ProbeCtx;
  std::unique_ptr<instr::IRWeakDistance> Weak;
  vm::FactoryBundle Factory;
};

} // namespace wdm::analyses

#endif // WDM_ANALYSES_BRANCHCOVERAGE_H
