//===--- OverflowDetector.h - Instance 3 driver (fpod) ---------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Floating-point overflow detection — the paper's fpod, Algorithm 3:
///
///  (1-3) instrument Prog into Prog_w / W  [OverflowPass + IRWeakDistance]
///  (4)   pick a random starting point,
///  (5)   x* = Basinhopping(W, s),
///  (6)   if W(x*) = 0, record the input,
///  (7)   target = last instruction executed in the round; L += {target},
///  (8)   repeat while |L| <= nFP,
///  (9)   return X.
///
/// L lives in the execution context's site-enabled table. Every found
/// overflow is verified by replaying the *original* function under an
/// OverflowObserver before it is reported.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_ANALYSES_OVERFLOWDETECTOR_H
#define WDM_ANALYSES_OVERFLOWDETECTOR_H

#include "core/SearchEngine.h"
#include "instrument/IRWeakDistance.h"
#include "instrument/Observers.h"
#include "instrument/OverflowPass.h"
#include "opt/Optimizer.h"
#include "vm/VMWeakDistance.h"

#include <memory>
#include <vector>

namespace wdm::analyses {

struct OverflowFinding {
  int SiteId = -1;
  bool Found = false;
  std::vector<double> Input;      ///< Valid when Found.
  std::string Description;        ///< Source text of the instruction.
};

struct OverflowReport {
  std::vector<OverflowFinding> Findings; ///< One per site, site order.
  uint64_t Evals = 0;
  uint64_t EvalsToFirstFinding = 0; ///< 0 when nothing was found.
  double Seconds = 0;
  unsigned NumOps = 0;

  unsigned numOverflows() const {
    unsigned N = 0;
    for (const OverflowFinding &F : Findings)
      N += F.Found;
    return N;
  }
};

class OverflowDetector {
public:
  struct Options {
    /// Per-start evaluation budget within a round.
    uint64_t EvalsPerRound = 12'000;
    uint64_t Seed = 0xf70d;
    /// Starting points: mostly wild draws over all of F — overflow
    /// inputs live at 1e150..1e308 magnitudes.
    double StartLo = -1.0e3;
    double StartHi = 1.0e3;
    double WildStartProb = 0.7;
    /// Starts per Algorithm 3 round. 1 = the paper's single launch per
    /// round (bit-for-bit the historical loop); more starts widen each
    /// round's search and parallelize across Threads.
    unsigned StartsPerRound = 1;
    /// Worker threads for the per-round multi-start search (see
    /// core::SearchOptions::Threads; only effective with
    /// StartsPerRound > 1).
    unsigned Threads = 1;
    /// Evaluation block size for the per-round search's population
    /// backends (core::SearchOptions::Batch; 0 = auto by tier).
    unsigned Batch = 0;
    /// Algorithm 3's nFP: maximum rounds before returning. 0 (the
    /// default) runs one round per site — the run-to-completion mode the
    /// paper's termination argument describes.
    unsigned MaxRounds = 0;
    /// MO backend for each round's search; null = the paper's
    /// Basinhopping (step 5), owned internally. Not owned.
    opt::Optimizer *Backend = nullptr;
    /// Optional backend portfolio across each round's starts; takes
    /// precedence over Backend (core::SearchOptions semantics).
    std::vector<core::PortfolioEntry> Portfolio;
    opt::MinimizeOptions MinOpts;
    /// Sites the static pre-pass proved unreachable or overflow-safe:
    /// retired into Algorithm 3's L before the first round, so no search
    /// budget chases them. Sound because a proved site cannot fire on
    /// any input — the findings set is unchanged.
    std::vector<int> PrunedSites;
  };

  OverflowDetector(ir::Module &M, ir::Function &F,
                   instr::OverflowMetric Metric =
                       instr::OverflowMetric::UlpGap,
                   vm::EngineKind Engine = vm::EngineKind::Tiered);

  /// Runs Algorithm 3 to completion (one round per site, as the paper's
  /// termination argument requires).
  OverflowReport run(const Options &Opts);

  const instr::SiteTable &sites() const { return Instr.Sites; }
  instr::IRWeakDistance &weak() { return *Weak; }

  /// Which execution tier each round's search workers start on (and the
  /// tier the last run reached).
  const vm::FactoryBundle &executionTier() const { return Factory; }

  /// Replays the original function and reports whether the operation at
  /// \p SiteId overflows on \p X.
  bool overflowsAt(int SiteId, const std::vector<double> &X);

private:
  ir::Module &M;
  ir::Function &Orig;
  instr::OverflowInstrumentation Instr;
  std::unique_ptr<exec::Engine> Eng;
  std::unique_ptr<exec::ExecContext> WeakCtx;
  std::unique_ptr<exec::ExecContext> ProbeCtx;
  std::unique_ptr<instr::IRWeakDistance> Weak;
  vm::FactoryBundle Factory;
};

} // namespace wdm::analyses

#endif // WDM_ANALYSES_OVERFLOWDETECTOR_H
