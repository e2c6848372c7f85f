//===--- BasinHopping.cpp - MCMC over local minima --------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "opt/BasinHopping.h"

#include "opt/NelderMead.h"
#include "opt/Powell.h"
#include "opt/UlpSearch.h"
#include "support/FPUtils.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

using namespace wdm;
using namespace wdm::opt;

namespace {

/// Shared proposal kernel: per-coordinate ordered-bit jump from \p From;
/// occasional full redraw keeps the chain irreducible over all of F.
void propose(double *Out, const double *From, unsigned Dim,
             double StepBits, RNG &Rand) {
  for (unsigned I = 0; I < Dim; ++I) {
    if (Rand.chance(0.1)) {
      Out[I] = Rand.anyFiniteDouble();
      continue;
    }
    int64_t Base = orderedBits(From[I]);
    double Jump = Rand.normal() * std::ldexp(1.0, static_cast<int>(StepBits));
    // Clamp the jump into int64 range before converting.
    Jump = std::fmax(std::fmin(Jump, 4.4e18), -4.4e18);
    Out[I] =
        clampedFromOrderedBits(orderedBitsAdd(Base, static_cast<int64_t>(Jump)));
  }
}

/// Adapts the proposal scale toward a ~50% acceptance rate, the SciPy
/// basinhopping heuristic, expressed in bits. Applied every 10 proposals.
void adaptStep(double &StepBits, unsigned Accepted, unsigned Proposed) {
  if (Proposed % 10 != 0)
    return;
  double Rate =
      static_cast<double>(Accepted) / static_cast<double>(Proposed);
  if (Rate > 0.6)
    StepBits = std::fmin(StepBits + 2.0, 62.0);
  else if (Rate < 0.4)
    StepBits = std::fmax(StepBits - 2.0, 4.0);
}

/// LocalMethod::None — pure Monte Carlo over proposals, restructured for
/// batching: proposals come in fixed rounds of MCRound, all centered at
/// the round-start state, harvested through Objective::evalBatch
/// (chunked by Opts.Batch) and then Metropolis-processed in order. The
/// round size is a constant, NOT Opts.Batch, so the chain — and
/// therefore every result bit — is invariant in the evaluation block
/// size; Batch only changes how many proposals reach the execution tier
/// per call. (The speculative recentering delay versus the historical
/// one-proposal-at-a-time chain is a deliberate, documented change; this
/// mode's only in-tree user is the local-minimizer ablation bench.)
MinimizeResult pureMonteCarlo(Objective &Obj,
                              const std::vector<double> &Start, RNG &Rand,
                              const MinimizeOptions &Opts,
                              uint64_t Before) {
  constexpr unsigned MCRound = 32;
  unsigned Dim = Obj.dim();

  std::vector<double> X = Start;
  double F = Obj.eval(Start);

  double StepBits = static_cast<double>(Opts.StepBits);
  unsigned Accepted = 0, Proposed = 0;

  std::vector<double> Props(static_cast<std::size_t>(MCRound) * Dim);
  std::vector<double> Fs(MCRound);

  unsigned Hop = 0;
  while (Hop < Opts.Hops && !Obj.done()) {
    unsigned Round = std::min(MCRound, Opts.Hops - Hop);
    for (unsigned K = 0; K < Round; ++K)
      propose(Props.data() + static_cast<std::size_t>(K) * Dim, X.data(),
              Dim, StepBits, Rand);

    std::size_t Used =
        evalChunked(Obj, Props.data(), Round, Opts.Batch, Fs.data());
    for (std::size_t K = 0; K < Used; ++K) {
      ++Proposed;
      ++Hop;
      double FNew = Fs[K];
      bool Accept = FNew <= F;
      if (!Accept && Opts.Temperature > 0.0) {
        double Ratio = (F - FNew) / Opts.Temperature;
        Accept = Rand.chance(std::exp(Ratio));
      }
      if (Accept) {
        X.assign(Props.data() + K * Dim, Props.data() + (K + 1) * Dim);
        F = FNew;
        ++Accepted;
      }
      adaptStep(StepBits, Accepted, Proposed);
    }
    if (Used < Round)
      break; // the objective is done mid-round
  }
  return harvest(Obj, Before);
}

} // namespace

MinimizeResult BasinHopping::minimize(Objective &Obj,
                                      const std::vector<double> &Start,
                                      RNG &Rand,
                                      const MinimizeOptions &Opts) {
  applyStopRule(Obj, Opts);
  uint64_t Before = Obj.numEvals();
  if (Obj.done())
    return harvest(Obj, Before);
  unsigned Dim = Obj.dim();

  std::unique_ptr<Optimizer> Inner;
  switch (Opts.Local) {
  case LocalMethod::UlpPatternSearch:
    Inner = std::make_unique<UlpPatternSearch>();
    break;
  case LocalMethod::NelderMead:
    Inner = std::make_unique<NelderMead>();
    break;
  case LocalMethod::Powell:
    Inner = std::make_unique<Powell>();
    break;
  case LocalMethod::None:
    return pureMonteCarlo(Obj, Start, Rand, Opts, Before);
  }

  MinimizeOptions InnerOpts = Opts;

  // The inner harvest reports the global best; the Metropolis state just
  // uses that best-so-far (monotone, adequate). Endpoints are moved and
  // swapped, never copied, and one proposal buffer serves every hop.
  MinimizeResult Cur = Inner->minimize(Obj, Start, Rand, InnerOpts);
  std::vector<double> X = std::move(Cur.X);
  double F = Cur.F;

  double StepBits = static_cast<double>(Opts.StepBits);
  unsigned Accepted = 0, Proposed = 0;

  std::vector<double> Proposal(Dim);
  for (unsigned Hop = 0; Hop < Opts.Hops && !Obj.done(); ++Hop) {
    propose(Proposal.data(), X.data(), Dim, StepBits, Rand);

    MinimizeResult New = Inner->minimize(Obj, Proposal, Rand, InnerOpts);
    const double FNew = New.F;
    ++Proposed;

    bool Accept = FNew <= F;
    if (!Accept && Opts.Temperature > 0.0) {
      double Ratio = (F - FNew) / Opts.Temperature;
      Accept = Rand.chance(std::exp(Ratio));
    }
    if (Accept) {
      X.swap(New.X);
      F = FNew;
      ++Accepted;
    }

    adaptStep(StepBits, Accepted, Proposed);
  }
  return harvest(Obj, Before);
}
