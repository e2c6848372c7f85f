//===--- UlpSearch.cpp - Pattern search in ordered-bit space ---------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "opt/UlpSearch.h"

#include "support/FPUtils.h"

#include <cmath>

using namespace wdm;
using namespace wdm::opt;

MinimizeResult UlpPatternSearch::minimize(Objective &Obj,
                                          const std::vector<double> &Start,
                                          RNG &Rand,
                                          const MinimizeOptions &Opts) {
  applyStopRule(Obj, Opts);
  uint64_t Before = Obj.numEvals();
  uint64_t Budget = Opts.LocalBudget;
  if (Obj.done())
    return harvest(Obj, Before);

  unsigned Dim = Obj.dim();
  std::vector<double> X = Start;
  for (double &Xi : X)
    if (std::isnan(Xi))
      Xi = 0.0;

  double F = Obj.eval(X);

  // Per-coordinate step sizes in ulps; expansion on success, contraction
  // on failure (classic Hooke-Jeeves scheme, but on the float lattice).
  std::vector<double> StepUlps(Dim, std::ldexp(1.0, Opts.StepBits));
  const double MaxStep = std::ldexp(1.0, 62);

  auto Exhausted = [&] {
    return Obj.done() || Obj.numEvals() - Before >= Budget;
  };

  // Joint diagonal moves: all coordinates step together by +-J ulps, one
  // sign pattern at a time, with its own adaptive step. Coordinate
  // descent alone provably stalls on coupled valleys like
  // |x+y-c| + |x*y-d| (any single-coordinate move worsens the dominating
  // term); diagonal moves un-stick it.
  double JointStep = Dim >= 2 ? std::ldexp(1.0, 16) : 0.0;
  unsigned Patterns = Dim <= 6 ? (1u << Dim) : 64;
  // Every pattern overwrites all of Candidate, so one buffer serves every
  // attempt; an improvement swaps it into X.
  std::vector<double> Candidate(Dim);
  auto JointAttempt = [&]() -> bool {
    int64_t Delta = static_cast<int64_t>(JointStep);
    for (unsigned Pattern = 0; Pattern < Patterns && !Exhausted();
         ++Pattern) {
      for (unsigned I = 0; I < Dim; ++I) {
        bool Neg = Dim <= 6 ? ((Pattern >> I) & 1u) : Rand.chance(0.5);
        Candidate[I] = clampedFromOrderedBits(
            orderedBitsAdd(orderedBits(X[I]), Neg ? -Delta : Delta));
      }
      if (Candidate == X)
        continue;
      double FNew = Obj.eval(Candidate);
      if (FNew < F) {
        X.swap(Candidate);
        F = FNew;
        return true;
      }
    }
    return false;
  };

  while (!Exhausted()) {
    bool AnyLive = false;
    bool AnyImproved = false;
    for (unsigned I = 0; I < Dim && !Exhausted(); ++I) {
      if (StepUlps[I] < 1.0)
        continue;
      AnyLive = true;
      int64_t Base = orderedBits(X[I]);
      int64_t Delta = static_cast<int64_t>(StepUlps[I]);
      bool Improved = false;
      for (int Sign = +1; Sign >= -1; Sign -= 2) {
        if (Exhausted())
          break;
        double Candidate =
            clampedFromOrderedBits(orderedBitsAdd(Base, Sign * Delta));
        if (Candidate == X[I])
          continue;
        double Saved = X[I];
        X[I] = Candidate;
        double FNew = Obj.eval(X);
        if (FNew < F) {
          F = FNew;
          Improved = true;
          break;
        }
        X[I] = Saved;
      }
      AnyImproved |= Improved;
      if (Improved) {
        StepUlps[I] = std::fmin(StepUlps[I] * 2.0, MaxStep);
      } else if (StepUlps[I] > 1.0 && StepUlps[I] < 4.0) {
        // Never skip the final one-ulp refinement step: contraction by 4
        // from sizes in (1, 4) would jump straight below 1.
        StepUlps[I] = 1.0;
      } else {
        StepUlps[I] /= 4.0;
      }
    }
    // One joint attempt per sweep, with its own expand/contract step.
    if (JointStep >= 1.0 && !Exhausted()) {
      if (JointAttempt()) {
        JointStep = std::fmin(JointStep * 2.0, MaxStep);
        AnyImproved = true;
      } else if (JointStep > 1.0 && JointStep < 4.0) {
        JointStep = 1.0;
      } else {
        JointStep /= 4.0;
      }
      AnyLive = true;
    }

    if (!AnyLive)
      break;
    // Alternating-minimization revival: progress anywhere can re-open
    // moves for coordinates that had converged. Give dead dimensions a
    // small fresh step whenever the sweep improved.
    if (AnyImproved) {
      for (unsigned I = 0; I < Dim; ++I)
        if (StepUlps[I] < 1.0)
          StepUlps[I] = 256.0;
      if (Dim >= 2 && JointStep < 1.0)
        JointStep = 256.0;
    }
  }
  return harvest(Obj, Before);
}
