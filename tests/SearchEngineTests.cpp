//===--- SearchEngineTests.cpp - Parallel multi-start driver tests -------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "core/SearchEngine.h"

#include "analyses/BoundaryAnalysis.h"
#include "opt/BasinHopping.h"
#include "opt/DifferentialEvolution.h"
#include "opt/Powell.h"
#include "opt/RandomSearch.h"
#include "subjects/Fig2.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>

using namespace wdm;
using namespace wdm::core;

namespace {

class LambdaWeak : public WeakDistance {
public:
  using Fn = std::function<double(const std::vector<double> &)>;
  LambdaWeak(Fn F, unsigned Dim) : F(std::move(F)), Dim(Dim) {}
  unsigned dim() const override { return Dim; }
  double operator()(const std::vector<double> &X) override { return F(X); }

private:
  Fn F;
  unsigned Dim;
};

/// Mints LambdaWeak evaluators sharing one pure callable — the
/// thread-safe analogue of the per-worker interpreter contexts.
class LambdaWeakFactory : public WeakDistanceFactory {
public:
  LambdaWeakFactory(LambdaWeak::Fn F, unsigned Dim)
      : F(std::move(F)), Dim(Dim) {}
  unsigned dim() const override { return Dim; }
  std::unique_ptr<WeakDistance> make() override {
    return std::make_unique<LambdaWeak>(F, Dim);
  }

private:
  LambdaWeak::Fn F;
  unsigned Dim;
};

class LambdaProblem : public AnalysisProblem {
public:
  using Fn = std::function<bool(const std::vector<double> &)>;
  LambdaProblem(Fn F, unsigned Dim) : F(std::move(F)), Dim(Dim) {}
  unsigned dim() const override { return Dim; }
  bool contains(const std::vector<double> &X) override { return F(X); }

private:
  Fn F;
  unsigned Dim;
};

void expectSameResult(const SearchResult &A, const SearchResult &B) {
  EXPECT_EQ(A.Found, B.Found);
  EXPECT_EQ(A.Witness, B.Witness);
  EXPECT_EQ(A.WStar, B.WStar);
  EXPECT_EQ(A.WStarAt, B.WStarAt);
  EXPECT_EQ(A.Evals, B.Evals);
  EXPECT_EQ(A.StartsUsed, B.StartsUsed);
  EXPECT_EQ(A.UnsoundCandidates, B.UnsoundCandidates);
}

TEST(SearchEngineTest, ThreadCountInvarianceWhenNotFound) {
  // Strictly positive weak distance: every start must exhaust its exact
  // budget slice, so Evals/StartsUsed are maximally sensitive to any
  // scheduling dependence.
  auto Run = [](unsigned Threads) {
    LambdaWeakFactory Factory(
        [](const std::vector<double> &X) { return X[0] * X[0] + 1.0; }, 1);
    SearchEngine Engine(Factory, nullptr);
    opt::RandomSearch Backend;
    SearchOptions Opts;
    Opts.Seed = 11;
    Opts.Starts = 6;
    Opts.MaxEvals = 6'000;
    Opts.Threads = Threads;
    return Engine.solve(Backend, Opts);
  };
  SearchResult Sequential = Run(1);
  SearchResult Parallel = Run(4);
  EXPECT_FALSE(Sequential.Found);
  EXPECT_EQ(Sequential.Evals, 6'000u);
  EXPECT_EQ(Sequential.StartsUsed, 6u);
  expectSameResult(Sequential, Parallel);
}

TEST(SearchEngineTest, ThreadCountInvarianceWhenFound) {
  auto Run = [](unsigned Threads) {
    LambdaWeakFactory Factory(
        [](const std::vector<double> &X) { return std::fabs(X[0] - 7.0); },
        1);
    LambdaProblem Problem(
        [](const std::vector<double> &X) { return X[0] == 7.0; }, 1);
    SearchEngine Engine(Factory, &Problem);
    opt::BasinHopping Backend;
    SearchOptions Opts;
    Opts.Seed = 1;
    Opts.Starts = 12;
    Opts.MaxEvals = 36'000;
    Opts.Threads = Threads;
    return Engine.solve(Backend, Opts);
  };
  SearchResult Sequential = Run(1);
  SearchResult Parallel = Run(4);
  ASSERT_TRUE(Sequential.Found);
  EXPECT_EQ(Sequential.Witness[0], 7.0);
  expectSameResult(Sequential, Parallel);
}

TEST(SearchEngineTest, CountsUnsoundCandidatesAtEveryThreadCount) {
  // Deliberately FP-inaccurate weak distance (Limitation 2): it claims 0
  // on a whole interval, but only x == 3 is in S. Verification must
  // reject the spurious zeros, count them, and keep the counts identical
  // across thread counts.
  auto Run = [](unsigned Threads) {
    LambdaWeakFactory Factory(
        [](const std::vector<double> &X) {
          return std::fabs(X[0] - 3.0) < 0.5 ? 0.0
                                             : std::fabs(X[0] - 3.0);
        },
        1);
    LambdaProblem Problem(
        [](const std::vector<double> &X) { return X[0] == 3.0; }, 1);
    SearchEngine Engine(Factory, &Problem);
    opt::RandomSearch Backend;
    SearchOptions Opts;
    Opts.Seed = 33;
    Opts.Starts = 8;
    Opts.MaxEvals = 8'000;
    Opts.StartLo = -5.0;
    Opts.StartHi = 5.0;
    Opts.Threads = Threads;
    Opts.VerifySolutions = true;
    return Engine.solve(Backend, Opts);
  };
  SearchResult Sequential = Run(1);
  SearchResult Parallel = Run(4);
  // The box puts plenty of probability mass on the fake-zero interval;
  // every start that lands there must be rejected.
  EXPECT_GT(Sequential.UnsoundCandidates, 0u);
  if (Sequential.Found)
    EXPECT_EQ(Sequential.Witness[0], 3.0);
  expectSameResult(Sequential, Parallel);
}

TEST(SearchEngineTest, PortfolioRoundRobinIsDeterministicAndSolves) {
  opt::BasinHopping BH;
  opt::DifferentialEvolution DE;
  opt::Powell PW;
  auto Run = [&] {
    LambdaWeakFactory Factory(
        [](const std::vector<double> &X) { return std::fabs(X[0] - 3.0); },
        1);
    SearchEngine Engine(Factory, nullptr);
    SearchOptions Opts;
    Opts.Seed = 99;
    Opts.Starts = 9;
    Opts.MaxEvals = 27'000;
    Opts.Portfolio = {{&BH, 1.0}, {&DE, 1.0}, {&PW, 1.0}};
    return Engine.run(Opts);
  };
  SearchResult A = Run();
  SearchResult B = Run();
  EXPECT_TRUE(A.Found);
  expectSameResult(A, B);
}

TEST(SearchEngineTest, WeightedPortfolioIsDeterministic) {
  opt::BasinHopping BH;
  opt::RandomSearch RS;
  auto Run = [&] {
    LambdaWeakFactory Factory(
        [](const std::vector<double> &X) { return X[0] * X[0] + 2.0; }, 1);
    SearchEngine Engine(Factory, nullptr);
    SearchOptions Opts;
    Opts.Seed = 7;
    Opts.Starts = 10;
    Opts.MaxEvals = 5'000;
    Opts.Portfolio = {{&BH, 0.25}, {&RS, 0.75}};
    Opts.Assignment = PortfolioAssign::Weighted;
    return Engine.run(Opts);
  };
  SearchResult A = Run();
  SearchResult B = Run();
  EXPECT_FALSE(A.Found);
  expectSameResult(A, B);
}

TEST(SearchEngineTest, StartBoxFlowsIntoBackendBox) {
  // With MinOpts.Lo/Hi left unset (NaN), the engine hands the start box
  // to the backend — DE (a hard-box method) must then never sample
  // outside [StartLo, StartHi].
  LambdaWeak W(
      [](const std::vector<double> &X) { return std::fabs(X[0]) + 1.0; },
      1);
  SearchEngine Engine(W, nullptr);
  opt::DifferentialEvolution DE;
  opt::VectorRecorder Rec;
  SearchOptions Opts;
  Opts.Seed = 42;
  Opts.Starts = 2;
  Opts.MaxEvals = 600;
  Opts.StartLo = 2.0;
  Opts.StartHi = 5.0;
  Opts.WildStartProb = 0.0;
  Engine.solve(DE, Opts, &Rec);
  ASSERT_GT(Rec.Samples.size(), 0u);
  for (const auto &Sample : Rec.Samples) {
    EXPECT_GE(Sample.X[0], 2.0);
    EXPECT_LE(Sample.X[0], 5.0);
  }
}

TEST(SearchEngineTest, DifferentialEvolutionHonorsExplicitBox) {
  opt::DifferentialEvolution DE;
  opt::VectorRecorder Rec;
  opt::Objective Obj(
      [](const std::vector<double> &X) { return X[0] * X[0] + 1.0; }, 1);
  Obj.MaxEvals = 500;
  Obj.setRecorder(&Rec);
  opt::MinimizeOptions Opts;
  Opts.Lo = -3.0;
  Opts.Hi = -1.0;
  RNG Rand(5);
  DE.minimize(Obj, {-2.0}, Rand, Opts);
  ASSERT_GT(Rec.Samples.size(), 0u);
  for (const auto &Sample : Rec.Samples) {
    EXPECT_GE(Sample.X[0], -3.0);
    EXPECT_LE(Sample.X[0], -1.0);
  }
}

TEST(SearchEngineTest, InvalidBoxFallsBackToDefaults) {
  // Lo >= Hi is an invalid box; sanitizedBox must fall back to the
  // defaults instead of tripping RNG::uniform's Lo < Hi contract.
  opt::RandomSearch RS;
  opt::Objective Obj(
      [](const std::vector<double> &X) { return std::fabs(X[0]) + 1.0; },
      1);
  Obj.MaxEvals = 200;
  opt::MinimizeOptions Opts;
  Opts.Lo = 4.0;
  Opts.Hi = 4.0;
  RNG Rand(9);
  opt::MinimizeResult R = RS.minimize(Obj, {1.0}, Rand, Opts);
  EXPECT_EQ(R.Evals, 200u);
}

TEST(SearchEngineTest, BudgetIsRespectedExactly) {
  // The audit contract: no backend calls eval() once done() holds, so a
  // multi-start run consumes exactly its budget when nothing is found.
  opt::BasinHopping BH;
  opt::Powell PW;
  opt::Optimizer *Backends[] = {&BH, &PW};
  for (opt::Optimizer *Backend : Backends) {
    LambdaWeak W(
        [](const std::vector<double> &X) { return X[0] * X[0] + 1.0; }, 1);
    SearchEngine Engine(W, nullptr);
    SearchOptions Opts;
    Opts.Seed = 13;
    Opts.Starts = 4;
    Opts.MaxEvals = 2'000;
    SearchResult R = Engine.solve(*Backend, Opts);
    EXPECT_LE(R.Evals, Opts.MaxEvals) << Backend->name();
  }
}

/// Starts > MaxEvals clamps the budget: one worker runs, and each start
/// gets what the earlier starts left of MaxEvals. Both weak distances
/// below have a zero region the oracle partly or wholly rejects, so a
/// rejected start ends early and the next one runs on the remainder.
SearchResult runClampedBudget(bool Findable, unsigned Threads,
                              bool SharedEvaluator,
                              opt::VectorRecorder *Recorder) {
  LambdaWeak::Fn Weak =
      Findable ? LambdaWeak::Fn([](const std::vector<double> &X) {
        return X[0] > 0 ? 0.0 : -X[0];
      })
               : LambdaWeak::Fn([](const std::vector<double> &X) {
                   return std::fabs(X[0]) < 10 ? 0.0
                                               : std::fabs(X[0]) - 10;
                 });
  LambdaProblem Problem(
      [Findable](const std::vector<double> &X) {
        return Findable && X[0] > 90;
      },
      1);
  LambdaWeakFactory Factory(Weak, 1);
  LambdaWeak Shared(Weak, 1);
  SearchEngine Engine = SharedEvaluator ? SearchEngine(Shared, &Problem)
                                        : SearchEngine(Factory, &Problem);
  opt::BasinHopping Backend;
  SearchOptions Opts;
  Opts.Seed = 50;
  Opts.Starts = 50;
  Opts.MaxEvals = 20;
  Opts.Threads = Threads;
  return Engine.solve(Backend, Opts, Recorder);
}

void expectClampedBudgetGolden(bool Findable, uint64_t WStarAtBits,
                               uint64_t WitnessBits) {
  SearchResult Base = runClampedBudget(Findable, 1, false, nullptr);
  EXPECT_EQ(Base.Found, Findable);
  EXPECT_EQ(Base.ThreadsUsed, 1u);
  EXPECT_EQ(Base.Evals, 20u);
  EXPECT_EQ(Base.StartsUsed, 2u);
  EXPECT_EQ(Base.UnsoundCandidates, 1u);
  EXPECT_EQ(std::bit_cast<uint64_t>(Base.WStar), 0u);
  ASSERT_EQ(Base.WStarAt.size(), 1u);
  EXPECT_EQ(std::bit_cast<uint64_t>(Base.WStarAt[0]), WStarAtBits);
  if (Findable) {
    ASSERT_EQ(Base.Witness.size(), 1u);
    EXPECT_EQ(std::bit_cast<uint64_t>(Base.Witness[0]), WitnessBits);
  } else {
    EXPECT_TRUE(Base.Witness.empty());
  }

  SearchResult Wide = runClampedBudget(Findable, 4, false, nullptr);
  EXPECT_EQ(Wide.ThreadsUsed, 1u);
  expectSameResult(Base, Wide);
  expectSameResult(Base, runClampedBudget(Findable, 0, true, nullptr));
  opt::VectorRecorder Rec;
  expectSameResult(Base, runClampedBudget(Findable, 4, false, &Rec));
  EXPECT_EQ(Rec.Samples.size(), Base.Evals);
}

TEST(SearchEngineTest, ClampedBudgetWhenFound) {
  // The first start spends 19 evaluations reaching a rejected zero; the
  // second gets the one evaluation left and finds a witness with it.
  expectClampedBudgetGolden(true, 0x3feec435ed94a0a0ull,
                            0x6e84052ca6b37d2aull);
}

TEST(SearchEngineTest, ClampedBudgetWhenNotFound) {
  expectClampedBudgetGolden(false, 0xc0111bca126b5f60ull, 0);
}

TEST(SearchEngineTest, BoundaryAnalysisRunsParallelThroughFactory) {
  // End-to-end: interpreter-backed weak distance, per-worker contexts
  // minted by IRWeakDistanceFactory, verification through the shared
  // oracle — same findings at every thread count.
  auto Run = [](unsigned Threads) {
    ir::Module M;
    subjects::Fig2 P = subjects::buildFig2(M);
    analyses::BoundaryAnalysis BVA(M, *P.F);
    opt::BasinHopping Backend;
    SearchOptions Opts;
    Opts.Seed = 2019;
    Opts.MaxEvals = 30'000;
    Opts.Threads = Threads;
    return BVA.findOne(Backend, Opts);
  };
  SearchResult Sequential = Run(1);
  SearchResult Parallel = Run(4);
  ASSERT_TRUE(Sequential.Found);
  expectSameResult(Sequential, Parallel);
}

} // namespace
