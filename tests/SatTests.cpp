//===--- SatTests.cpp - FP satisfiability (Instance 5) tests --------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "analyses/PathReachability.h"
#include "opt/BasinHopping.h"
#include "ir/Verifier.h"
#include "sat/Distance.h"
#include "sat/LowerToIR.h"
#include "sat/SExprParser.h"
#include "sat/Solver.h"
#include "support/FPUtils.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace wdm;
using namespace wdm::sat;

namespace {

CNF parse(const char *Text) {
  Expected<CNF> C = parseConstraint(Text);
  EXPECT_TRUE(C.hasValue()) << (C.hasValue() ? "" : C.error());
  return C.take();
}

// --------------------------------------------------------------------------
// Parser and evaluation
// --------------------------------------------------------------------------

TEST(SExprParserTest, ParsesConjunctionsAndDisjunctions) {
  CNF C = parse("(and (or (< x 1.0) (>= y 2.0)) (= (* x y) 3.5))");
  EXPECT_EQ(C.Clauses.size(), 2u);
  EXPECT_EQ(C.NumVars, 2u);
  EXPECT_EQ(C.VarNames[0], "x");
  EXPECT_EQ(C.Clauses[0].Atoms.size(), 2u);
  EXPECT_EQ(C.Clauses[1].Atoms.size(), 1u);
}

TEST(SExprParserTest, SingleAtomConstraint) {
  CNF C = parse("(<= (+ x 1.0) 2.0)");
  EXPECT_EQ(C.Clauses.size(), 1u);
  EXPECT_TRUE(C.satisfiedBy({0.5}));
  EXPECT_FALSE(C.satisfiedBy({1.5}));
}

TEST(SExprParserTest, TranscendentalFunctions) {
  CNF C = parse("(< (+ x (tan x)) 2.0)");
  EXPECT_EQ(C.NumVars, 1u);
  EXPECT_TRUE(C.satisfiedBy({0.5}));
}

TEST(SExprParserTest, UnaryMinus) {
  CNF C = parse("(= (- x) 3.0)");
  EXPECT_TRUE(C.satisfiedBy({-3.0}));
}

TEST(SExprParserTest, Errors) {
  EXPECT_FALSE(parseConstraint("(and)").hasValue());
  EXPECT_FALSE(parseConstraint("(< x)").hasValue());
  EXPECT_FALSE(parseConstraint("(frobnicate x 1)").hasValue());
  EXPECT_FALSE(parseConstraint("(< x 1").hasValue());
  EXPECT_FALSE(parseConstraint("(< x 1)) extra").hasValue());
}

TEST(ConstraintTest, ToStringRoundTrips) {
  CNF C = parse("(and (or (< x 1.0) (>= y 2.0)) (= (* x y) 3.5))");
  CNF C2 = parse(C.toString().c_str());
  EXPECT_EQ(C2.Clauses.size(), C.Clauses.size());
  EXPECT_EQ(C2.NumVars, C.NumVars);
  for (const std::vector<double> &X :
       {std::vector<double>{0.5, 7.0}, {3.5, 1.0}, {2.0, 1.75}})
    EXPECT_EQ(C.satisfiedBy(X), C2.satisfiedBy(X));
}

TEST(ConstraintTest, IEEEComparisonSemantics) {
  CNF C = parse("(= (/ x x) 1.0)");
  EXPECT_TRUE(C.satisfiedBy({2.0}));
  EXPECT_FALSE(C.satisfiedBy({0.0})); // 0/0 = NaN != 1
  CNF C2 = parse("(!= (/ x x) (/ x x))");
  EXPECT_TRUE(C2.satisfiedBy({0.0})); // NaN != NaN
}

// --------------------------------------------------------------------------
// Atom distances, parameterized across metrics
// --------------------------------------------------------------------------

class AtomDistanceTest : public ::testing::TestWithParam<DistanceMetric> {};

TEST_P(AtomDistanceTest, ZeroIffHolds) {
  DistanceMetric Metric = GetParam();
  const char *Atoms[] = {
      "(< x 1.0)",  "(<= x 1.0)", "(> x 1.0)",
      "(>= x 1.0)", "(= x 1.0)",  "(!= x 1.0)",
  };
  RNG R(41);
  for (const char *Text : Atoms) {
    CNF C = parse(Text);
    const Atom &A = C.Clauses[0].Atoms[0];
    for (int I = 0; I < 200; ++I) {
      double X = I == 0 ? 1.0 : R.uniform(-5, 5);
      double D = atomDistance(A, {X}, Metric);
      EXPECT_GE(D, 0.0);
      EXPECT_EQ(D == 0.0, A.holds({X}))
          << Text << " at x = " << X << " metric "
          << (Metric == DistanceMetric::Ulp ? "ulp" : "abs");
    }
  }
}

TEST_P(AtomDistanceTest, DecreasesTowardSatisfaction) {
  DistanceMetric Metric = GetParam();
  CNF C = parse("(<= x 1.0)");
  const Atom &A = C.Clauses[0].Atoms[0];
  EXPECT_GT(atomDistance(A, {9.0}, Metric), atomDistance(A, {5.0}, Metric));
  EXPECT_GT(atomDistance(A, {5.0}, Metric), atomDistance(A, {2.0}, Metric));
}

INSTANTIATE_TEST_SUITE_P(Metrics, AtomDistanceTest,
                         ::testing::Values(DistanceMetric::Absolute,
                                           DistanceMetric::Ulp));

TEST(CNFWeakDistanceTest, Def31Properties) {
  CNF C = parse("(and (or (< x 0.0) (> x 10.0)) (= (* x x) 400.0))");
  CNFWeakDistance W(C, DistanceMetric::Ulp);
  RNG R(42);
  for (int I = 0; I < 300; ++I) {
    double X = I == 0 ? 20.0 : (I == 1 ? -20.0 : R.uniform(-50, 50));
    double D = W({X});
    EXPECT_GE(D, 0.0);
    EXPECT_EQ(D == 0.0, C.satisfiedBy({X})) << "x = " << X;
  }
}

// --------------------------------------------------------------------------
// Solver
// --------------------------------------------------------------------------

TEST(XSatSolverTest, PaperSection1Formula) {
  // x < 1 AND x + 1 >= 2: satisfiable under round-to-nearest exactly at
  // the largest double below 1 (the MathSAT example from Section 1).
  CNF C = parse("(and (< x 1.0) (>= (+ x 1.0) 2.0))");
  XSatSolver Solver;
  XSatSolver::Options Opts;
  Opts.Reduce.Seed = 43;
  Opts.Reduce.MaxEvals = 120'000;
  SatResult R = Solver.solve(C, Opts);
  ASSERT_TRUE(R.Sat);
  EXPECT_EQ(R.Model[0], 0.9999999999999999);
}

TEST(XSatSolverTest, TanVariantFromFig1b) {
  // x < 1 AND x + tan(x) >= 2 — the formula SMT solvers struggle with
  // (system-dependent tan, Fig. 1(b)).
  CNF C = parse("(and (< x 1.0) (>= (+ x (tan x)) 2.0))");
  XSatSolver Solver;
  XSatSolver::Options Opts;
  Opts.Reduce.Seed = 44;
  Opts.Reduce.MaxEvals = 150'000;
  SatResult R = Solver.solve(C, Opts);
  ASSERT_TRUE(R.Sat);
  EXPECT_TRUE(C.satisfiedBy(R.Model));
  EXPECT_LT(R.Model[0], 1.0);
}

TEST(XSatSolverTest, SimpleUnsat) {
  CNF C = parse("(and (> x 1.0) (< x 0.0))");
  XSatSolver Solver;
  XSatSolver::Options Opts;
  Opts.Reduce.Seed = 45;
  Opts.Reduce.MaxEvals = 20'000;
  Opts.Reduce.Starts = 8;
  SatResult R = Solver.solve(C, Opts);
  EXPECT_FALSE(R.Sat);
  EXPECT_GT(R.WStar, 0.0);
}

TEST(XSatSolverTest, MultiVariableNonlinear) {
  CNF C = parse("(and (= (+ x y) 10.0) (= (* x y) 21.0) (< x y))");
  XSatSolver Solver;
  XSatSolver::Options Opts;
  Opts.Reduce.Seed = 46;
  Opts.Reduce.MaxEvals = 200'000;
  Opts.Reduce.Starts = 16;
  SatResult R = Solver.solve(C, Opts);
  ASSERT_TRUE(R.Sat);
  EXPECT_TRUE(C.satisfiedBy(R.Model));
}

TEST(XSatSolverTest, DisjunctionPicksEitherBranch) {
  CNF C = parse("(and (or (= x 2.0) (= x 5.0)) (> x 3.0))");
  XSatSolver Solver;
  XSatSolver::Options Opts;
  Opts.Reduce.Seed = 47;
  Opts.Reduce.MaxEvals = 60'000;
  SatResult R = Solver.solve(C, Opts);
  ASSERT_TRUE(R.Sat);
  EXPECT_EQ(R.Model[0], 5.0);
}

TEST(XSatSolverTest, BothMetricsSolve) {
  CNF C = parse("(= (* x x) 4.0)");
  for (DistanceMetric Metric :
       {DistanceMetric::Absolute, DistanceMetric::Ulp}) {
    XSatSolver Solver;
    XSatSolver::Options Opts;
    Opts.Metric = Metric;
    Opts.Reduce.Seed = 48;
    Opts.Reduce.MaxEvals = 120'000;
    SatResult R = Solver.solve(C, Opts);
    ASSERT_TRUE(R.Sat);
    EXPECT_TRUE(C.satisfiedBy(R.Model));
  }
}

TEST(XSatSolverTest, TwoIsNotAFloatingPointSquare) {
  // A delightful binary64 fact: no double satisfies x*x == 2.0 — the
  // squares of the doubles adjacent to sqrt(2) round to
  // 1.9999999999999996 and 2.0000000000000004. A semantics-faithful
  // solver must report UNSAT where real-arithmetic reasoning says SAT.
  CNF C = parse("(= (* x x) 2.0)");
  XSatSolver Solver;
  XSatSolver::Options Opts;
  Opts.Reduce.Seed = 52;
  Opts.Reduce.MaxEvals = 60'000;
  SatResult R = Solver.solve(C, Opts);
  EXPECT_FALSE(R.Sat);
  // The search gets within one ulp of the "real" solution even so.
  EXPECT_LE(R.WStar, 4.0);
}

// --------------------------------------------------------------------------
// Instance 5 equivalence: solver vs path reachability on the lowering
// --------------------------------------------------------------------------

class Instance5EquivalenceTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(Instance5EquivalenceTest, SolverAgreesWithPathReachability) {
  CNF C = parse(GetParam());

  // Route A: the XSat-style solver.
  XSatSolver Solver;
  XSatSolver::Options SOpts;
  SOpts.Reduce.Seed = 49;
  SOpts.Reduce.MaxEvals = 120'000;
  SatResult SR = Solver.solve(C, SOpts);

  // Route B: lower to `if (c)` and solve path reachability to the true
  // branch (paper: "the two problems are equivalent").
  ir::Module M;
  LoweredCNF L = lowerToIR(C, M, "cnf_prog");
  ASSERT_TRUE(ir::verifyModule(M).ok()) << ir::verifyModule(M).message();
  instr::PathSpec Spec;
  Spec.Legs.push_back({L.Branch, true});
  analyses::PathReachability PR(M, *L.F, Spec);
  opt::BasinHopping Backend;
  core::SearchOptions POpts;
  POpts.Seed = 50;
  POpts.MaxEvals = 120'000;
  core::SearchResult RR = PR.findOne(Backend, POpts);

  EXPECT_EQ(SR.Sat, RR.Found) << GetParam();
  if (SR.Sat) {
    EXPECT_TRUE(C.satisfiedBy(SR.Model));
  }
  if (RR.Found) {
    EXPECT_TRUE(C.satisfiedBy(RR.Witness));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formulas, Instance5EquivalenceTest,
    ::testing::Values("(and (< x 1.0) (>= (+ x 1.0) 2.0))",
                      "(= (* x x) 4.0)",
                      "(and (<= 0.0 x) (<= x 10.0) (= (sin x) 0.0))",
                      "(and (> x 1.0) (< x 0.0))",
                      "(and (or (< x -5.0) (> x 5.0)) (= (* x x) 49.0))"));

// --------------------------------------------------------------------------
// Lowered program semantics
// --------------------------------------------------------------------------

TEST(LowerToIRTest, AgreesWithDirectEvaluation) {
  CNF C = parse("(and (or (< x 1.0) (>= y 2.0)) (= (* x y) 3.5))");
  ir::Module M;
  LoweredCNF L = lowerToIR(C, M, "check");
  exec::Engine E(M);
  exec::ExecContext Ctx(M);
  RNG R(51);
  for (int I = 0; I < 300; ++I) {
    std::vector<double> X{R.uniform(-4, 4), R.uniform(-4, 4)};
    if (I == 0)
      X = {0.5, 7.0};
    exec::ExecResult ER = E.run(
        L.F, {exec::RTValue::ofDouble(X[0]), exec::RTValue::ofDouble(X[1])},
        Ctx);
    ASSERT_TRUE(ER.ok());
    EXPECT_EQ(ER.ReturnValue.asInt() == 1, C.satisfiedBy(X));
  }
}

} // namespace
