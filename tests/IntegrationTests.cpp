//===--- IntegrationTests.cpp - Cross-layer integration tests ------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "analyses/BoundaryAnalysis.h"
#include "analyses/OverflowDetector.h"
#include "analyses/PathReachability.h"
#include "gsl/Airy.h"
#include "gsl/Bessel.h"
#include "gsl/Hyperg.h"
#include "instrument/CoveragePass.h"
#include "ir/IRBuilder.h"
#include "instrument/OverflowPass.h"
#include "instrument/PathPass.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "opt/BasinHopping.h"
#include "subjects/Fig1.h"
#include "subjects/Fig2.h"
#include "subjects/SinModel.h"
#include "subjects/TestPrograms.h"
#include "support/FPUtils.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace wdm;
using namespace wdm::exec;
using namespace wdm::ir;

namespace {

/// Property: printing a module and parsing it back preserves execution
/// semantics bit-for-bit over random inputs — the round trip is tested
/// on every corpus subject, including ones with loops and calls.
class RoundTripSemanticsTest
    : public ::testing::TestWithParam<const char *> {};

Function *buildSubject(Module &M, const std::string &Name) {
  if (Name == "fig2")
    return subjects::buildFig2(M).F;
  if (Name == "fig1a")
    return subjects::buildFig1a(M).F;
  if (Name == "fig1b")
    return subjects::buildFig1b(M).F;
  if (Name == "glibc_sin")
    return subjects::buildSinModel(M).F;
  if (Name == "straightline")
    return subjects::buildStraightline(M);
  if (Name == "loop_accum")
    return subjects::buildLoopAccum(M);
  if (Name == "classifier")
    return subjects::buildClassifier(M);
  if (Name == "callchain_f")
    return subjects::buildCallChain(M);
  return nullptr;
}

TEST_P(RoundTripSemanticsTest, ExecutionPreserved) {
  std::string Name = GetParam();
  Module M;
  Function *F = buildSubject(M, Name);
  ASSERT_NE(F, nullptr);

  std::string Text = toString(M);
  auto Parsed = parseModule(Text);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  Module &M2 = **Parsed;
  Function *F2 = M2.functionByName(Name);
  ASSERT_NE(F2, nullptr);

  Engine E1(M);
  Engine E2(M2);
  ExecContext C1(M);
  ExecContext C2(M2);
  RNG R(0x12a7);
  for (int I = 0; I < 300; ++I) {
    std::vector<RTValue> Args;
    for (unsigned A = 0; A < F->numArgs(); ++A) {
      double X = I % 3 == 0 ? R.anyFiniteDouble() : R.uniform(-200, 200);
      Args.push_back(RTValue::ofDouble(X));
    }
    ExecResult A1 = E1.run(F, Args, C1);
    ExecResult A2 = E2.run(F2, Args, C2);
    ASSERT_EQ(A1.Kind, A2.Kind);
    if (A1.ok() && F->returnType() == Type::Double) {
      EXPECT_EQ(bitsOf(A1.ReturnValue.asDouble()),
                bitsOf(A2.ReturnValue.asDouble()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, RoundTripSemanticsTest,
                         ::testing::Values("fig2", "fig1a", "fig1b",
                                           "glibc_sin", "straightline",
                                           "loop_accum", "classifier",
                                           "callchain_f"));

/// Property: every instrumentation pass preserves the subject's return
/// value on inputs that do not trigger the overflow pass's early return.
TEST(InstrumentationSemanticsTest, PassesPreserveReturnValues) {
  Module M;
  subjects::Fig2 P = subjects::buildFig2(M);
  instr::BoundaryInstrumentation BI = instr::instrumentBoundary(*P.F);
  instr::PathSpec Spec;
  Spec.Legs.push_back({P.Branch1, true});
  Spec.Legs.push_back({P.Branch2, true});
  instr::PathInstrumentation PI = instr::instrumentPath(*P.F, Spec);
  instr::CoverageInstrumentation CI = instr::instrumentCoverage(*P.F);
  instr::OverflowInstrumentation OI = instr::instrumentOverflow(*P.F);
  ASSERT_TRUE(verifyModule(M).ok()) << verifyModule(M).message();

  Engine E(M);
  ExecContext Ctx(M);
  RNG R(0xfee1);
  for (int I = 0; I < 200; ++I) {
    double X = R.uniform(-50, 50);
    std::vector<RTValue> Args{RTValue::ofDouble(X)};
    double Orig = E.run(P.F, Args, Ctx).ReturnValue.asDouble();
    for (Function *Wrapped :
         {BI.Wrapped, PI.Wrapped, CI.Wrapped, OI.Wrapped}) {
      double Got = E.run(Wrapped, Args, Ctx).ReturnValue.asDouble();
      EXPECT_EQ(bitsOf(Orig), bitsOf(Got))
          << Wrapped->name() << " at x = " << X;
    }
  }
}

/// End-to-end through the parser: a module written as text, instrumented
/// and analyzed without ever touching the builder API.
TEST(TextualPipelineTest, ParseInstrumentSolve) {
  const char *Text = R"(
module "pipeline"
func @f(%x: double) -> double {
entry:
  %y = fmul %x, %x
  %c = fcmp.le %y, 25.0
  condbr %c, small, big
small:
  ret %y
big:
  ret 0.0
}
)";
  auto Parsed = parseModule(Text);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  Module &M = **Parsed;
  analyses::BoundaryAnalysis BVA(M, *M.functionByName("f"));

  opt::BasinHopping Backend;
  core::SearchOptions Opts;
  Opts.Seed = 5;
  Opts.MaxEvals = 40'000;
  core::SearchResult R = BVA.findOne(Backend, Opts);
  ASSERT_TRUE(R.Found);
  // Boundary: x*x == 25 exactly -> x = +-5.
  EXPECT_EQ(std::fabs(R.Witness[0]), 5.0);
}

/// Def. 3.1 as a cross-layer property: for every analysis weak distance
/// on fig2, W(x) >= 0 and W(x) == 0 iff the oracle accepts x.
TEST(WeakDistanceContractTest, AllAnalysesOnFig2) {
  Module M;
  subjects::Fig2 P = subjects::buildFig2(M);
  analyses::BoundaryAnalysis BVA(M, *P.F);
  instr::PathSpec Spec;
  Spec.Legs.push_back({P.Branch1, true});
  Spec.Legs.push_back({P.Branch2, false});
  analyses::PathReachability PR(M, *P.F, Spec);

  RNG R(0xc0ffee);
  for (int I = 0; I < 400; ++I) {
    double X = I < 200 ? R.uniform(-30, 30) : R.anyFiniteDouble();
    double WB = BVA.weak()({X});
    EXPECT_GE(WB, 0.0);
    EXPECT_EQ(WB == 0.0, !BVA.hitsFor({X}).empty()) << "x = " << X;
    double WP = PR.weak()({X});
    EXPECT_GE(WP, 0.0);
    EXPECT_EQ(WP == 0.0, PR.follows({X})) << "x = " << X;
  }
}

/// The overflow detector's end-to-end guarantee on a tiny subject:
/// every operation is classified, found inputs replay, and the "cannot
/// overflow" case is a miss, not a false positive.
TEST(OverflowEndToEndTest, ClassifiesAllSites) {
  Module M;
  // f(x) = (x * x) + 0.0 * x: the multiply overflows, the scaled term
  // cannot (0 * x is 0 or NaN, never large), the add can.
  Function *F = M.addFunction("f", Type::Double);
  Argument *X = F->addArg(Type::Double, "x");
  IRBuilder B(M);
  B.setInsertAppend(F->addBlock("entry"));
  Value *Sq = B.fmul(X, X);
  Value *Zero = B.fmul(B.lit(0.0), X);
  Value *Sum = B.fadd(Sq, Zero);
  B.ret(Sum);

  analyses::OverflowDetector Det(M, *F);
  analyses::OverflowDetector::Options Opts;
  Opts.Seed = 3;
  analyses::OverflowReport R = Det.run(Opts);
  ASSERT_EQ(R.Findings.size(), 3u);
  // x*x: overflow at |x| ~ 1.4e154.
  EXPECT_TRUE(R.Findings[0].Found);
  // 0*x: never overflows to |.| >= MAX... unless x is inf, which wild
  // starts exclude (finite doubles only); NaN results do count as
  // "overflow-ish" per the |a| < MAX check failing, and 0 * x stays 0
  // for every finite x. Must be missed.
  EXPECT_FALSE(R.Findings[1].Found);
  for (const analyses::OverflowFinding &Fd : R.Findings) {
    if (Fd.Found) {
      EXPECT_TRUE(Det.overflowsAt(Fd.SiteId, Fd.Input));
    }
  }
}

/// Determinism across the whole stack: identical seeds give identical
/// experiment outcomes (the reproducibility claim of DESIGN.md).
TEST(DeterminismTest, FullAnalysisPipeline) {
  auto Run = [] {
    Module M;
    subjects::Fig2 P = subjects::buildFig2(M);
    analyses::BoundaryAnalysis BVA(M, *P.F);
    opt::BasinHopping Backend;
    core::SearchOptions Opts;
    Opts.Seed = 0xd00d;
    Opts.MaxEvals = 20'000;
    return BVA.findOne(Backend, Opts);
  };
  core::SearchResult A = Run();
  core::SearchResult B = Run();
  ASSERT_EQ(A.Found, B.Found);
  EXPECT_EQ(A.Witness, B.Witness);
  EXPECT_EQ(A.Evals, B.Evals);
  EXPECT_EQ(A.WStar, B.WStar);
}

/// The GSL trio coexists in one module with every pass applied — the
/// heaviest single-module configuration the benches use.
TEST(StressTest, AllGslModelsInstrumentedTogether) {
  Module M;
  gsl::SfFunction Bessel = gsl::buildBesselKnuScaledAsympx(M);
  gsl::SfFunction Hyperg = gsl::buildHyperg2F0(M);
  gsl::AiryModel Airy = gsl::buildAiryAi(M);

  instr::OverflowInstrumentation O1 = instr::instrumentOverflow(*Bessel.F);
  instr::OverflowInstrumentation O2 = instr::instrumentOverflow(*Hyperg.F);
  instr::OverflowInstrumentation O3 =
      instr::instrumentOverflow(*Airy.Airy.F);
  instr::BoundaryInstrumentation B1 = instr::instrumentBoundary(*Airy.Airy.F);
  Status S = verifyModule(M);
  ASSERT_TRUE(S.ok()) << S.message();

  Engine E(M);
  ExecContext Ctx(M);

  // Every wrapped function still executes.
  instr::IRWeakDistance W1(E, O1.Wrapped, O1.W, O1.WInit, Ctx);
  instr::IRWeakDistance W2(E, O2.Wrapped, O2.W, O2.WInit, Ctx);
  instr::IRWeakDistance W3(E, O3.Wrapped, O3.W, O3.WInit, Ctx);
  instr::IRWeakDistance W4(E, B1.Wrapped, B1.W, B1.WInit, Ctx);
  EXPECT_GE(W1({1.5, 2.0}), 0.0);
  EXPECT_GE(W2({1.0, 2.0, -0.5}), 0.0);
  EXPECT_GE(W3({-3.0}), 0.0);
  EXPECT_GE(W4({-3.0}), 0.0);
  // And the round trip still holds for the fully instrumented module.
  std::string Text = toString(M);
  auto Parsed = parseModule(Text);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  EXPECT_EQ(toString(**Parsed), Text);
}

} // namespace
