//===--- InstrumentTests.cpp - Instrumentation pass tests ----------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "gsl/Airy.h"
#include "gsl/Bessel.h"
#include "gsl/Hyperg.h"
#include "instrument/BoundaryPass.h"
#include "instrument/BranchDistance.h"
#include "instrument/Cloner.h"
#include "instrument/CoveragePass.h"
#include "instrument/IRWeakDistance.h"
#include "instrument/Observers.h"
#include "instrument/OverflowPass.h"
#include "instrument/PathPass.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "jit/JITCompile.h"
#include "jit/JITWeakDistance.h"
#include "subjects/Fig2.h"
#include "subjects/SinModel.h"
#include "subjects/TestPrograms.h"
#include "support/FPUtils.h"
#include "support/RNG.h"
#include "vm/Lowering.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace wdm;
using namespace wdm::exec;
using namespace wdm::instr;
using namespace wdm::ir;

namespace {

// --------------------------------------------------------------------------
// Cloner
// --------------------------------------------------------------------------

TEST(ClonerTest, CloneIsSemanticallyIdentical) {
  Module M;
  subjects::Fig2 P = subjects::buildFig2(M);
  Function *Clone = cloneFunction(*P.F, "fig2.copy");
  ASSERT_TRUE(verifyModule(M).ok()) << verifyModule(M).message();

  Engine E(M);
  ExecContext Ctx(M);
  RNG R(21);
  for (int I = 0; I < 200; ++I) {
    double X = I < 100 ? R.uniform(-10, 10) : R.anyFiniteDouble();
    ExecResult A = E.run(P.F, {RTValue::ofDouble(X)}, Ctx);
    ExecResult B = E.run(Clone, {RTValue::ofDouble(X)}, Ctx);
    ASSERT_TRUE(A.ok() && B.ok());
    EXPECT_EQ(bitsOf(A.ReturnValue.asDouble()),
              bitsOf(B.ReturnValue.asDouble()))
        << "at x = " << X;
  }
}

TEST(ClonerTest, PreservesIdsAndAnnotations) {
  Module M;
  subjects::Fig2 P = subjects::buildFig2(M);
  SiteTable Sites = assignComparisonSites(*P.F);
  ASSERT_EQ(Sites.size(), 2u);
  std::unordered_map<const Instruction *, Instruction *> Map;
  Function *Clone = cloneFunction(*P.F, "fig2.copy", &Map);
  (void)Clone;
  for (const Site &S : Sites) {
    auto It = Map.find(S.Inst);
    ASSERT_NE(It, Map.end());
    EXPECT_EQ(It->second->id(), S.Id);
    EXPECT_EQ(It->second->annotation(), S.Inst->annotation());
  }
}

// --------------------------------------------------------------------------
// Site assignment
// --------------------------------------------------------------------------

TEST(SitesTest, CountsPerKind) {
  Module M;
  Function *F = subjects::buildClassifier(M);
  SiteTable Cmps = assignComparisonSites(*F);
  EXPECT_EQ(Cmps.size(), 4u);
  SiteTable Branches = assignBranchSites(*F);
  EXPECT_EQ(Branches.size(), 8u); // two directions per condbr

  Module M2;
  Function *S = subjects::buildStraightline(M2);
  SiteTable Ops = assignFPOpSites(*S);
  EXPECT_EQ(Ops.size(), 3u); // fadd, fsub, fmul
}

TEST(SitesTest, TableLookup) {
  Module M;
  subjects::Fig2 P = subjects::buildFig2(M);
  SiteTable Sites = assignComparisonSites(*P.F);
  const Site *First = Sites.byId(Sites[0].Id);
  ASSERT_NE(First, nullptr);
  EXPECT_EQ(First->Kind, SiteKind::Comparison);
  EXPECT_EQ(Sites.byId(99999), nullptr);
}

// --------------------------------------------------------------------------
// Branch distances (parameterized over predicate x desired outcome)
// --------------------------------------------------------------------------

struct DistCase {
  CmpPred Pred;
  bool Desired;
  double A, B;
  double Expected;
};

class BranchDistanceTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(BranchDistanceTest, Matches) {
  const DistCase &C = GetParam();
  Module M;
  Function *F = M.addFunction("f", Type::Double);
  Argument *A = F->addArg(Type::Double, "a");
  Argument *B = F->addArg(Type::Double, "b");
  IRBuilder Bld(M);
  Bld.setInsertAppend(F->addBlock("entry"));
  Instruction *Cmp = Bld.fcmp(C.Pred, A, B);
  Value *D = emitDistanceToOutcome(Bld, Cmp, C.Desired);
  Bld.ret(D);
  ASSERT_TRUE(verifyModule(M).ok()) << verifyModule(M).message();

  Engine E(M);
  ExecContext Ctx(M);
  ExecResult R =
      E.run(F, {RTValue::ofDouble(C.A), RTValue::ofDouble(C.B)}, Ctx);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue.asDouble(), C.Expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllPreds, BranchDistanceTest,
    ::testing::Values(
        // LE desired-true: a <= b ? 0 : a - b (Fig. 4's injection).
        DistCase{CmpPred::LE, true, 1.0, 3.0, 0.0},
        DistCase{CmpPred::LE, true, 5.0, 3.0, 2.0},
        DistCase{CmpPred::LE, true, 3.0, 3.0, 0.0},
        // LE desired-false == GT: strict predicates add +1 on violation.
        DistCase{CmpPred::LE, false, 3.0, 3.0, 1.0},
        DistCase{CmpPred::LE, false, 1.0, 3.0, 3.0},
        DistCase{CmpPred::LE, false, 4.0, 3.0, 0.0},
        // LT desired-true.
        DistCase{CmpPred::LT, true, 3.0, 3.0, 1.0},
        DistCase{CmpPred::LT, true, 2.0, 3.0, 0.0},
        // EQ both ways.
        DistCase{CmpPred::EQ, true, 2.0, 5.0, 3.0},
        DistCase{CmpPred::EQ, true, 5.0, 5.0, 0.0},
        DistCase{CmpPred::EQ, false, 5.0, 5.0, 1.0},
        DistCase{CmpPred::EQ, false, 2.0, 5.0, 0.0},
        // GE / GT.
        DistCase{CmpPred::GE, true, 2.0, 5.0, 3.0},
        DistCase{CmpPred::GT, true, 5.0, 5.0, 1.0},
        DistCase{CmpPred::GT, false, 5.0, 4.0, 1.0}));

TEST(BranchDistanceTest, IntegerComparison) {
  Module M;
  Function *F = M.addFunction("f", Type::Double);
  Argument *X = F->addArg(Type::Double, "x");
  IRBuilder B(M);
  B.setInsertAppend(F->addBlock("entry"));
  Value *HW = B.highword(X);
  Value *K = B.iand(HW, B.litInt(0x7fffffff));
  Instruction *Cmp = B.icmp(CmpPred::LT, K, B.litInt(0x3ff00000));
  Value *D = emitBoundaryDistance(B, Cmp);
  B.ret(D);
  Engine E(M);
  ExecContext Ctx(M);
  // |highword(2.0) & mask - 0x3ff00000| = |0x40000000 - 0x3ff00000|.
  double Expected = static_cast<double>(0x40000000 - 0x3ff00000);
  EXPECT_EQ(E.run(F, {RTValue::ofDouble(2.0)}, Ctx).ReturnValue.asDouble(),
            Expected);
  // At 1.0 the distance vanishes: boundary condition.
  EXPECT_EQ(E.run(F, {RTValue::ofDouble(1.0)}, Ctx).ReturnValue.asDouble(),
            0.0);
}

TEST(BranchDistanceTest, NegatePredInvolution) {
  for (CmpPred P : {CmpPred::EQ, CmpPred::NE, CmpPred::LT, CmpPred::LE,
                    CmpPred::GT, CmpPred::GE})
    EXPECT_EQ(negatePred(negatePred(P)), P);
}

// --------------------------------------------------------------------------
// Boundary pass
// --------------------------------------------------------------------------

/// Def. 3.1(a): W >= 0 everywhere. Property-checked over random inputs
/// for both accumulation forms.
class BoundaryFormTest
    : public ::testing::TestWithParam<instr::BoundaryForm> {};

TEST_P(BoundaryFormTest, NonNegativeEverywhere) {
  Module M;
  subjects::Fig2 P = subjects::buildFig2(M);
  BoundaryInstrumentation BI = instrumentBoundary(*P.F, GetParam());
  ASSERT_TRUE(verifyModule(M).ok()) << verifyModule(M).message();
  Engine E(M);
  ExecContext Ctx(M);
  IRWeakDistance W(E, BI.Wrapped, BI.W, BI.WInit, Ctx);

  RNG R(31);
  for (int I = 0; I < 500; ++I) {
    double X = I < 250 ? R.uniform(-20, 20) : R.anyFiniteDouble();
    double V = W({X});
    EXPECT_GE(V, 0.0) << "at x = " << X;
  }
}

TEST_P(BoundaryFormTest, ZeroExactlyOnBoundaryValues) {
  Module M;
  subjects::Fig2 P = subjects::buildFig2(M);
  BoundaryInstrumentation BI = instrumentBoundary(*P.F, GetParam());
  Engine E(M);
  ExecContext WCtx(M), PCtx(M);
  IRWeakDistance W(E, BI.Wrapped, BI.W, BI.WInit, WCtx);

  auto IsBoundary = [&](double X) {
    BoundaryHitObserver Obs;
    PCtx.resetGlobals();
    PCtx.setObserver(&Obs);
    E.run(P.F, {RTValue::ofDouble(X)}, PCtx);
    PCtx.setObserver(nullptr);
    return Obs.any();
  };

  RNG R(32);
  for (int I = 0; I < 300; ++I) {
    double X;
    switch (I % 5) {
    case 0:
      X = 1.0;
      break;
    case 1:
      X = -3.0;
      break;
    case 2:
      X = 2.0;
      break;
    default:
      X = R.uniform(-20, 20);
      break;
    }
    EXPECT_EQ(W({X}) == 0.0, IsBoundary(X)) << "at x = " << X;
  }
}

INSTANTIATE_TEST_SUITE_P(Forms, BoundaryFormTest,
                         ::testing::Values(instr::BoundaryForm::Product,
                                           instr::BoundaryForm::Min,
                                           instr::BoundaryForm::MinUlp));

TEST(BoundaryPassTest, InstrumentationPreservesSemantics) {
  Module M;
  subjects::Fig2 P = subjects::buildFig2(M);
  BoundaryInstrumentation BI = instrumentBoundary(*P.F);
  Engine E(M);
  ExecContext Ctx(M);
  RNG R(33);
  for (int I = 0; I < 200; ++I) {
    double X = R.uniform(-100, 100);
    double Orig = E.run(P.F, {RTValue::ofDouble(X)}, Ctx)
                      .ReturnValue.asDouble();
    double Wrapped = E.run(BI.Wrapped, {RTValue::ofDouble(X)}, Ctx)
                         .ReturnValue.asDouble();
    EXPECT_EQ(bitsOf(Orig), bitsOf(Wrapped)) << "at x = " << X;
  }
}

TEST(BoundaryPassTest, ProductClampPreventsNaN) {
  // A subject whose first comparison has an *infinite* |a-b| and whose
  // second hits a boundary: without the pass's clamping, the product
  // would evaluate 0 * inf = NaN and destroy the zero (a Limitation 2
  // hazard).
  Module M;
  Function *F = M.addFunction("f", Type::Double);
  Argument *X = F->addArg(Type::Double, "x");
  IRBuilder B(M);
  B.setInsertAppend(F->addBlock("entry"));
  Value *Big = B.fmul(X, B.lit(1e308)); // inf for x = 1e307
  Value *C1 = B.fcmp(CmpPred::LE, Big, B.lit(0.0));
  Value *Y = B.select(C1, B.lit(1.0), B.lit(2.0));
  Value *C2 = B.fcmp(CmpPred::EQ, X, B.lit(1e307));
  Value *Z = B.select(C2, Y, B.lit(3.0));
  B.ret(Z);
  ASSERT_TRUE(verifyModule(M).ok()) << verifyModule(M).message();

  BoundaryInstrumentation BI = instrumentBoundary(*F);
  Engine E(M);
  ExecContext Ctx(M);
  IRWeakDistance W(E, BI.Wrapped, BI.W, BI.WInit, Ctx);
  // x = 1e307: |Big - 0| = inf at the first comparison, |x - 1e307| = 0
  // at the second. The weak distance must be exactly 0, not NaN.
  EXPECT_EQ(W({1e307}), 0.0);
}

TEST(BoundaryPassTest, SinModelBoundaryExactness) {
  Module M;
  subjects::SinModel Sin = subjects::buildSinModel(M);
  BoundaryInstrumentation BI = instrumentBoundary(*Sin.F);
  Engine E(M);
  ExecContext Ctx(M);
  IRWeakDistance W(E, BI.Wrapped, BI.W, BI.WInit, Ctx);
  for (unsigned I = 0; I < 4; ++I) {
    double Ref = Sin.refBoundary(I);
    EXPECT_EQ(W({Ref}), 0.0);
    // One ulp below the threshold the high word changes, so the boundary
    // no longer triggers... but only when the low word wraps; going a full
    // high-word step away definitely leaves the boundary.
    double Away = fromBits(bitsOf(Ref) + (1ull << 33));
    EXPECT_GT(W({Away}), 0.0) << "threshold " << I;
  }
}

// --------------------------------------------------------------------------
// Path pass
// --------------------------------------------------------------------------

TEST(PathPassTest, UnreachedLegKeepsWPositive) {
  // Requiring only the inner `x == 42` branch of the classifier: inputs
  // that never reach it (x < 0) must NOT have weak distance 0.
  Module M;
  Function *F = subjects::buildClassifier(M);
  // The third condbr in layout order is `is.magic`.
  std::vector<const Instruction *> Branches;
  F->forEachInst([&](const Instruction *I) {
    if (I->opcode() == Opcode::CondBr)
      Branches.push_back(I);
  });
  ASSERT_EQ(Branches.size(), 4u);
  PathSpec Spec;
  Spec.Legs.push_back({Branches[3], true}); // is.magic == true

  PathInstrumentation PI = instrumentPath(*F, Spec);
  ASSERT_TRUE(verifyModule(M).ok()) << verifyModule(M).message();
  Engine E(M);
  ExecContext Ctx(M);
  IRWeakDistance W(E, PI.Wrapped, PI.W, PI.WInit, Ctx);

  EXPECT_EQ(W({42.0}), 0.0);
  EXPECT_GT(W({43.0}), 0.0);
  // x = -5 diverts at the first branch; the leg is never visited. The
  // first-visit discount never fires, so W stays at least 1.
  EXPECT_GE(W({-5.0}), 1.0);
}

TEST(PathPassTest, DistanceDecreasesTowardPath) {
  Module M;
  subjects::Fig2 P = subjects::buildFig2(M);
  PathSpec Spec;
  Spec.Legs.push_back({P.Branch1, true});
  Spec.Legs.push_back({P.Branch2, true});
  PathInstrumentation PI = instrumentPath(*P.F, Spec);
  Engine E(M);
  ExecContext Ctx(M);
  IRWeakDistance W(E, PI.Wrapped, PI.W, PI.WInit, Ctx);
  // Approaching the [-3, 1] solution region from the right, the weak
  // distance decreases monotonically — the gradient MO exploits.
  EXPECT_GT(W({6.0}), W({4.0}));
  EXPECT_GT(W({4.0}), W({2.0}));
  EXPECT_EQ(W({1.0}), 0.0);
}

// --------------------------------------------------------------------------
// Coverage pass
// --------------------------------------------------------------------------

TEST(CoveragePassTest, GatingTracksCoveredSet) {
  Module M;
  subjects::Fig2 P = subjects::buildFig2(M);
  CoverageInstrumentation CI = instrumentCoverage(*P.F);
  ASSERT_EQ(CI.Sites.size(), 4u);
  Engine E(M);
  ExecContext Ctx(M);
  IRWeakDistance W(E, CI.Wrapped, CI.W, CI.WInit, Ctx);

  // Everything uncovered: any input reaches some uncovered direction.
  EXPECT_EQ(W({0.0}), 0.0);

  // Cover exactly the directions x=0 takes (true, true). Then x=0 is no
  // longer interesting but x=5 (false, false) is.
  int B1True = P.Branch1->id();
  int B2True = P.Branch2->id();
  Ctx.setSiteEnabled(B1True, false);
  Ctx.setSiteEnabled(B2True, false);
  EXPECT_GT(W({0.0}), 0.0);
  EXPECT_EQ(W({5.0}), 0.0);

  // Cover the rest: no input can reach anything new.
  Ctx.setSiteEnabled(B1True + 1, false);
  Ctx.setSiteEnabled(B2True + 1, false);
  EXPECT_GT(W({0.0}), 0.0);
  EXPECT_GT(W({5.0}), 0.0);
  EXPECT_GT(W({-100.0}), 0.0);
}

// --------------------------------------------------------------------------
// Overflow pass
// --------------------------------------------------------------------------

TEST(OverflowPassTest, EarlyReturnAndLastSite) {
  Module M;
  Function *F = subjects::buildStraightline(M); // (a+b)*(a-b)
  OverflowInstrumentation OI = instrumentOverflow(*F);
  ASSERT_TRUE(verifyModule(M).ok()) << verifyModule(M).message();
  ASSERT_EQ(OI.Sites.size(), 3u);
  Engine E(M);
  ExecContext Ctx(M);
  IRWeakDistance W(E, OI.Wrapped, OI.W, OI.WInit, Ctx);

  // Benign inputs: positive weak distance, last site = last FP op.
  EXPECT_GT(W({1.0, 2.0}), 0.0);
  EXPECT_EQ(Ctx.getGlobal(OI.LastSite).asInt(), OI.Sites[2].Id);

  // a+b overflows at the first op: early return, last site = first op.
  EXPECT_EQ(W({1.7e308, 1.7e308}), 0.0);
  EXPECT_EQ(Ctx.getGlobal(OI.LastSite).asInt(), OI.Sites[0].Id);

  // Disable the first site: the same input now reports the next op that
  // overflows (a-b = 0 doesn't, (a+b)*(a-b) = inf*0 = nan does).
  Ctx.setSiteEnabled(OI.Sites[0].Id, false);
  double WVal = W({1.7e308, 1.7e308});
  EXPECT_EQ(WVal, 0.0); // nan |a| is not < MAX, so w = 0 (overflow-ish)
  EXPECT_EQ(Ctx.getGlobal(OI.LastSite).asInt(), OI.Sites[2].Id);
}

/// Guidance comparison across overflow metrics (the Section 7
/// ULP-ization applied to Instance 3): the paper's MAX - |a| form has an
/// absorption plateau below |a| ~ 2e292; the ULP gap is monotone at
/// every magnitude.
TEST(OverflowPassTest, WeakDistanceGuidesTowardOverflow) {
  for (OverflowMetric Metric :
       {OverflowMetric::AbsGap, OverflowMetric::UlpGap}) {
    Module M;
    gsl::SfFunction Bessel = gsl::buildBesselKnuScaledAsympx(M);
    OverflowInstrumentation OI = instrumentOverflow(*Bessel.F, Metric);
    Engine E(M);
    ExecContext Ctx(M);
    IRWeakDistance W(E, OI.Wrapped, OI.W, OI.WInit, Ctx);
    // Focus on one target, as Algorithm 3's rounds do: keep only the
    // mu = t * nu site enabled (later sites would otherwise reach zero
    // first for large nu).
    for (const Site &S : OI.Sites)
      Ctx.setSiteEnabled(S.Id, S.Description == "double mu = 4.0*nu * nu");
    if (Metric == OverflowMetric::AbsGap) {
      // Plateau: MAX - 4.0 rounds back to MAX.
      EXPECT_EQ(W({1.0, 1.0}), MaxDouble);
    } else {
      // No plateau: the ULP gap already distinguishes tiny |mu|.
      EXPECT_LT(W({1.0, 1.0}), MaxDouble);
      EXPECT_GT(W({1.0, 1.0}), W({1e10, 1.0}));
      EXPECT_GT(W({1e10, 1.0}), W({1e100, 1.0}));
    }
    // Both metrics are monotone inside the responsive range...
    EXPECT_GT(W({1e150, 1.0}), W({1e153, 1.0}));
    EXPECT_GT(W({1e153, 1.0}), W({2e153, 1.0}));
    // ...and share the zero set: nu ~ 1e160 -> mu = 4e320 overflows.
    EXPECT_EQ(W({1e160, 1.0}), 0.0);
  }
}

/// The "l not in L" gate is a real branch: a retired site costs its
/// site_enabled read and the branch (2 steps), a live one on a benign
/// value additionally runs the 8-instruction check block (10 steps).
/// Every tier counts the same steps.
TEST(OverflowPassTest, RetiredSiteCostsTwoSteps) {
  for (OverflowMetric Metric :
       {OverflowMetric::AbsGap, OverflowMetric::UlpGap}) {
    Module M;
    Function *F = subjects::buildStraightline(M); // (a+b)*(a-b)
    OverflowInstrumentation OI = instrumentOverflow(*F, Metric);
    ASSERT_EQ(OI.Sites.size(), 3u);
    const uint64_t NumSites = OI.Sites.size();

    Engine E(M);
    vm::CompiledModule CM = vm::compile(M);
    jit::CompiledModule JM = jit::compile(CM);
    vm::Machine Mach(CM);
    const std::vector<RTValue> Args{RTValue::ofDouble(1.0),
                                    RTValue::ofDouble(2.0)};

    // Steps of \p Fn on Args under each tier, with every site live or
    // every site retired.
    auto StepsOn = [&](const Function *Fn, bool Live) {
      ExecContext Ctx(M);
      for (const Site &S : OI.Sites)
        Ctx.setSiteEnabled(S.Id, Live);
      std::vector<uint64_t> Steps;
      ExecResult RI = E.run(Fn, Args, Ctx);
      EXPECT_TRUE(RI.ok());
      Steps.push_back(RI.Steps);
      const vm::CompiledFunction *CF = CM.lookup(Fn);
      EXPECT_TRUE(CF && CF->Ok);
      if (CF && CF->Ok) {
        Ctx.resetGlobals();
        Steps.push_back(Mach.run(*CF, Args, Ctx).Steps);
      }
      const jit::CompiledFunction *JF = JM.lookup(Fn);
      if (jit::available() && JF && JF->Ok) {
        Ctx.resetGlobals();
        Steps.push_back(jit::run(JM, *JF, Args, Ctx).Steps);
      }
      return Steps;
    };

    const std::vector<uint64_t> Orig = StepsOn(F, true);
    const std::vector<uint64_t> Live = StepsOn(OI.Wrapped, true);
    const std::vector<uint64_t> Retired = StepsOn(OI.Wrapped, false);
    ASSERT_GE(Orig.size(), 2u);
    ASSERT_EQ(Live.size(), Orig.size());
    ASSERT_EQ(Retired.size(), Orig.size());
    if (jit::available()) {
      EXPECT_EQ(Orig.size(), 3u) << "the JIT should take straightline";
    }
    for (size_t T = 0; T < Orig.size(); ++T) {
      EXPECT_EQ(Orig[T], Orig[0]) << "tier " << T;
      EXPECT_EQ(Live[T], Orig[T] + 10 * NumSites) << "tier " << T;
      EXPECT_EQ(Retired[T], Orig[T] + 2 * NumSites) << "tier " << T;
    }
  }
}

/// FNV-1a over the (w bits, last_site) stream of the GSL subjects under
/// both metrics, 64 seeded inputs and 4 seeded site masks. The constant
/// was captured from the select-based (branch-free) form of the pass;
/// the gated form must reproduce it bit for bit.
TEST(OverflowPassTest, GatedFormKeepsParentBits) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  auto Mix = [&Hash](uint64_t V) {
    for (int Byte = 0; Byte < 8; ++Byte) {
      Hash ^= (V >> (8 * Byte)) & 0xff;
      Hash *= 0x100000001b3ull;
    }
  };
  for (const char *Name : {"bessel", "hyperg", "airy"}) {
    for (OverflowMetric Metric :
         {OverflowMetric::AbsGap, OverflowMetric::UlpGap}) {
      Module M;
      Function *F = nullptr;
      if (std::string(Name) == "bessel")
        F = gsl::buildBesselKnuScaledAsympx(M).F;
      else if (std::string(Name) == "hyperg")
        F = gsl::buildHyperg2F0(M).F;
      else
        F = gsl::buildAiryAi(M).Airy.F;
      OverflowInstrumentation OI = instrumentOverflow(*F, Metric);
      Engine E(M);
      ExecContext Ctx(M);
      IRWeakDistance W(E, OI.Wrapped, OI.W, OI.WInit, Ctx);
      RNG Rand(0x0f1a + 17 * OI.Sites.size());
      for (int Mask = 0; Mask < 4; ++Mask) {
        for (const Site &S : OI.Sites)
          Ctx.setSiteEnabled(S.Id, Rand.chance(0.5));
        for (int K = 0; K < 64; ++K) {
          std::vector<double> X(F->numArgs());
          for (double &V : X)
            V = K < 32 ? Rand.uniform(-1e3, 1e3) : Rand.anyFiniteDouble();
          Mix(bitsOf(W(X)));
          Mix(static_cast<uint64_t>(W.readIntGlobal(OI.LastSite)));
        }
      }
    }
  }
  EXPECT_EQ(Hash, 0x0a7deb7dc82f2a67ull) << std::hex << Hash;
}

} // namespace
