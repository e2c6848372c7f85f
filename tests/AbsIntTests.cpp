//===--- AbsIntTests.cpp - Interval abstract interpretation tests --------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// The static pre-pass's contract is *soundness under every runtime
// rounding mode*: every concrete value the interpreter produces must lie
// inside the static interval the analysis certified for that
// instruction. The fuzz half of this file enforces exactly that over
// randomized forward-CFG modules, and the transfer half pins it per
// operation on inexact point and 1-ulp operands, where a bound that is
// not rounded outward shows; the unit half pins the precision the
// pruning consumers rely on (infeasible edges, impossible equalities,
// proved-finite ranges, start-box shrinking).
//
//===----------------------------------------------------------------------===//

#include "absint/AbsInt.h"
#include "exec/Interpreter.h"
#include "instrument/Sites.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "support/FPUtils.h"
#include "subjects/Fig1.h"
#include "support/Casting.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>

#include "RandomModule.h"

using namespace wdm;

namespace {

//===----------------------------------------------------------------------===//
// Soundness fuzz: concrete execution inside static intervals
//===----------------------------------------------------------------------===//

/// Asserts every value-producing instruction's concrete result lies in
/// the interval the analysis certified for it. A bottom fact on an
/// executed instruction is itself a soundness bug (the analysis claimed
/// the instruction unreachable).
class SoundnessObserver : public exec::ExecObserver {
public:
  explicit SoundnessObserver(const absint::FunctionAnalysis &FA)
      : FA(FA) {}

  std::string Where;
  unsigned Checked = 0;

  void onInstruction(const ir::Instruction *I, const exec::RTValue *Ops,
                     unsigned NumOps,
                     const exec::RTValue &Result) override {
    (void)Ops;
    (void)NumOps;
    if (I->type() == ir::Type::Void)
      return;
    absint::AbstractValue Fact = FA.factFor(I);
    ASSERT_EQ(static_cast<int>(Fact.Ty),
              static_cast<int>(Result.type()))
        << Where << " inst %" << I->id();
    ++Checked;
    switch (Result.type()) {
    case ir::Type::Double: {
      double V = Result.asDouble();
      EXPECT_TRUE(Fact.D.contains(V))
          << Where << " inst %" << I->id() << ": concrete " << V
          << " outside [" << Fact.D.Lo << ", " << Fact.D.Hi
          << "] maynan=" << Fact.D.MayNaN;
      break;
    }
    case ir::Type::Int:
      EXPECT_TRUE(Fact.I.contains(Result.asInt()))
          << Where << " inst %" << I->id() << ": concrete "
          << Result.asInt() << " outside [" << Fact.I.Lo << ", "
          << Fact.I.Hi << "]";
      break;
    case ir::Type::Bool:
      EXPECT_TRUE(Fact.B.contains(Result.asBool()))
          << Where << " inst %" << I->id() << ": concrete "
          << Result.asBool();
      break;
    case ir::Type::Void:
      break;
    }
  }

private:
  const absint::FunctionAnalysis &FA;
};

/// One fuzz round: analyze \p F once, then run the interpreter on
/// \p NumInputs inputs under all four rounding modes and check every
/// intermediate value against the static facts.
void fuzzFunction(const ir::Module &M, const ir::Function *F,
                  uint64_t Seed, unsigned NumInputs,
                  const absint::AnalysisOptions &AOpts,
                  bool RestrictedInputs) {
  absint::FunctionAnalysis FA(*F, AOpts);
  exec::Engine E(M);
  exec::ExecContext Ctx(M);
  SoundnessObserver Obs(FA);
  Ctx.setObserver(&Obs);
  RNG Rand(Seed);

  for (exec::RoundingMode RM :
       {exec::RoundingMode::NearestEven, exec::RoundingMode::TowardZero,
        exec::RoundingMode::Upward, exec::RoundingMode::Downward}) {
    exec::ExecOptions Opts;
    Opts.Rounding = RM;
    for (unsigned K = 0; K < NumInputs; ++K) {
      std::vector<double> X;
      if (RestrictedInputs) {
        X.resize(F->numArgs());
        for (unsigned D = 0; D < F->numArgs(); ++D)
          X[D] = Rand.uniform(AOpts.ArgRanges[D].Lo,
                              AOpts.ArgRanges[D].Hi);
      } else {
        X = testutil::drawInput(Rand, F->numArgs());
      }
      std::vector<exec::RTValue> Args;
      for (double V : X)
        Args.push_back(exec::RTValue::ofDouble(V));
      Obs.Where = M.name() + "::" + F->name() + " rm=" +
                  std::to_string(static_cast<int>(RM)) + " input #" +
                  std::to_string(K);
      Ctx.resetGlobals();
      E.run(F, Args, Ctx, Opts);
    }
  }
  EXPECT_GT(Obs.Checked, 0u);
}

TEST(AbsIntSoundnessFuzz, RandomModulesAllRoundingModes) {
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    ir::Module M("absfuzz" + std::to_string(Seed));
    RNG Rand(Seed * 0xab51);
    testutil::buildRandomModule(M, Rand);
    Status S = ir::verifyModule(M);
    ASSERT_TRUE(S.ok()) << "seed " << Seed << ": " << S.message();
    const ir::Function *F = M.functionByName("f");
    ASSERT_NE(F, nullptr);
    fuzzFunction(M, F, Seed * 31 + 7, 8, {}, false);
  }
}

TEST(AbsIntSoundnessFuzz, RestrictedArgRangesStaySound) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    ir::Module M("absfuzzr" + std::to_string(Seed));
    RNG Rand(Seed * 0x517b);
    testutil::buildRandomModule(M, Rand);
    const ir::Function *F = M.functionByName("f");
    ASSERT_NE(F, nullptr);
    absint::AnalysisOptions AOpts;
    for (unsigned D = 0; D < F->numArgs(); ++D)
      AOpts.ArgRanges.push_back(absint::FPInterval::range(-50.0, 50.0));
    fuzzFunction(M, F, Seed * 131 + 3, 6, AOpts, true);
  }
}

TEST(AbsIntSoundnessFuzz, SitesDisabledStillSound) {
  // SiteEnabled is modeled as an unknown bool, so the facts must hold
  // for any disabled-site table.
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    ir::Module M("absfuzzd" + std::to_string(Seed));
    RNG Rand(Seed * 0xd15ab1ed);
    testutil::buildRandomModule(M, Rand);
    const ir::Function *F = M.functionByName("f");
    ASSERT_NE(F, nullptr);
    absint::FunctionAnalysis FA(*F);
    exec::Engine E(M);
    exec::ExecContext Ctx(M);
    for (int Id = 0; Id < M.numSiteIds(); Id += 2)
      Ctx.setSiteEnabled(Id, false);
    SoundnessObserver Obs(FA);
    Ctx.setObserver(&Obs);
    RNG In(Seed * 77 + 5);
    for (unsigned K = 0; K < 10; ++K) {
      std::vector<double> X = testutil::drawInput(In, F->numArgs());
      std::vector<exec::RTValue> Args;
      for (double V : X)
        Args.push_back(exec::RTValue::ofDouble(V));
      Obs.Where = M.name() + " input #" + std::to_string(K);
      Ctx.resetGlobals();
      E.run(F, Args, Ctx, {});
    }
  }
}

//===----------------------------------------------------------------------===//
// Transfer soundness: each exact IEEE operation, every rounding mode
//===----------------------------------------------------------------------===//

/// One-instruction functions of the operations whose endpoints are
/// rounded outward (+ - * / sqrt and int -> double), evaluated by the
/// interpreter under a chosen rounding mode: the concrete side of the
/// containment check.
struct OneOpModule {
  enum Op { Add, Sub, Mul, Div, Sqrt, Conv, NumOps };

  ir::Module M{"oneop"};
  const ir::Function *Fns[NumOps] = {};

  OneOpModule() {
    ir::IRBuilder B(M);
    for (int K = 0; K < NumOps; ++K) {
      ir::Function *F = M.addFunction("op" + std::to_string(K),
                                      ir::Type::Double);
      ir::Argument *X =
          F->addArg(K == Conv ? ir::Type::Int : ir::Type::Double, "x");
      ir::Argument *Y = K < Sqrt ? F->addArg(ir::Type::Double, "y") : nullptr;
      B.setInsertAppend(F->addBlock("entry"));
      ir::Value *R = nullptr;
      switch (K) {
      case Add:
        R = B.fadd(X, Y);
        break;
      case Sub:
        R = B.fsub(X, Y);
        break;
      case Mul:
        R = B.fmul(X, Y);
        break;
      case Div:
        R = B.fdiv(X, Y);
        break;
      case Sqrt:
        R = B.sqrt(X);
        break;
      default:
        R = B.sitofp(X);
        break;
      }
      B.ret(R);
      Fns[K] = F;
    }
    E = std::make_unique<exec::Engine>(M); // numbers the finished module
  }

  double run(Op K, std::vector<exec::RTValue> Args,
             exec::RoundingMode RM) const {
    exec::ExecOptions Opts;
    Opts.Rounding = RM;
    exec::ExecContext Ctx(M);
    return E->run(Fns[K], Args, Ctx, Opts).ReturnValue.asDouble();
  }

private:
  std::unique_ptr<exec::Engine> E;
};

const exec::RoundingMode AllModes[] = {
    exec::RoundingMode::NearestEven, exec::RoundingMode::TowardZero,
    exec::RoundingMode::Upward, exec::RoundingMode::Downward};

std::string hex(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%a", V);
  return Buf;
}

/// Checks that abs(A, B) contains OneOpModule's concrete result for every
/// pair of members of A and B (each has at most two) under every mode.
void expectBinaryContains(const OneOpModule &Ops, OneOpModule::Op K,
                          const absint::FPInterval &A,
                          const absint::FPInterval &B) {
  using Fn = absint::FPInterval (*)(const absint::FPInterval &,
                                    const absint::FPInterval &);
  const Fn Abs[] = {absint::absFAdd, absint::absFSub, absint::absFMul,
                    absint::absFDiv};
  absint::FPInterval R = Abs[K](A, B);
  for (double X : {A.Lo, A.Hi})
    for (double Y : {B.Lo, B.Hi})
      for (exec::RoundingMode RM : AllModes) {
        double C = Ops.run(K, {exec::RTValue::ofDouble(X),
                               exec::RTValue::ofDouble(Y)},
                           RM);
        EXPECT_TRUE(R.contains(C))
            << "op " << K << " rm " << static_cast<int>(RM) << ": " << hex(X)
            << ", " << hex(Y) << " -> " << hex(C) << " outside [" << hex(R.Lo)
            << ", " << hex(R.Hi) << "] maynan=" << R.MayNaN;
      }
}

TEST(AbsIntTransfer, PointOpsContainEveryRoundingMode) {
  OneOpModule Ops;
  // Inexact operations whose bounds a single rounding direction misses
  // (0.1*3 and 0.1+0.2 round differently up and down; 1e308*10 overflows
  // to inf upward but to MAX downward).
  const double Named[][2] = {{0.1, 3.0}, {0.1, 0.2}, {1.0, 3.0},
                             {1e308, 10.0}};
  for (const auto &P : Named)
    for (int K = OneOpModule::Add; K <= OneOpModule::Div; ++K)
      expectBinaryContains(Ops, static_cast<OneOpModule::Op>(K),
                           absint::FPInterval::point(P[0]),
                           absint::FPInterval::point(P[1]));

  RNG Rand(0x7a5f);
  auto Draw = [&]() {
    // Half ordinary magnitudes (rounding in every op), half anywhere in
    // F (overflow and underflow).
    if (Rand.chance(0.5))
      return Rand.anyFiniteDouble();
    double V = std::ldexp(Rand.uniform(1.0, 2.0),
                          static_cast<int>(Rand.intIn(-40, 40)));
    return Rand.chance(0.5) ? -V : V;
  };
  auto Operand = [&](double V, bool Wide) {
    return absint::FPInterval::range(V, Wide ? nextUp(V) : V);
  };
  for (unsigned N = 0; N < 300; ++N) {
    double X = Draw(), Y = Draw();
    for (bool WideX : {false, true})
      for (bool WideY : {false, true})
        for (int K = OneOpModule::Add; K <= OneOpModule::Div; ++K)
          expectBinaryContains(Ops, static_cast<OneOpModule::Op>(K),
                               Operand(X, WideX), Operand(Y, WideY));

    double Root = std::fabs(X);
    for (bool Wide : {false, true}) {
      absint::FPInterval A = Operand(Root, Wide);
      absint::FPInterval R = absint::absSqrt(A);
      for (double V : {A.Lo, A.Hi})
        for (exec::RoundingMode RM : AllModes) {
          double C =
              Ops.run(OneOpModule::Sqrt, {exec::RTValue::ofDouble(V)}, RM);
          EXPECT_TRUE(R.contains(C)) << "sqrt " << hex(V) << " rm "
                                     << static_cast<int>(RM) << " -> "
                                     << hex(C);
        }
    }

    // int64 values beyond 2^53 are inexact as doubles.
    int64_t I = Rand.intIn(-(int64_t(1) << 62), int64_t(1) << 62);
    for (int64_t Width : {0, 1}) {
      absint::IntInterval A = absint::IntInterval::range(I, I + Width);
      absint::FPInterval R = absint::absSIToFP(A);
      for (int64_t V : {A.Lo, A.Hi})
        for (exec::RoundingMode RM : AllModes) {
          double C = Ops.run(OneOpModule::Conv, {exec::RTValue::ofInt(V)}, RM);
          EXPECT_TRUE(R.contains(C)) << "sitofp " << V << " rm "
                                     << static_cast<int>(RM) << " -> "
                                     << hex(C);
        }
    }
  }
}

//===----------------------------------------------------------------------===//
// Pruning soundness on the paper's Fig. 1a
//===----------------------------------------------------------------------===//

TEST(AbsIntPrune, Fig1aKeepsAssertFailEdge) {
  // x < 1 admits x = 0.9999999999999999, and x + 1 rounds to 2.0 under
  // to-nearest: the assertion x < 2 can fail. Rounding x + 1 in only one
  // direction once "proved" the trap edge unreachable.
  ir::Module M("fig1a");
  subjects::Fig1 Fig = subjects::buildFig1a(M);
  absint::FunctionAnalysis FA(*Fig.F);
  ASSERT_TRUE(FA.complete());

  instr::Site Fail;
  Fail.Id = 0;
  Fail.Kind = instr::SiteKind::BranchFalse;
  Fail.Inst = Fig.AssertBranch;
  EXPECT_EQ(absint::classifySite(FA, Fail), absint::SiteVerdict::Unknown);

  instr::Site Boundary;
  Boundary.Id = 1;
  Boundary.Kind = instr::SiteKind::Comparison;
  Boundary.Inst = cast<ir::Instruction>(Fig.AssertBranch->operand(0));
  EXPECT_EQ(absint::classifySite(FA, Boundary), absint::SiteVerdict::Unknown);
}

//===----------------------------------------------------------------------===//
// Precision units: the facts the pruning consumers need
//===----------------------------------------------------------------------===//

/// f(x) = if (x*x < 0.0) then sin(x) else x*x + 1.0 — the true edge is
/// infeasible (a square is never negative and NaN compares false), and
/// the else-result can never equal zero.
struct SquareSubject {
  ir::Module M{"square"};
  ir::Function *F = nullptr;
  ir::Instruction *Cmp = nullptr;
  ir::Instruction *Br = nullptr;
  ir::Instruction *PlusOne = nullptr;
  ir::Instruction *ZeroCheck = nullptr;

  SquareSubject() {
    ir::IRBuilder B(M);
    F = M.addFunction("f", ir::Type::Double);
    ir::Argument *X = F->addArg(ir::Type::Double, "x");
    ir::BasicBlock *Entry = F->addBlock("entry");
    ir::BasicBlock *Then = F->addBlock("then");
    ir::BasicBlock *Else = F->addBlock("else");
    B.setInsertAppend(Entry);
    ir::Instruction *Sq = B.fmul(X, X);
    Cmp = B.fcmp(ir::CmpPred::LT, Sq, B.lit(0.0));
    Br = B.condbr(Cmp, Then, Else);
    B.setInsertAppend(Then);
    B.ret(B.sin(X));
    B.setInsertAppend(Else);
    PlusOne = B.fadd(Sq, B.lit(1.0));
    ZeroCheck = B.fcmp(ir::CmpPred::EQ, PlusOne, B.lit(0.0));
    B.ret(B.select(ZeroCheck, B.lit(0.0), PlusOne));
  }
};

TEST(AbsIntPrecisionTest, SquareBranchInfeasible) {
  SquareSubject S;
  absint::FunctionAnalysis FA(*S.F);
  ASSERT_TRUE(FA.complete());
  EXPECT_FALSE(FA.edgeFeasible(S.Br, /*TakenTrue=*/true));
  EXPECT_TRUE(FA.edgeFeasible(S.Br, /*TakenTrue=*/false));
}

TEST(AbsIntPrecisionTest, SquarePlusOneEqualityImpossible) {
  SquareSubject S;
  absint::FunctionAnalysis FA(*S.F);
  ASSERT_TRUE(FA.complete());
  // x*x + 1 is >= 1 or NaN; neither can equal 0.0.
  EXPECT_FALSE(FA.cmpEqualityPossible(S.ZeroCheck));
  // The guard itself (x*x < 0) can have equal operands: x == 0.
  EXPECT_TRUE(FA.cmpEqualityPossible(S.Cmp));
}

TEST(AbsIntPrecisionTest, SiteClassification) {
  SquareSubject S;
  absint::FunctionAnalysis FA(*S.F);
  ASSERT_TRUE(FA.complete());

  instr::Site Unreach;
  Unreach.Id = 0;
  Unreach.Kind = instr::SiteKind::BranchTrue;
  Unreach.Inst = S.Br;
  EXPECT_EQ(absint::classifySite(FA, Unreach),
            absint::SiteVerdict::Unreachable);

  instr::Site Safe;
  Safe.Id = 1;
  Safe.Kind = instr::SiteKind::Comparison;
  Safe.Inst = S.ZeroCheck;
  EXPECT_EQ(absint::classifySite(FA, Safe),
            absint::SiteVerdict::ProvedSafe);

  instr::Site Open;
  Open.Id = 2;
  Open.Kind = instr::SiteKind::Comparison;
  Open.Inst = S.Cmp;
  EXPECT_EQ(absint::classifySite(FA, Open),
            absint::SiteVerdict::Unknown);
}

TEST(AbsIntPrecisionTest, BoundedArgsProveFiniteRanges) {
  ir::Module M("bounded");
  ir::IRBuilder B(M);
  ir::Function *F = M.addFunction("f", ir::Type::Double);
  ir::Argument *X = F->addArg(ir::Type::Double, "x");
  B.setInsertAppend(F->addBlock("entry"));
  ir::Instruction *R = B.fadd(B.fmul(X, X), B.lit(1.0));
  B.ret(R);

  absint::AnalysisOptions AOpts;
  AOpts.ArgRanges.push_back(absint::FPInterval::range(-10.0, 10.0));
  absint::FunctionAnalysis FA(*F, AOpts);
  ASSERT_TRUE(FA.complete());
  absint::AbstractValue Fact = FA.factFor(R);
  EXPECT_FALSE(Fact.D.MayNaN);
  EXPECT_GE(Fact.D.Lo, 1.0 - 1e-9);
  EXPECT_LE(Fact.D.Hi, 102.0);

  instr::Site Op;
  Op.Id = 0;
  Op.Kind = instr::SiteKind::FPOp;
  Op.Inst = R;
  EXPECT_EQ(absint::classifySite(FA, Op), absint::SiteVerdict::ProvedSafe);
}

TEST(AbsIntPrecisionTest, ShrinkStartBoxKeepsFeasibleSlices) {
  // The guard x >= 90 gates the only interesting site; slices of
  // [-100, 100] below 90 cannot take it, so the shrunk box must
  // concentrate at the top while still covering the threshold.
  ir::Module M("gate");
  ir::IRBuilder B(M);
  ir::Function *F = M.addFunction("f", ir::Type::Double);
  ir::Argument *X = F->addArg(ir::Type::Double, "x");
  ir::BasicBlock *Entry = F->addBlock("entry");
  ir::BasicBlock *Then = F->addBlock("then");
  ir::BasicBlock *Else = F->addBlock("else");
  B.setInsertAppend(Entry);
  ir::Instruction *C = B.fcmp(ir::CmpPred::GE, X, B.lit(90.0));
  ir::Instruction *Br = B.condbr(C, Then, Else);
  B.setInsertAppend(Then);
  B.ret(B.fmul(X, X));
  B.setInsertAppend(Else);
  B.ret(B.lit(0.0));

  absint::BoxShrinkResult R = absint::shrinkStartBox(
      *F, -100.0, 100.0, {},
      [&](const absint::FunctionAnalysis &FA) {
        return FA.edgeFeasible(Br, /*TakenTrue=*/true);
      });
  EXPECT_TRUE(R.Changed);
  EXPECT_GT(R.Lo, -100.0);
  EXPECT_LE(R.Lo, 90.0);
  EXPECT_EQ(R.Hi, 100.0);
}

TEST(AbsIntPrecisionTest, ClassifySitesReportsAssignedTables) {
  SquareSubject S;
  instr::SiteTable T = instr::assignComparisonSites(*S.F);
  ASSERT_EQ(T.size(), 2u);
  absint::FunctionAnalysis FA(*S.F);
  std::vector<absint::SiteReport> Reports = absint::classifySites(FA, T);
  ASSERT_EQ(Reports.size(), 2u);
  unsigned Safe = 0, Open = 0;
  for (const absint::SiteReport &R : Reports) {
    Safe += R.Verdict == absint::SiteVerdict::ProvedSafe;
    Open += R.Verdict == absint::SiteVerdict::Unknown;
    if (R.Verdict != absint::SiteVerdict::Unknown)
      EXPECT_FALSE(R.Reason.empty());
  }
  EXPECT_EQ(Safe, 1u);
  EXPECT_EQ(Open, 1u);
}

} // namespace
