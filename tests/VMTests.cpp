//===--- VMTests.cpp - Compiled tiers vs interpreter equivalence ----------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// The compiled tiers' contract is *bit-for-bit* agreement with the
// interpreter: same return values, same step counts, same traps, same
// branch traces, same global/site end states — on every builtin subject
// and on randomly generated modules, under every rounding mode and
// budget. The differential harness runs every available tier (the VM
// always, the JIT on hosts that have it) against the interpreter
// reference; these tests are the contract's enforcement.
//
//===----------------------------------------------------------------------===//

#include "analyses/BoundaryAnalysis.h"
#include "analyses/OverflowDetector.h"
#include "api/Subjects.h"
#include "gsl/Bessel.h"
#include "instrument/Observers.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "jit/JITCompile.h"
#include "jit/JITWeakDistance.h"
#include "opt/BasinHopping.h"
#include "subjects/SinModel.h"
#include "support/FPUtils.h"
#include "support/RNG.h"
#include "vm/Lowering.h"
#include "vm/Machine.h"
#include "vm/VMWeakDistance.h"
#include "vm/Verify.h"

#include "RandomModule.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace wdm;

namespace {

//===----------------------------------------------------------------------===//
// Differential harness
//===----------------------------------------------------------------------===//

std::vector<uint64_t> globalBits(const exec::ExecContext &Ctx,
                                 const ir::Module &M) {
  std::vector<uint64_t> Bits;
  for (size_t I = 0; I < M.numGlobals(); ++I) {
    exec::RTValue V = Ctx.getGlobal(M.global(I));
    if (V.type() == ir::Type::Double)
      Bits.push_back(bitsOf(V.asDouble()));
    else
      Bits.push_back(static_cast<uint64_t>(V.asInt()));
  }
  return Bits;
}

void expectSameResult(const exec::ExecResult &I, const exec::ExecResult &V,
                      const std::string &Ctx) {
  EXPECT_EQ(static_cast<int>(I.Kind), static_cast<int>(V.Kind)) << Ctx;
  EXPECT_EQ(I.Steps, V.Steps) << Ctx;
  EXPECT_EQ(I.TrapId, V.TrapId) << Ctx;
  EXPECT_EQ(I.TrapMessage, V.TrapMessage) << Ctx;
  ASSERT_EQ(static_cast<int>(I.ReturnValue.type()),
            static_cast<int>(V.ReturnValue.type()))
      << Ctx;
  switch (I.ReturnValue.type()) {
  case ir::Type::Double:
    EXPECT_EQ(bitsOf(I.ReturnValue.asDouble()),
              bitsOf(V.ReturnValue.asDouble()))
        << Ctx;
    break;
  case ir::Type::Int:
    EXPECT_EQ(I.ReturnValue.asInt(), V.ReturnValue.asInt()) << Ctx;
    break;
  case ir::Type::Bool:
    EXPECT_EQ(I.ReturnValue.asBool(), V.ReturnValue.asBool()) << Ctx;
    break;
  case ir::Type::Void:
    break;
  }
}

void expectSameTrace(const instr::BranchTraceObserver &I,
                     const instr::BranchTraceObserver &V,
                     const std::string &Ctx) {
  ASSERT_EQ(I.visits().size(), V.visits().size()) << Ctx;
  for (size_t K = 0; K < I.visits().size(); ++K) {
    EXPECT_EQ(I.visits()[K].Branch, V.visits()[K].Branch) << Ctx;
    EXPECT_EQ(I.visits()[K].TakenTrue, V.visits()[K].TakenTrue) << Ctx;
  }
}

using testutil::buildRandomModule;
using testutil::drawInput;

/// Runs every all-double-arg function of \p M through the interpreter
/// reference and every available compiled tier (VM always, JIT on hosts
/// that have it) on \p NumInputs inputs (optionally with some sites
/// disabled) and asserts full observable equality against the
/// interpreter.
void diffModule(const ir::Module &M, uint64_t Seed, unsigned NumInputs,
                bool DisableSomeSites,
                const exec::ExecOptions &Opts = {}) {
  exec::Engine E(M);
  vm::CompiledModule CM = vm::compile(M);
  // Every lowering in the differential suite must pass the bytecode
  // verifier unconditionally (the compile-time hook is debug-only).
  {
    Status VS = vm::verifyBytecode(CM);
    ASSERT_TRUE(VS.ok()) << VS.message();
  }
  jit::CompiledModule JM = jit::compile(CM);
  const bool Jit = jit::available();

  exec::ExecContext CtxI(M), CtxV(M), CtxJ(M);
  if (DisableSomeSites)
    for (int Id = 0; Id < M.numSiteIds(); Id += 2) {
      CtxI.setSiteEnabled(Id, false);
      CtxV.setSiteEnabled(Id, false);
      CtxJ.setSiteEnabled(Id, false);
    }

  instr::BranchTraceObserver ObsI, ObsV, ObsJ;
  CtxI.setObserver(&ObsI);
  CtxV.setObserver(&ObsV);
  CtxJ.setObserver(&ObsJ);

  vm::Machine Mach(CM);
  RNG Rand(Seed);

  for (const auto &FPtr : M) {
    const ir::Function *F = FPtr.get();
    bool AllDouble = true;
    for (unsigned I = 0; I < F->numArgs(); ++I)
      AllDouble &= F->arg(I)->type() == ir::Type::Double;
    if (!AllDouble)
      continue;
    const vm::CompiledFunction *CF = CM.lookup(F);
    ASSERT_NE(CF, nullptr);
    ASSERT_TRUE(CF->Ok) << F->name() << ": " << CF->RejectReason;
    const jit::CompiledFunction *JF = JM.lookup(F);
    if (Jit) {
      // The JIT must take everything the VM lowering takes.
      ASSERT_NE(JF, nullptr);
      ASSERT_TRUE(JF->Ok) << F->name() << ": " << JF->RejectReason;
    }

    for (unsigned K = 0; K < NumInputs; ++K) {
      std::vector<double> X = drawInput(Rand, F->numArgs());
      std::vector<exec::RTValue> Args;
      for (double V : X)
        Args.push_back(exec::RTValue::ofDouble(V));

      std::string Where = M.name() + "::" + F->name() + " input #" +
                          std::to_string(K);
      CtxI.resetGlobals();
      CtxV.resetGlobals();
      ObsI.clear();
      ObsV.clear();

      exec::ExecResult RI = E.run(F, Args, CtxI, Opts);
      exec::ExecResult RV = Mach.run(*CF, Args, CtxV, Opts);

      expectSameResult(RI, RV, Where + " [vm]");
      expectSameTrace(ObsI, ObsV, Where + " [vm]");
      EXPECT_EQ(globalBits(CtxI, M), globalBits(CtxV, M))
          << Where << " [vm]";
      EXPECT_EQ(CtxI.siteDisabledTable(), CtxV.siteDisabledTable())
          << Where << " [vm]";

      if (Jit) {
        CtxJ.resetGlobals();
        ObsJ.clear();
        exec::ExecResult RJ = jit::run(JM, *JF, Args, CtxJ, Opts);
        expectSameResult(RI, RJ, Where + " [jit]");
        expectSameTrace(ObsI, ObsJ, Where + " [jit]");
        EXPECT_EQ(globalBits(CtxI, M), globalBits(CtxJ, M))
            << Where << " [jit]";
        EXPECT_EQ(CtxI.siteDisabledTable(), CtxJ.siteDisabledTable())
            << Where << " [jit]";
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Builtin subjects
//===----------------------------------------------------------------------===//

TEST(VMLoweringTest, EveryBuiltinSubjectCompiles) {
  for (const api::BuiltinInfo &Info : api::builtinSubjects()) {
    ir::Module M(Info.Name);
    auto Sub = api::buildBuiltinSubject(M, Info.Name);
    ASSERT_TRUE(Sub.hasValue()) << Info.Name;
    vm::CompiledModule CM = vm::compile(M);
    for (const vm::CompiledFunction &CF : CM.Functions)
      EXPECT_TRUE(CF.Ok) << Info.Name << "::" << CF.Source->name() << ": "
                         << CF.RejectReason;
  }
}

TEST(VMDifferentialTest, BuiltinSubjectsMatchInterpreter) {
  uint64_t Seed = 0x5eed;
  for (const api::BuiltinInfo &Info : api::builtinSubjects()) {
    ir::Module M(Info.Name);
    auto Sub = api::buildBuiltinSubject(M, Info.Name);
    ASSERT_TRUE(Sub.hasValue()) << Info.Name;
    diffModule(M, Seed++, 20, /*DisableSomeSites=*/false);
  }
}

TEST(VMDifferentialTest, InstrumentedSubjectsMatchWithSiteState) {
  // Instrumentation introduces site_enabled gates and the w global; the
  // site-state-sensitive behavior (Algorithm 3's evolving L) must agree
  // too, including with half the sites disabled.
  uint64_t Seed = 0x11;
  for (const char *Name : {"fig2", "sin", "bessel", "airy"}) {
    ir::Module M(Name);
    auto Sub = api::buildBuiltinSubject(M, Name);
    ASSERT_TRUE(Sub.hasValue()) << Name;
    instr::OverflowInstrumentation OI =
        instr::instrumentOverflow(*Sub->F);
    ASSERT_NE(OI.Wrapped, nullptr);
    diffModule(M, Seed++, 15, /*DisableSomeSites=*/false);
    diffModule(M, Seed++, 15, /*DisableSomeSites=*/true);
  }
}

TEST(VMDifferentialTest, RoundingModesMatch) {
  ir::Module M("sin");
  subjects::SinModel P = subjects::buildSinModel(M);
  ASSERT_NE(P.F, nullptr);
  for (exec::RoundingMode RM :
       {exec::RoundingMode::NearestEven, exec::RoundingMode::TowardZero,
        exec::RoundingMode::Upward, exec::RoundingMode::Downward}) {
    exec::ExecOptions Opts;
    Opts.Rounding = RM;
    diffModule(M, 0x40d + static_cast<uint64_t>(RM), 12,
               /*DisableSomeSites=*/false, Opts);
  }
}

TEST(VMDifferentialTest, StepBudgetsMatch) {
  ir::Module M("sin");
  subjects::buildSinModel(M);
  for (uint64_t MaxSteps : {1ull, 2ull, 7ull, 33ull, 100ull}) {
    exec::ExecOptions Opts;
    Opts.MaxSteps = MaxSteps;
    diffModule(M, 0x57e9 + MaxSteps, 6, /*DisableSomeSites=*/false, Opts);
  }
}

//===----------------------------------------------------------------------===//
// Randomly generated modules
//===----------------------------------------------------------------------===//

TEST(VMDifferentialTest, RandomModulesMatchInterpreter) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    ir::Module M("random" + std::to_string(Seed));
    RNG Rand(Seed * 0x9e37);
    buildRandomModule(M, Rand);
    Status S = ir::verifyModule(M);
    ASSERT_TRUE(S.ok()) << "seed " << Seed << ": " << S.message();
    diffModule(M, Seed, 12, /*DisableSomeSites=*/false);
    diffModule(M, Seed + 1000, 6, /*DisableSomeSites=*/true);
  }
}

//===----------------------------------------------------------------------===//
// Full tier x rounding x budget sweep
//===----------------------------------------------------------------------===//

/// One parameterized pass over every (rounding mode, step budget) cell;
/// diffModule itself fans each cell out across every available engine
/// tier, so a new tier joins the whole sweep by existing.
class TierSweepTest
    : public ::testing::TestWithParam<
          std::tuple<exec::RoundingMode, uint64_t>> {};

TEST_P(TierSweepTest, RandomModulesAgreeAcrossAllTiers) {
  exec::ExecOptions Opts;
  Opts.Rounding = std::get<0>(GetParam());
  Opts.MaxSteps = std::get<1>(GetParam());
  const uint64_t Salt = static_cast<uint64_t>(Opts.Rounding) * 1000 +
                        Opts.MaxSteps;
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    ir::Module M("sweep" + std::to_string(Seed));
    RNG Rand(Seed * 0x51ee7);
    buildRandomModule(M, Rand);
    Status S = ir::verifyModule(M);
    ASSERT_TRUE(S.ok()) << "seed " << Seed << ": " << S.message();
    diffModule(M, Seed + Salt, 5, /*DisableSomeSites=*/Seed % 2 == 0,
               Opts);
  }
}

std::string tierSweepName(
    const ::testing::TestParamInfo<TierSweepTest::ParamType> &Info) {
  const char *RM = "?";
  switch (std::get<0>(Info.param)) {
  case exec::RoundingMode::NearestEven:
    RM = "NearestEven";
    break;
  case exec::RoundingMode::TowardZero:
    RM = "TowardZero";
    break;
  case exec::RoundingMode::Upward:
    RM = "Upward";
    break;
  case exec::RoundingMode::Downward:
    RM = "Downward";
    break;
  }
  return std::string(RM) + "_Budget" +
         std::to_string(std::get<1>(Info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, TierSweepTest,
    ::testing::Combine(
        ::testing::Values(exec::RoundingMode::NearestEven,
                          exec::RoundingMode::TowardZero,
                          exec::RoundingMode::Upward,
                          exec::RoundingMode::Downward),
        ::testing::Values(1ull, 9ull, 150ull, 2'000'000ull)),
    tierSweepName);

//===----------------------------------------------------------------------===//
// Weak-distance and search-level equivalence
//===----------------------------------------------------------------------===//

const char *QuickstartIr = R"(
module "quickstart"
func @prog(%x: double) -> double {
entry:
  %xs = alloca double
  store %xs, %x
  %c1 = fcmp.le %x, 1.0
  condbr %c1, inc, mid
inc:
  %x1 = fadd %x, 1.0
  store %xs, %x1
  br mid
mid:
  %xv = load %xs
  %y = fmul %xv, %xv
  %c2 = fcmp.le %y, 4.0
  condbr %c2, dec, done
dec:
  %x2 = fsub %xv, 1.0
  store %xs, %x2
  br done
done:
  %r = load %xs
  ret %r
}
)";

TEST(VMEquivalenceTest, WeakDistanceValuesMatchBitForBit) {
  auto Parsed = ir::parseModule(QuickstartIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  analyses::BoundaryAnalysis BVA(M, *M.functionByName("prog"));
  ASSERT_EQ(BVA.executionTier().Effective, vm::EngineKind::VM);

  auto VMEval = BVA.factory().make();
  RNG Rand(0xd1ff);
  for (unsigned K = 0; K < 500; ++K) {
    std::vector<double> X = drawInput(Rand, 1);
    double WI = BVA.weak()(X); // Driver-side interpreter evaluator.
    double WV = (*VMEval)(X);
    EXPECT_EQ(bitsOf(WI), bitsOf(WV)) << X[0];
  }
}

TEST(VMEquivalenceTest, BoundarySearchIdenticalAcrossEngines) {
  auto Run = [&](vm::EngineKind Engine) {
    auto Parsed = ir::parseModule(QuickstartIr);
    EXPECT_TRUE(Parsed.hasValue());
    ir::Module &M = **Parsed;
    analyses::BoundaryAnalysis BVA(M, *M.functionByName("prog"),
                                   instr::BoundaryForm::Product, Engine);
    opt::BasinHopping Backend;
    core::SearchOptions Opts;
    Opts.Seed = 2019;
    Opts.MaxEvals = 40'000;
    return BVA.findOne(Backend, Opts);
  };
  core::SearchResult RI = Run(vm::EngineKind::Interp);
  core::SearchResult RV = Run(vm::EngineKind::VM);
  EXPECT_EQ(RI.Found, RV.Found);
  EXPECT_EQ(RI.Witness, RV.Witness);
  EXPECT_EQ(RI.Evals, RV.Evals);
  EXPECT_EQ(RI.StartsUsed, RV.StartsUsed);
  EXPECT_EQ(bitsOf(RI.WStar), bitsOf(RV.WStar));
  EXPECT_EQ(RI.UnsoundCandidates, RV.UnsoundCandidates);
}

TEST(VMEquivalenceTest, OverflowRoundsIdenticalAcrossEngines) {
  auto Run = [&](vm::EngineKind Engine) {
    ir::Module M;
    gsl::SfFunction Bessel = gsl::buildBesselKnuScaledAsympx(M);
    analyses::OverflowDetector Det(M, *Bessel.F,
                                   instr::OverflowMetric::UlpGap, Engine);
    analyses::OverflowDetector::Options Opts;
    Opts.Seed = 0xbe55;
    Opts.EvalsPerRound = 2'000;
    Opts.MaxRounds = 4;
    return Det.run(Opts);
  };
  analyses::OverflowReport RI = Run(vm::EngineKind::Interp);
  analyses::OverflowReport RV = Run(vm::EngineKind::VM);
  EXPECT_EQ(RI.Evals, RV.Evals);
  ASSERT_EQ(RI.Findings.size(), RV.Findings.size());
  for (size_t K = 0; K < RI.Findings.size(); ++K) {
    EXPECT_EQ(RI.Findings[K].SiteId, RV.Findings[K].SiteId);
    EXPECT_EQ(RI.Findings[K].Found, RV.Findings[K].Found);
    EXPECT_EQ(RI.Findings[K].Input, RV.Findings[K].Input);
  }
}

//===----------------------------------------------------------------------===//
// Fallback
//===----------------------------------------------------------------------===//

TEST(VMFallbackTest, TinyLimitsRejectAndFallBack) {
  auto Parsed = ir::parseModule(QuickstartIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  ir::Function *F = M.functionByName("prog");

  vm::Limits Tiny;
  Tiny.MaxRegs = 2;
  vm::CompiledModule CM = vm::compile(M, Tiny);
  const vm::CompiledFunction *CF = CM.lookup(F);
  ASSERT_NE(CF, nullptr);
  EXPECT_FALSE(CF->Ok);
  EXPECT_FALSE(CF->RejectReason.empty());

  // The drop-in factory mints working interpreter evaluators instead.
  instr::BoundaryInstrumentation BI = instr::instrumentBoundary(*F);
  exec::Engine E(M);
  exec::ExecContext Parent(M);
  vm::VMWeakDistanceFactory Factory(E, BI.Wrapped, BI.W, BI.WInit, Parent,
                                    {}, Tiny);
  EXPECT_FALSE(Factory.usingVM());
  EXPECT_FALSE(Factory.fallbackReason().empty());

  auto Eval = Factory.make();
  instr::IRWeakDistance Direct(E, BI.Wrapped, BI.W, BI.WInit, Parent);
  for (double X : {-3.0, 0.5, 1.0, 2.0, 1e300})
    EXPECT_EQ(bitsOf(Direct({X})), bitsOf((*Eval)({X})));

  // And the bundle reports the fallback for the api layer.
  vm::FactoryBundle Bundle = vm::makeWeakDistanceFactory(
      vm::EngineKind::VM, E, BI.Wrapped, BI.W, BI.WInit, Parent, {}, Tiny);
  EXPECT_EQ(Bundle.Effective, vm::EngineKind::Interp);
  EXPECT_FALSE(Bundle.FallbackReason.empty());
}

TEST(VMFallbackTest, CallersOfRejectedCalleesFallBackToo) {
  ir::Module M("transitive");
  ir::IRBuilder B(M);

  ir::Function *Big = M.addFunction("big", ir::Type::Double);
  ir::Argument *BA = Big->addArg(ir::Type::Double, "x");
  B.setInsertAppend(Big->addBlock("entry"));
  ir::Value *Acc = BA;
  for (int K = 0; K < 40; ++K)
    Acc = B.fadd(Acc, B.lit(static_cast<double>(K)));
  B.ret(Acc);

  ir::Function *Caller = M.addFunction("caller", ir::Type::Double);
  ir::Argument *CA = Caller->addArg(ir::Type::Double, "x");
  B.setInsertAppend(Caller->addBlock("entry"));
  B.ret(B.call(Big, {CA}));

  vm::Limits Tiny;
  Tiny.MaxRegs = 30; // Rejects big (needs > 30 regs), fits caller.
  vm::CompiledModule CM = vm::compile(M, Tiny);
  EXPECT_FALSE(CM.lookup(Big)->Ok);
  EXPECT_FALSE(CM.lookup(Caller)->Ok);
  EXPECT_NE(CM.lookup(Caller)->RejectReason.find("big"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// JIT tier: equivalence and fallback
//===----------------------------------------------------------------------===//

TEST(JITEquivalenceTest, WeakDistanceValuesMatchBitForBit) {
  auto Parsed = ir::parseModule(QuickstartIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  ir::Function *F = M.functionByName("prog");
  instr::BoundaryInstrumentation BI = instr::instrumentBoundary(*F);
  exec::Engine E(M);
  exec::ExecContext Parent(M);

  // Whether native code runs or the chain degrades, minted evaluators
  // must agree with the interpreter bit for bit.
  jit::JITWeakDistanceFactory Factory(E, BI.Wrapped, BI.W, BI.WInit,
                                      Parent);
  EXPECT_EQ(Factory.usingJIT(), jit::available())
      << Factory.fallbackReason();
  auto Eval = Factory.make();
  instr::IRWeakDistance Direct(E, BI.Wrapped, BI.W, BI.WInit, Parent);
  RNG Rand(0x717);
  for (unsigned K = 0; K < 500; ++K) {
    std::vector<double> X = drawInput(Rand, 1);
    EXPECT_EQ(bitsOf(Direct(X)), bitsOf((*Eval)(X))) << X[0];
  }
}

TEST(JITEquivalenceTest, BatchEvaluationMatchesScalar) {
  auto Parsed = ir::parseModule(QuickstartIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  instr::BoundaryInstrumentation BI =
      instr::instrumentBoundary(*M.functionByName("prog"));
  exec::Engine E(M);
  exec::ExecContext Parent(M);
  jit::JITWeakDistanceFactory Factory(E, BI.Wrapped, BI.W, BI.WInit,
                                      Parent);
  auto Scalar = Factory.make();
  auto Batched = Factory.make();
  RNG Rand(0xba7c);
  constexpr std::size_t K = 24;
  std::vector<double> Xs(K), Want(K), Got(K);
  for (std::size_t L = 0; L < K; ++L) {
    Xs[L] = drawInput(Rand, 1)[0];
    Want[L] = (*Scalar)({Xs[L]});
  }
  Batched->evalBatch(Xs.data(), K, Got.data());
  for (std::size_t L = 0; L < K; ++L)
    EXPECT_EQ(bitsOf(Want[L]), bitsOf(Got[L])) << Xs[L];
}

//===----------------------------------------------------------------------===//
// Frame contract: one long-lived native evaluator, many evaluations
//
// Every tier enters a frame the same way: args and consts written, alloca
// slots zeroed, result registers left as the previous run left them (IR
// dominance guarantees they are written before they are read). These
// subjects make a stale register or slot visible: a slot read before it
// is stored on some path, a value carried around a loop through a slot,
// and calls into a callee frame — with trapping and step-limited
// evaluations between normal ones.
//===----------------------------------------------------------------------===//

const char *FrameContractIr = R"(
module "framecontract"
global @w: double = 0.0
func @sq(%a: double) -> double {
entry:
  %s = alloca double
  %c = fcmp.lt %a, 0.0
  condbr %c, neg, join
neg:
  %n = fmul %a, 0.5
  store %s, %n
  br join
join:
  %v = load %s
  %r = fmul %a, %a
  %t = fadd %r, %v
  ret %t
}
func @slot(%x: double) -> double {
entry:
  %s = alloca double
  %c = fcmp.gt %x, 1.0
  condbr %c, set, use
set:
  %y = fmul %x, 3.0
  store %s, %y
  br use
use:
  %v = load %s
  %d = fsub %v, %x
  %keep = fcmp.lt %x, -5.0
  condbr %keep, done, write
write:
  storeg @w, %d
  br done
done:
  ret %d
}
func @loop(%x: double) -> double {
entry:
  %acc = alloca double
  %i = alloca double
  %bad = fcmp.lt %x, -100.0
  condbr %bad, boom, head
boom:
  storeg @w, %x
  trap 7
head:
  %iv = load %i
  %c = fcmp.lt %iv, %x
  condbr %c, body, exit
body:
  %a = load %acc
  %a2 = fadd %a, %iv
  %a3 = fmul %a2, 0.75
  store %acc, %a3
  %i2 = fadd %iv, 1.0
  store %i, %i2
  br head
exit:
  %r = load %acc
  storeg @w, %r
  ret %r
}
func @caller(%x: double, %y: double) -> double {
entry:
  %h = call @sq(%x)
  %l = call @loop(%y)
  %d = fsub %h, %l
  storeg @w, %d
  ret %d
}
)";

/// Inputs that alternate paths, with traps (x < -100) and step-limited
/// runs (x >= 1e3 loops past the budget) between normal evaluations.
std::vector<std::vector<double>> frameContractInputs(unsigned Dim) {
  const std::vector<double> Pattern = {5.0,  0.5,  -7.0, 12.25, -250.0,
                                       2.0,  -0.0, 1e4,  3.5,   0.25,
                                       1e300, -1.5, 40.0, -1e9,  9.0,
                                       -3.0, 1.0,  17.5, 0.0,   -8.5};
  std::vector<std::vector<double>> Xs;
  for (size_t K = 0; K < Pattern.size(); ++K) {
    std::vector<double> X(Dim);
    for (unsigned D = 0; D < Dim; ++D)
      X[D] = Pattern[(K + 7 * D) % Pattern.size()];
    Xs.push_back(std::move(X));
  }
  return Xs;
}

TEST(JITFrameContractTest, LongLivedEvaluatorsMatchFreshInterpreterRuns) {
  if (!jit::available())
    GTEST_SKIP() << "no native tier on this host";
  auto Parsed = ir::parseModule(FrameContractIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  const ir::GlobalVar *W = M.globalByName("w");
  ASSERT_NE(W, nullptr);
  exec::Engine E(M);
  exec::ExecContext Parent(M);
  exec::ExecOptions Opts;
  Opts.MaxSteps = 5'000;
  const double WInit = 42.0;

  for (const char *Name : {"slot", "loop", "caller"}) {
    SCOPED_TRACE(Name);
    const ir::Function *F = M.functionByName(Name);
    ASSERT_NE(F, nullptr);
    vm::FactoryBundle JIT = vm::makeWeakDistanceFactory(
        vm::EngineKind::JIT, E, F, W, WInit, Parent, Opts);
    vm::FactoryBundle VM = vm::makeWeakDistanceFactory(
        vm::EngineKind::VM, E, F, W, WInit, Parent, Opts);
    ASSERT_EQ(JIT.Effective, vm::EngineKind::JIT) << JIT.FallbackReason;
    ASSERT_EQ(VM.Effective, vm::EngineKind::VM) << VM.FallbackReason;
    std::unique_ptr<core::WeakDistance> Native = JIT.Factory->make();
    std::unique_ptr<core::WeakDistance> Batched = JIT.Factory->make();
    std::unique_ptr<core::WeakDistance> Compiled = VM.Factory->make();

    const unsigned Dim = F->numArgs();
    const std::vector<std::vector<double>> Xs = frameContractInputs(Dim);
    std::vector<double> Want, Packed;
    unsigned Diverged = 0, Trapped = 0;
    for (const std::vector<double> &X : Xs) {
      // A fresh interpreter run: its frame and globals start clean.
      exec::ExecContext Fresh(M);
      instr::IRWeakDistance Ref(E, F, W, WInit, Fresh, Opts);
      const double WRef = Ref(X);
      Diverged += Ref.lastResult().Kind ==
                  exec::ExecResult::Outcome::StepLimitExceeded;
      Trapped += Ref.lastResult().trapped();
      Want.push_back(WRef);
      Packed.insert(Packed.end(), X.begin(), X.end());
      EXPECT_EQ(bitsOf(WRef), bitsOf((*Native)(X))) << X[0] << " [jit]";
      EXPECT_EQ(bitsOf(WRef), bitsOf((*Compiled)(X))) << X[0] << " [vm]";
    }
    // @slot cannot trap or diverge; the other two must do both.
    if (std::string(Name) != "slot") {
      EXPECT_GT(Diverged, 0u);
      EXPECT_GT(Trapped, 0u);
    }

    // Batched lanes, in blocks that mix traps and step limits with
    // normal lanes, on a second long-lived native evaluator and on the
    // ones the scalar calls above already used.
    for (core::WeakDistance *Eval :
         {Batched.get(), Native.get(), Compiled.get()}) {
      std::vector<double> Got(Xs.size());
      for (size_t At = 0; At < Xs.size(); At += 3) {
        const size_t K = std::min<size_t>(3, Xs.size() - At);
        Eval->evalBatch(Packed.data() + At * Dim, K, Got.data() + At);
      }
      for (size_t L = 0; L < Xs.size(); ++L)
        EXPECT_EQ(bitsOf(Want[L]), bitsOf(Got[L])) << "lane " << L;
    }
  }
}

TEST(JITFrameContractTest, RunnerAndRunReuseFramesLikeTheInterpreter) {
  if (!jit::available())
    GTEST_SKIP() << "no native tier on this host";
  auto Parsed = ir::parseModule(FrameContractIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  exec::Engine E(M);
  vm::CompiledModule CM = vm::compile(M);
  jit::CompiledModule JM = jit::compile(CM);
  exec::ExecOptions Opts;
  Opts.MaxSteps = 5'000;
  exec::ExecContext CtxI(M), CtxR(M), CtxJ(M);
  jit::Runner Run(JM, CtxR, Opts);

  for (const char *Name : {"slot", "loop", "caller"}) {
    const ir::Function *F = M.functionByName(Name);
    const jit::CompiledFunction *JF = JM.lookup(F);
    ASSERT_TRUE(JF && JF->Ok) << Name;
    for (const std::vector<double> &X :
         frameContractInputs(F->numArgs())) {
      std::vector<exec::RTValue> Args;
      for (double V : X)
        Args.push_back(exec::RTValue::ofDouble(V));
      const std::string Where = std::string(Name) + " at " +
                                std::to_string(X[0]);
      CtxI.resetGlobals();
      CtxR.resetGlobals();
      CtxJ.resetGlobals();
      exec::ExecResult RI = E.run(F, Args, CtxI, Opts);
      expectSameResult(RI, Run.run(*JF, Args), Where + " [runner]");
      expectSameResult(RI, jit::run(JM, *JF, Args, CtxJ, Opts),
                       Where + " [run]");
      EXPECT_EQ(globalBits(CtxI, M), globalBits(CtxR, M)) << Where;
      EXPECT_EQ(globalBits(CtxI, M), globalBits(CtxJ, M)) << Where;
    }
  }
}

TEST(JITFallbackTest, TinyCodeLimitRejectsAndFallsBackToVM) {
  auto Parsed = ir::parseModule(QuickstartIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  ir::Function *F = M.functionByName("prog");
  instr::BoundaryInstrumentation BI = instr::instrumentBoundary(*F);
  exec::Engine E(M);
  exec::ExecContext Parent(M);

  jit::Limits TinyJ;
  TinyJ.MaxCodeBytes = 16; // No function fits in 16 bytes.
  jit::JITWeakDistanceFactory Factory(E, BI.Wrapped, BI.W, BI.WInit,
                                      Parent, {}, {}, TinyJ);
  EXPECT_FALSE(Factory.usingJIT());
  EXPECT_FALSE(Factory.fallbackReason().empty());
  EXPECT_TRUE(Factory.vmFallback().usingVM());

  // The minted (VM-backed) evaluators still agree with the interpreter.
  auto Eval = Factory.make();
  instr::IRWeakDistance Direct(E, BI.Wrapped, BI.W, BI.WInit, Parent);
  for (double X : {-3.0, 0.5, 1.0, 2.0, 1e300})
    EXPECT_EQ(bitsOf(Direct({X})), bitsOf((*Eval)({X})));

  // With default limits the bundle reports whatever this host supports:
  // the JIT where available, the VM (with a reason) elsewhere.
  vm::FactoryBundle Bundle = vm::makeWeakDistanceFactory(
      vm::EngineKind::JIT, E, BI.Wrapped, BI.W, BI.WInit, Parent);
  EXPECT_EQ(Bundle.Requested, vm::EngineKind::JIT);
  if (jit::available()) {
    EXPECT_EQ(Bundle.Effective, vm::EngineKind::JIT);
    EXPECT_TRUE(Bundle.FallbackReason.empty()) << Bundle.FallbackReason;
  } else {
    EXPECT_EQ(Bundle.Effective, vm::EngineKind::VM);
    EXPECT_FALSE(Bundle.FallbackReason.empty());
  }
}

TEST(JITFallbackTest, CallersOfRejectedCalleesFallBackToo) {
  if (!jit::available())
    GTEST_SKIP() << "native tier unavailable on this host";
  ir::Module M("transitive");
  ir::IRBuilder B(M);

  ir::Function *Big = M.addFunction("big", ir::Type::Double);
  ir::Argument *BA = Big->addArg(ir::Type::Double, "x");
  B.setInsertAppend(Big->addBlock("entry"));
  ir::Value *Acc = BA;
  for (int K = 0; K < 200; ++K)
    Acc = B.fadd(Acc, B.lit(static_cast<double>(K)));
  B.ret(Acc);

  ir::Function *Caller = M.addFunction("caller", ir::Type::Double);
  ir::Argument *CA = Caller->addArg(ir::Type::Double, "x");
  B.setInsertAppend(Caller->addBlock("entry"));
  B.ret(B.call(Big, {CA}));

  vm::CompiledModule CM = vm::compile(M);
  ASSERT_TRUE(CM.lookup(Big)->Ok);
  ASSERT_TRUE(CM.lookup(Caller)->Ok);

  // Size the native-code budget so big's 200 fadd fragments bust it
  // while caller's call+ret stub would fit on its own: the rejection
  // must still spread to the caller (no mixed native/VM call chains).
  jit::Limits TinyJ;
  TinyJ.MaxCodeBytes = 1024;
  jit::CompiledModule JM = jit::compile(CM, TinyJ);
  EXPECT_FALSE(JM.lookup(Big)->Ok);
  ASSERT_NE(JM.lookup(Caller), nullptr);
  EXPECT_FALSE(JM.lookup(Caller)->Ok);
  EXPECT_NE(JM.lookup(Caller)->RejectReason.find("big"),
            std::string::npos)
      << JM.lookup(Caller)->RejectReason;
}

TEST(JITFallbackTest, EngineNamesForErrorsListAvailability) {
  std::string Names = jit::engineNamesForErrors();
  EXPECT_NE(Names.find("'interp'"), std::string::npos);
  EXPECT_NE(Names.find("'vm'"), std::string::npos);
  EXPECT_NE(Names.find("'jit'"), std::string::npos);
  EXPECT_EQ(Names.find("unavailable") == std::string::npos,
            jit::available());
}

} // namespace
