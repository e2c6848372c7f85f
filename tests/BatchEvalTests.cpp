//===--- BatchEvalTests.cpp - Batched evaluation equivalence ----------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// The batching contract is *bit-for-bit* scalar equivalence: pushing
// candidate blocks through Objective::evalBatch / the execution tiers'
// batch modes must leave every observable — numEvals, the recorder
// stream, best-so-far bits, the winning start, branch traces — exactly
// where a scalar evaluation loop would have left it, at every block size
// and at every budget/target clip boundary. Superinstruction fusion
// carries the same bar (identical values *and* identical step accounting,
// including partial step-limit crossings inside a fused triple).
//
//===----------------------------------------------------------------------===//

#include "analyses/BoundaryAnalysis.h"
#include "instrument/IRWeakDistance.h"
#include "instrument/Observers.h"
#include "ir/Parser.h"
#include "opt/BasinHopping.h"
#include "opt/DifferentialEvolution.h"
#include "opt/NelderMead.h"
#include "opt/Powell.h"
#include "opt/RandomSearch.h"
#include "opt/UlpSearch.h"
#include "support/FPUtils.h"
#include "support/RNG.h"
#include "vm/Lowering.h"
#include "vm/Machine.h"
#include "vm/VMWeakDistance.h"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

using namespace wdm;

namespace {

//===----------------------------------------------------------------------===//
// Objective::evalBatch bookkeeping
//===----------------------------------------------------------------------===//

double rosen1d(double X) { return std::fabs(X - 3.0) + 0.25; }

TEST(ObjectiveBatchTest, BudgetClipsExactlyLikeScalar) {
  // 10-eval budget, pushed as 7 + 7: the second block must clip to 3.
  std::vector<double> Xs(14), Fs(14);
  for (int I = 0; I < 14; ++I)
    Xs[I] = static_cast<double>(I);

  opt::Objective Batched(
      [](const std::vector<double> &X) { return rosen1d(X[0]); }, 1);
  Batched.MaxEvals = 10;
  EXPECT_EQ(Batched.evalBatch(Xs.data(), 7, Fs.data()), 7u);
  EXPECT_EQ(Batched.evalBatch(Xs.data() + 7, 7, Fs.data() + 7), 3u);
  EXPECT_EQ(Batched.evalBatch(Xs.data(), 7, Fs.data()), 0u);
  EXPECT_EQ(Batched.numEvals(), 10u);

  opt::Objective Scalar(
      [](const std::vector<double> &X) { return rosen1d(X[0]); }, 1);
  Scalar.MaxEvals = 10;
  for (int I = 0; I < 14 && !Scalar.done(); ++I)
    Scalar.eval({Xs[I]});
  EXPECT_EQ(Scalar.numEvals(), Batched.numEvals());
  EXPECT_EQ(bitsOf(Scalar.bestF()), bitsOf(Batched.bestF()));
  EXPECT_EQ(Scalar.bestX(), Batched.bestX());
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(bitsOf(Fs[I]), bitsOf(rosen1d(Xs[I]))) << I;
}

TEST(ObjectiveBatchTest, TargetStopsMidBatchWithBatchFn) {
  // Candidate 4 hits the target: the block is computed whole (that is
  // the batch tier's nature) but only candidates 0..4 may count.
  auto F = [](double X) { return X == 4.0 ? 0.0 : 1.0 + X; };
  std::vector<double> Xs(8), Vals(8);
  for (int I = 0; I < 8; ++I)
    Xs[I] = static_cast<double>(I);

  unsigned RawCalls = 0;
  opt::VectorRecorder Rec;
  opt::Objective Obj(
      [&](const std::vector<double> &X) { return F(X[0]); }, 1);
  Obj.setBatchFn([&](const double *Block, std::size_t K, double *Out) {
    ++RawCalls;
    for (std::size_t I = 0; I < K; ++I)
      Out[I] = F(Block[I]);
  });
  Obj.setRecorder(&Rec);
  EXPECT_EQ(Obj.evalBatch(Xs.data(), 8, Vals.data()), 5u);
  EXPECT_EQ(RawCalls, 1u);
  EXPECT_EQ(Obj.numEvals(), 5u);
  EXPECT_TRUE(Obj.reachedTarget());
  EXPECT_EQ(Obj.bestX()[0], 4.0);
  // The recorder saw exactly the consumed prefix, in order.
  ASSERT_EQ(Rec.Samples.size(), 5u);
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(Rec.Samples[I].X[0], Xs[I]);
  // Once done, further batches are rejected outright.
  EXPECT_EQ(Obj.evalBatch(Xs.data(), 8, Vals.data()), 0u);
}

TEST(ObjectiveBatchTest, NanLanesMapToInf) {
  opt::Objective Obj(
      [](const std::vector<double> &X) {
        return X[0] < 0 ? std::nan("") : X[0];
      },
      1);
  double Xs[3] = {-1.0, 2.0, -5.0};
  double Fs[3];
  EXPECT_EQ(Obj.evalBatch(Xs, 3, Fs), 3u);
  EXPECT_TRUE(std::isinf(Fs[0]));
  EXPECT_EQ(Fs[1], 2.0);
  EXPECT_TRUE(std::isinf(Fs[2]));
  EXPECT_EQ(Obj.bestF(), 2.0);
}

//===----------------------------------------------------------------------===//
// Backend block-size invariance
//===----------------------------------------------------------------------===//

/// A rugged 2-D objective with exact zeros, shared by the invariance
/// sweep. The BatchFn twin lets the test prove that installing a raw
/// batch evaluator changes nothing either.
double rugged(const double *X) {
  return std::fabs(X[0] - 1.25) * std::fabs(X[1] + 2.0) +
         0.125 * std::fabs(std::sin(X[0] * 3.0));
}

opt::MinimizeResult runBackend(opt::Optimizer &Backend, unsigned Batch,
                               bool WithBatchFn, opt::LocalMethod Local) {
  opt::Objective Obj(
      [](const std::vector<double> &X) { return rugged(X.data()); }, 2);
  Obj.MaxEvals = 4'000;
  if (WithBatchFn)
    Obj.setBatchFn([](const double *Xs, std::size_t K, double *Fs) {
      for (std::size_t I = 0; I < K; ++I)
        Fs[I] = rugged(Xs + 2 * I);
    });
  RNG Rand(0xbea7);
  opt::MinimizeOptions Opts;
  Opts.Batch = Batch;
  Opts.Local = Local;
  Opts.Lo = -50.0;
  Opts.Hi = 50.0;
  return Backend.minimize(Obj, {30.0, -40.0}, Rand, Opts);
}

TEST(BackendBatchInvarianceTest, AllBackendsBitIdenticalAcrossBlockSizes) {
  std::unique_ptr<opt::Optimizer> Backends[] = {
      std::make_unique<opt::BasinHopping>(),
      std::make_unique<opt::DifferentialEvolution>(),
      std::make_unique<opt::RandomSearch>(),
      std::make_unique<opt::NelderMead>(),
      std::make_unique<opt::Powell>(),
      std::make_unique<opt::UlpPatternSearch>(),
  };
  for (auto &Backend : Backends) {
    for (opt::LocalMethod Local :
         {opt::LocalMethod::UlpPatternSearch, opt::LocalMethod::None}) {
      opt::MinimizeResult Ref =
          runBackend(*Backend, 1, /*WithBatchFn=*/false, Local);
      for (unsigned Batch : {1u, 7u, 32u}) {
        for (bool WithBatchFn : {false, true}) {
          opt::MinimizeResult R =
              runBackend(*Backend, Batch, WithBatchFn, Local);
          std::string Ctx = std::string(Backend->name()) + " batch " +
                            std::to_string(Batch) +
                            (WithBatchFn ? " fn" : " loop");
          EXPECT_EQ(Ref.Evals, R.Evals) << Ctx;
          EXPECT_EQ(bitsOf(Ref.F), bitsOf(R.F)) << Ctx;
          ASSERT_EQ(Ref.X.size(), R.X.size()) << Ctx;
          for (size_t I = 0; I < Ref.X.size(); ++I)
            EXPECT_EQ(bitsOf(Ref.X[I]), bitsOf(R.X[I])) << Ctx;
          EXPECT_EQ(Ref.ReachedTarget, R.ReachedTarget) << Ctx;
        }
      }
    }
  }
}

TEST(BackendBatchInvarianceTest, DEStillSolvesSphereBatched) {
  for (unsigned Batch : {1u, 32u}) {
    opt::Objective Obj(
        [](const std::vector<double> &X) {
          return X[0] * X[0] + X[1] * X[1];
        },
        2);
    Obj.MaxEvals = 30'000;
    opt::DifferentialEvolution DE;
    RNG Rand(8);
    opt::MinimizeOptions Opts;
    Opts.Lo = -10.0;
    Opts.Hi = 10.0;
    Opts.StopAtTarget = false;
    Opts.Batch = Batch;
    opt::MinimizeResult MR = DE.minimize(Obj, {5.0, 5.0}, Rand, Opts);
    EXPECT_LT(MR.F, 1e-10) << "batch " << Batch;
  }
}

//===----------------------------------------------------------------------===//
// VM batch mode vs scalar, including fusion
//===----------------------------------------------------------------------===//

/// Branches, fusible read-modify-write triples on the accumulator, and a
/// call whose callee branches per lane — the constructs that force the
/// lockstep tier through each of its escape hatches.
const char *BatchSubjectIr = R"(
module "batchsubject"
global @w: double = 0.0
func @helper(%a: double) -> double {
entry:
  %c = fcmp.lt %a, 10.0
  condbr %c, small, big
small:
  %r1 = fmul %a, 2.0
  ret %r1
big:
  %r2 = fadd %a, 1.0
  ret %r2
}
func @acc(%x: double, %y: double) -> double {
entry:
  %t0 = loadg @w
  %s0 = fadd %t0, %x
  storeg @w, %s0
  %h = call @helper(%x)
  %c = fcmp.lt %x, %y
  condbr %c, lo, hi
lo:
  %t1 = loadg @w
  %m1 = fmul %t1, %y
  storeg @w, %m1
  br done
hi:
  %t2 = loadg @w
  %m2 = fmin %t2, %h
  storeg @w, %m2
  br done
done:
  %r = loadg @w
  ret %r
}
)";

unsigned countFused(const vm::CompiledFunction &CF) {
  unsigned N = 0;
  for (const vm::Inst &I : CF.Code)
    N += I.Opc == vm::Op::FusedGRmwD;
  return N;
}

TEST(SuperinstructionTest, LoweringFusesTheRmwIdiom) {
  auto Parsed = ir::parseModule(BatchSubjectIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  vm::CompiledModule Fused = vm::compile(M);
  const vm::CompiledFunction *CF = Fused.lookup(M.functionByName("acc"));
  ASSERT_NE(CF, nullptr);
  ASSERT_TRUE(CF->Ok);
  EXPECT_EQ(countFused(*CF), 3u); // fadd, fmul, fmin triples

  vm::Limits NoFuse;
  NoFuse.Fuse = false;
  vm::CompiledModule Plain = vm::compile(M, NoFuse);
  EXPECT_EQ(countFused(*Plain.lookup(M.functionByName("acc"))), 0u);

  // The boundary pass's Min form emits the idiom too — the
  // instrumentation this satellite exists for.
  instr::BoundaryInstrumentation BI = instr::instrumentBoundary(
      *M.functionByName("helper"), instr::BoundaryForm::Min);
  vm::CompiledModule Instr = vm::compile(M);
  EXPECT_GT(countFused(*Instr.lookup(BI.Wrapped)), 0u);
}

unsigned countFusedCmpBr(const vm::CompiledFunction &CF) {
  unsigned N = 0;
  for (const vm::Inst &I : CF.Code)
    N += I.Opc == vm::Op::FusedFCmpBr;
  return N;
}

TEST(SuperinstructionTest, LoweringFusesCompareBranchPairs) {
  auto Parsed = ir::parseModule(BatchSubjectIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  vm::CompiledModule Fused = vm::compile(M);
  // Each function ends its entry block with `fcmp; condbr` on the
  // compare's result — exactly the fusible pair.
  const vm::CompiledFunction *Acc = Fused.lookup(M.functionByName("acc"));
  const vm::CompiledFunction *Help =
      Fused.lookup(M.functionByName("helper"));
  ASSERT_TRUE(Acc && Acc->Ok && Help && Help->Ok);
  EXPECT_EQ(countFusedCmpBr(*Acc), 1u);
  EXPECT_EQ(countFusedCmpBr(*Help), 1u);

  vm::Limits NoFuse;
  NoFuse.Fuse = false;
  vm::CompiledModule Plain = vm::compile(M, NoFuse);
  EXPECT_EQ(countFusedCmpBr(*Plain.lookup(M.functionByName("acc"))), 0u);
  EXPECT_EQ(countFusedCmpBr(*Plain.lookup(M.functionByName("helper"))),
            0u);
}

TEST(SuperinstructionTest, FusedCompareBranchKeepsTraceAndAccounting) {
  // The fused pair must charge exactly two steps (compare, then branch,
  // each checked at its own virtual boundary) and fire the observer only
  // once the branch step fits — bit-identical to the unfused pair and
  // the interpreter at every budget crossing the pair.
  auto Parsed = ir::parseModule(BatchSubjectIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  const ir::Function *Acc = M.functionByName("acc");

  exec::Engine E(M);
  vm::CompiledModule Fused = vm::compile(M);
  vm::Limits NoFuse;
  NoFuse.Fuse = false;
  vm::CompiledModule Plain = vm::compile(M, NoFuse);
  ASSERT_GT(countFusedCmpBr(*Fused.lookup(Acc)), 0u);
  vm::Machine MF(Fused), MP(Plain);

  RNG Rand(0xcb5);
  for (unsigned K = 0; K < 60; ++K) {
    std::vector<exec::RTValue> Args = {
        exec::RTValue::ofDouble(Rand.uniform(-20.0, 20.0)),
        exec::RTValue::ofDouble(Rand.uniform(-20.0, 20.0))};
    for (uint64_t MaxSteps : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull,
                              8ull, 9ull, 12ull, 2'000'000ull}) {
      exec::ExecOptions Opts;
      Opts.MaxSteps = MaxSteps;
      exec::ExecContext CI(M), CF2(M), CP(M);
      instr::BranchTraceObserver OI, OF, OP;
      CI.setObserver(&OI);
      CF2.setObserver(&OF);
      CP.setObserver(&OP);
      exec::ExecResult RI = E.run(Acc, Args, CI, Opts);
      exec::ExecResult RF = MF.run(*Fused.lookup(Acc), Args, CF2, Opts);
      exec::ExecResult RP = MP.run(*Plain.lookup(Acc), Args, CP, Opts);
      std::string Ctx = "steps " + std::to_string(MaxSteps);
      EXPECT_EQ(static_cast<int>(RI.Kind), static_cast<int>(RF.Kind))
          << Ctx;
      EXPECT_EQ(static_cast<int>(RI.Kind), static_cast<int>(RP.Kind))
          << Ctx;
      EXPECT_EQ(RI.Steps, RF.Steps) << Ctx;
      EXPECT_EQ(RI.Steps, RP.Steps) << Ctx;
      ASSERT_EQ(OI.visits().size(), OF.visits().size()) << Ctx;
      ASSERT_EQ(OI.visits().size(), OP.visits().size()) << Ctx;
      for (size_t V = 0; V < OI.visits().size(); ++V) {
        EXPECT_EQ(OI.visits()[V].Branch, OF.visits()[V].Branch) << Ctx;
        EXPECT_EQ(OI.visits()[V].TakenTrue, OF.visits()[V].TakenTrue)
            << Ctx;
      }
    }
  }
}

TEST(SuperinstructionTest, FusedMatchesUnfusedAndInterpreterEverywhere) {
  auto Parsed = ir::parseModule(BatchSubjectIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  const ir::Function *Acc = M.functionByName("acc");

  exec::Engine E(M);
  vm::CompiledModule Fused = vm::compile(M);
  vm::Limits NoFuse;
  NoFuse.Fuse = false;
  vm::CompiledModule Plain = vm::compile(M, NoFuse);
  vm::Machine MF(Fused), MP(Plain);

  RNG Rand(0xf05e);
  for (unsigned K = 0; K < 200; ++K) {
    double X[2] = {Rand.uniform(-20.0, 20.0), Rand.uniform(-20.0, 20.0)};
    std::vector<exec::RTValue> Args = {exec::RTValue::ofDouble(X[0]),
                                       exec::RTValue::ofDouble(X[1])};
    // Sweep tight step budgets across the whole function so the limit
    // crosses *inside* fused triples too.
    for (uint64_t MaxSteps : {1ull, 2ull, 3ull, 4ull, 5ull, 7ull, 11ull,
                              16ull, 2'000'000ull}) {
      exec::ExecOptions Opts;
      Opts.MaxSteps = MaxSteps;
      exec::ExecContext CI(M), CF2(M), CP(M);
      exec::ExecResult RI = E.run(Acc, Args, CI, Opts);
      exec::ExecResult RF = MF.run(*Fused.lookup(Acc), Args, CF2, Opts);
      exec::ExecResult RP = MP.run(*Plain.lookup(Acc), Args, CP, Opts);
      std::string Ctx = "steps " + std::to_string(MaxSteps) + " input " +
                        std::to_string(X[0]);
      EXPECT_EQ(static_cast<int>(RI.Kind), static_cast<int>(RF.Kind))
          << Ctx;
      EXPECT_EQ(static_cast<int>(RI.Kind), static_cast<int>(RP.Kind))
          << Ctx;
      EXPECT_EQ(RI.Steps, RF.Steps) << Ctx;
      EXPECT_EQ(RI.Steps, RP.Steps) << Ctx;
      if (RI.ok()) {
        EXPECT_EQ(bitsOf(RI.ReturnValue.asDouble()),
                  bitsOf(RF.ReturnValue.asDouble()))
            << Ctx;
        EXPECT_EQ(bitsOf(RI.ReturnValue.asDouble()),
                  bitsOf(RP.ReturnValue.asDouble()))
            << Ctx;
      }
      EXPECT_EQ(bitsOf(CI.getGlobal(M.globalByName("w")).asDouble()),
                bitsOf(CF2.getGlobal(M.globalByName("w")).asDouble()))
          << Ctx;
    }
  }
}

/// Reference for runBatch: the scalar weak-distance driver, lane by lane.
vm::LaneOutcome scalarLane(vm::Machine &Mach, const vm::CompiledFunction &F,
                           const double *X, unsigned WIdx, double WInit,
                           exec::ExecContext &Ctx,
                           const exec::ExecOptions &Opts) {
  Ctx.resetGlobals();
  Ctx.globalSlots()[WIdx] = exec::RTValue::ofDouble(WInit);
  exec::ExecResult R = Mach.run(F, X, F.NumArgs, Ctx, Opts);
  vm::LaneOutcome Out;
  Out.Kind = R.Kind;
  Out.Steps = R.Steps;
  Out.Watched = R.Kind == exec::ExecResult::Outcome::StepLimitExceeded
                    ? 0
                    : Ctx.globalSlots()[WIdx].asDouble();
  return Out;
}

TEST(VMBatchTest, RunBatchMatchesScalarLaneByLane) {
  auto Parsed = ir::parseModule(BatchSubjectIr);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error();
  ir::Module &M = **Parsed;
  const ir::Function *Acc = M.functionByName("acc");
  vm::CompiledModule CM = vm::compile(M);
  const vm::CompiledFunction *CF = CM.lookup(Acc);
  ASSERT_TRUE(CF->Ok);
  exec::ExecContext Ctx(M);
  const unsigned WIdx = Ctx.globalIndexOf(M.globalByName("w"));

  RNG Rand(0xba7c);
  for (uint64_t MaxSteps : {3ull, 9ull, 14ull, 2'000'000ull}) {
    exec::ExecOptions Opts;
    Opts.MaxSteps = MaxSteps;
    for (unsigned Trial = 0; Trial < 20; ++Trial) {
      const size_t K = 1 + Rand.below(40);
      std::vector<double> Xs(K * 2);
      for (double &V : Xs)
        V = Rand.chance(0.2) ? Rand.anyFiniteDouble()
                             : Rand.uniform(-30.0, 30.0);
      if (Rand.chance(0.3))
        Xs[0] = std::nan("");

      vm::Machine BatchMach(CM), ScalarMach(CM);
      std::vector<vm::LaneOutcome> Got(K);
      BatchMach.runBatch(*CF, Xs.data(), K, WIdx, 1.0, Ctx, Opts,
                         Got.data());
      for (size_t L = 0; L < K; ++L) {
        vm::LaneOutcome Want = scalarLane(ScalarMach, *CF,
                                          Xs.data() + 2 * L, WIdx, 1.0,
                                          Ctx, Opts);
        std::string Where = "steps " + std::to_string(MaxSteps) +
                            " lane " + std::to_string(L) + "/" +
                            std::to_string(K);
        EXPECT_EQ(static_cast<int>(Want.Kind),
                  static_cast<int>(Got[L].Kind))
            << Where;
        EXPECT_EQ(Want.Steps, Got[L].Steps) << Where;
        if (Want.Kind != exec::ExecResult::Outcome::StepLimitExceeded)
          EXPECT_EQ(bitsOf(Want.Watched), bitsOf(Got[L].Watched)) << Where;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Weak-distance tier parity
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

TEST(TierBatchParityTest, VMAndInterpreterBatchesMatchScalarBits) {
  for (instr::BoundaryForm Form :
       {instr::BoundaryForm::Product, instr::BoundaryForm::Min}) {
    auto Parsed = ir::parseModule(QuickstartIr);
    ASSERT_TRUE(Parsed.hasValue());
    ir::Module &M = **Parsed;
    analyses::BoundaryAnalysis BVA(M, *M.functionByName("prog"), Form);
    ASSERT_EQ(BVA.executionTier().Effective, vm::EngineKind::VM);

    auto VMEval = BVA.factory().make();
    EXPECT_EQ(VMEval->preferredBatch(), 32u);

    RNG Rand(0xabc1);
    for (unsigned Trial = 0; Trial < 30; ++Trial) {
      const size_t K = 1 + Rand.below(33);
      std::vector<double> Xs(K), FsVM(K);
      for (double &V : Xs)
        V = Rand.chance(0.3) ? Rand.anyFiniteDouble()
                             : Rand.uniform(-10.0, 10.0);
      VMEval->evalBatch(Xs.data(), K, FsVM.data());
      for (size_t L = 0; L < K; ++L) {
        double WScalar = BVA.weak()({Xs[L]}); // interpreter, scalar
        EXPECT_EQ(bitsOf(WScalar), bitsOf(FsVM[L]))
            << "lane " << L << " x " << Xs[L];
      }
      // The interpreter's own batch fallback agrees too.
      std::vector<double> FsInterp(K);
      BVA.weak().evalBatch(Xs.data(), K, FsInterp.data());
      for (size_t L = 0; L < K; ++L)
        EXPECT_EQ(bitsOf(FsInterp[L]), bitsOf(FsVM[L])) << L;
    }
  }
}

//===----------------------------------------------------------------------===//
// Search-level invariance: block size never changes the answer
//===----------------------------------------------------------------------===//

/// Boundary subjects for the search-level sweep. @hit's comparison
/// `floor(x) == 7` is exactly satisfiable on the whole interval [7, 8) —
/// positive measure, so the population backend genuinely reaches a
/// verified zero and the early-stop clips batches mid-block. @miss's
/// `floor(x) == 200` is unreachable inside the sampling box, so the
/// budget runs dry and the per-start slices clip partial blocks instead.
const char *StairsIr = R"(
module "stairs"
func @hit(%x: double) -> double {
entry:
  %f = floor %x
  %c = fcmp.eq %f, 7.0
  condbr %c, t, e
t:
  %r1 = fmul %x, 2.0
  ret %r1
e:
  %r2 = fadd %x, 1.0
  ret %r2
}
func @miss(%x: double) -> double {
entry:
  %f = floor %x
  %c = fcmp.eq %f, 200.0
  condbr %c, t, e
t:
  %r1 = fmul %x, 2.0
  ret %r1
e:
  %r2 = fadd %x, 1.0
  ret %r2
}
)";

/// The witness's branch trace with each condbr named by its layout
/// ordinal (pointers are not comparable across separately parsed
/// modules).
std::vector<std::pair<int, bool>>
traceWitness(analyses::BoundaryAnalysis &BVA, ir::Module &M,
             const std::vector<double> &X) {
  std::unordered_map<const ir::Instruction *, int> Ordinal;
  int Next = 0;
  BVA.original().forEachInst([&](const ir::Instruction *I) {
    if (I->opcode() == ir::Opcode::CondBr)
      Ordinal[I] = Next++;
  });

  instr::BranchTraceObserver Obs;
  exec::ExecContext Ctx(M);
  Ctx.setObserver(&Obs);
  std::vector<exec::RTValue> Args;
  for (double V : X)
    Args.push_back(exec::RTValue::ofDouble(V));
  BVA.engine().run(&BVA.original(), Args, Ctx);
  std::vector<std::pair<int, bool>> Trace;
  for (const auto &V : Obs.visits())
    Trace.push_back({Ordinal.count(V.Branch) ? Ordinal.at(V.Branch) : -1,
                     V.TakenTrue});
  return Trace;
}

struct SearchRun {
  core::SearchResult R;
  std::vector<std::pair<int, bool>> Trace;
  std::vector<opt::VectorRecorder::Sample> Samples;
};

SearchRun runBoundarySearch(const char *Func, vm::EngineKind Engine,
                            unsigned Batch, uint64_t MaxEvals,
                            unsigned Starts, bool Record) {
  auto Parsed = ir::parseModule(StairsIr);
  EXPECT_TRUE(Parsed.hasValue());
  ir::Module &M = **Parsed;
  analyses::BoundaryAnalysis BVA(M, *M.functionByName(Func),
                                 instr::BoundaryForm::Product, Engine);
  opt::DifferentialEvolution Backend; // the population backend
  core::SearchOptions Opts;
  Opts.Seed = 2019;
  Opts.MaxEvals = MaxEvals;
  Opts.Starts = Starts;
  Opts.Batch = Batch;
  opt::VectorRecorder Rec;
  SearchRun Out;
  Out.R = BVA.findOne(Backend, Opts, Record ? &Rec : nullptr);
  if (Out.R.Found)
    Out.Trace = traceWitness(BVA, M, Out.R.Witness);
  Out.Samples = std::move(Rec.Samples);
  return Out;
}

void expectSameSearch(const SearchRun &A, const SearchRun &B,
                      const std::string &Ctx) {
  EXPECT_EQ(A.R.Found, B.R.Found) << Ctx;
  EXPECT_EQ(A.R.Evals, B.R.Evals) << Ctx;
  EXPECT_EQ(A.R.StartsUsed, B.R.StartsUsed) << Ctx; // the winning start
  EXPECT_EQ(A.R.UnsoundCandidates, B.R.UnsoundCandidates) << Ctx;
  EXPECT_EQ(bitsOf(A.R.WStar), bitsOf(B.R.WStar)) << Ctx;
  ASSERT_EQ(A.R.Witness.size(), B.R.Witness.size()) << Ctx;
  for (size_t I = 0; I < A.R.Witness.size(); ++I)
    EXPECT_EQ(bitsOf(A.R.Witness[I]), bitsOf(B.R.Witness[I])) << Ctx;
  ASSERT_EQ(A.Trace.size(), B.Trace.size()) << Ctx;
  for (size_t I = 0; I < A.Trace.size(); ++I) {
    EXPECT_EQ(A.Trace[I].first, B.Trace[I].first) << Ctx;
    EXPECT_EQ(A.Trace[I].second, B.Trace[I].second) << Ctx;
  }
}

TEST(SearchBatchInvarianceTest, BothTiersAllBlockSizesOneAnswer) {
  for (vm::EngineKind Engine :
       {vm::EngineKind::VM, vm::EngineKind::Interp}) {
    SearchRun Ref = runBoundarySearch("hit", Engine, 1, 24'000, 6, false);
    EXPECT_TRUE(Ref.R.Found);
    for (unsigned Batch : {0u, 7u, 32u}) {
      SearchRun R =
          runBoundarySearch("hit", Engine, Batch, 24'000, 6, false);
      expectSameSearch(Ref, R,
                       std::string(vm::engineKindName(Engine)) +
                           " batch " + std::to_string(Batch));
    }
  }
}

TEST(SearchBatchInvarianceTest, BudgetClipBoundary) {
  // No reachable zero and a budget divisible by neither the block size
  // nor the start count: every per-start slice ends mid-block and the
  // batch must clip to the exact scalar consumption.
  for (vm::EngineKind Engine :
       {vm::EngineKind::VM, vm::EngineKind::Interp}) {
    SearchRun Ref = runBoundarySearch("miss", Engine, 1, 1'003, 3, false);
    EXPECT_FALSE(Ref.R.Found);
    for (unsigned Batch : {7u, 32u}) {
      SearchRun R =
          runBoundarySearch("miss", Engine, Batch, 1'003, 3, false);
      expectSameSearch(Ref, R,
                       std::string(vm::engineKindName(Engine)) +
                           " clip batch " + std::to_string(Batch));
    }
  }
}

TEST(SearchBatchInvarianceTest, RecorderStreamIdenticalUnderBatching) {
  SearchRun Ref =
      runBoundarySearch("miss", vm::EngineKind::VM, 1, 3'000, 2, true);
  SearchRun R =
      runBoundarySearch("miss", vm::EngineKind::VM, 32, 3'000, 2, true);
  ASSERT_EQ(Ref.Samples.size(), R.Samples.size());
  EXPECT_GT(Ref.Samples.size(), 0u);
  for (size_t I = 0; I < Ref.Samples.size(); ++I) {
    EXPECT_EQ(bitsOf(Ref.Samples[I].F), bitsOf(R.Samples[I].F)) << I;
    EXPECT_EQ(Ref.Samples[I].X, R.Samples[I].X) << I;
  }
}

} // namespace
