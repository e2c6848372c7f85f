//===--- Machine.cpp - Threaded-code VM for the compiled tier --------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// This translation unit is compiled with -frounding-math (see CMakeLists)
// for exactly the same reason exec/Interpreter.cpp is: the compiler must
// not constant-fold or reorder FP operations across the fesetround calls
// that implement RoundingMode. Arithmetic here must stay bit-for-bit the
// interpreter's.
//
//===----------------------------------------------------------------------===//

#include "vm/Machine.h"

#include "exec/RoundingScope.h"
#include "support/FPUtils.h"

#include <cassert>
#include <cmath>

using namespace wdm;
using namespace wdm::vm;
using namespace wdm::exec;

// Threaded dispatch (computed goto) on GNU-compatible compilers; the
// portable switch below compiles to an indirect jump table as well, just
// with one shared dispatch site instead of one per handler. Define
// WDM_VM_FORCE_SWITCH to build the portable path on any compiler.
#if (defined(__GNUC__) || defined(__clang__)) &&                          \
    !defined(WDM_VM_FORCE_SWITCH)
#define WDM_VM_THREADED 1
#endif

namespace {

/// The arithmetic of a FusedGRmwD superinstruction — exactly the fused
/// source opcode's (this TU is -frounding-math, like the unfused path).
inline double fusedEval(FusedFOp Kind, double X, double Y) {
  switch (Kind) {
  case FusedFOp::FAdd:
    return X + Y;
  case FusedFOp::FSub:
    return X - Y;
  case FusedFOp::FMul:
    return X * Y;
  case FusedFOp::FDiv:
    return X / Y;
  case FusedFOp::FMin:
    return std::fmin(X, Y);
  case FusedFOp::FMax:
    return std::fmax(X, Y);
  }
  return 0;
}

/// The compare of a FusedFCmpBr superinstruction — exactly the fused
/// FCmp opcode's (NaN makes every ordered predicate false and NE true,
/// like the C operators the unfused handlers use).
inline int64_t fusedCmpEval(FusedCmp Pred, double X, double Y) {
  switch (Pred) {
  case FusedCmp::EQ:
    return X == Y;
  case FusedCmp::NE:
    return X != Y;
  case FusedCmp::LT:
    return X < Y;
  case FusedCmp::LE:
    return X <= Y;
  case FusedCmp::GT:
    return X > Y;
  case FusedCmp::GE:
    return X >= Y;
  }
  return 0;
}

/// The interpreter's saturating double->int64 conversion, bit-for-bit.
int64_t saturatingFPToSI(double X) {
  if (std::isnan(X))
    return 0;
  constexpr double Lo = -9.223372036854775808e18;
  constexpr double Hi = 9.223372036854775807e18;
  if (X <= Lo)
    return INT64_MIN;
  if (X >= Hi)
    return INT64_MAX;
  return static_cast<int64_t>(X);
}

} // namespace

void Machine::initFrame(const CompiledFunction &F, size_t Base) {
  Reg *R = Stack.data() + Base;
  const uint64_t *CB = F.ConstBits.data();
  for (unsigned K = 0; K < F.NumConsts; ++K)
    R[F.NumArgs + K].U = CB[K];
  for (unsigned K = 0; K < F.NumSlots; ++K)
    R[F.FirstSlotReg + K].U = 0;
}

ExecResult Machine::run(const CompiledFunction &F, const double *Args,
                        size_t NumArgs, ExecContext &Ctx,
                        const ExecOptions &Opts) {
  assert(F.Ok && "running a rejected function");
  assert(NumArgs == F.NumArgs && "argument count mismatch");
  (void)NumArgs;
  RoundingScope Rounding(Opts.Rounding);
  if (Stack.size() < F.NumRegs)
    Stack.resize(std::max<size_t>(F.NumRegs, 256));
  for (unsigned I = 0; I < F.NumArgs; ++I)
    Stack[I].D = Args[I];
  initFrame(F, 0);
  uint64_t Steps = 0;
  return runFrame(F, 0, Ctx, Opts, Steps, 0);
}

ExecResult Machine::run(const CompiledFunction &F,
                        const std::vector<RTValue> &Args, ExecContext &Ctx,
                        const ExecOptions &Opts) {
  assert(F.Ok && "running a rejected function");
  assert(Args.size() == F.NumArgs && "argument count mismatch");
  RoundingScope Rounding(Opts.Rounding);
  if (Stack.size() < F.NumRegs)
    Stack.resize(std::max<size_t>(F.NumRegs, 256));
  for (unsigned I = 0; I < F.NumArgs; ++I) {
    switch (Args[I].type()) {
    case ir::Type::Double:
      Stack[I].D = Args[I].asDouble();
      break;
    case ir::Type::Int:
      Stack[I].I = Args[I].asInt();
      break;
    case ir::Type::Bool:
      Stack[I].I = Args[I].asBool() ? 1 : 0;
      break;
    case ir::Type::Void:
      assert(false && "void argument");
      Stack[I].U = 0;
      break;
    }
  }
  initFrame(F, 0);
  uint64_t Steps = 0;
  return runFrame(F, 0, Ctx, Opts, Steps, 0);
}

ExecResult Machine::runFrame(const CompiledFunction &F, size_t Base,
                             ExecContext &Ctx, const ExecOptions &Opts,
                             uint64_t &Steps, unsigned Depth) {
  Reg *R = Stack.data() + Base;
  const Inst *const Code = F.Code.data();
  const Inst *IP = Code;

  // Frame-hoisted context state: no hash lookups and no virtual calls on
  // the dispatch path. None of these move during a run.
  ExecObserver *const Obs = Ctx.observer();
  RTValue *const GS = Ctx.globalSlots();
  const uint8_t *const Dis = Ctx.siteDisabledTable().data();
  const int64_t NDis =
      static_cast<int64_t>(Ctx.siteDisabledTable().size());
  const uint64_t MaxSteps = Opts.MaxSteps;

  ExecResult Result;

#ifdef WDM_VM_THREADED
  // One label per Op, in exact enum order.
  static const void *const Lbl[] = {
      &&L_FAdd,   &&L_FSub,   &&L_FMul,   &&L_FDiv,   &&L_FRem,
      &&L_FNeg,   &&L_FAbs,   &&L_Sqrt,   &&L_Sin,    &&L_Cos,
      &&L_Tan,    &&L_Exp,    &&L_Log,    &&L_Pow,    &&L_FMin,
      &&L_FMax,   &&L_Floor,  &&L_FCmpEQ, &&L_FCmpNE, &&L_FCmpLT,
      &&L_FCmpLE, &&L_FCmpGT, &&L_FCmpGE, &&L_ICmpEQ, &&L_ICmpNE,
      &&L_ICmpLT, &&L_ICmpLE, &&L_ICmpGT, &&L_ICmpGE, &&L_IAdd,
      &&L_ISub,   &&L_IMul,   &&L_IAnd,   &&L_IOr,    &&L_IXor,
      &&L_IShl,   &&L_ILShr,  &&L_BAnd,   &&L_BOr,    &&L_BNot,
      &&L_SIToFP, &&L_FPToSI, &&L_HighWord, &&L_UlpDiff, &&L_Select,
      &&L_SlotAddr, &&L_SlotLoad, &&L_SlotStore, &&L_GLoadD,
      &&L_GLoadI, &&L_GStoreD, &&L_GStoreI, &&L_SiteEnabled, &&L_Call,
      &&L_Jmp,    &&L_CondBr, &&L_RetD,   &&L_RetI,   &&L_RetB,
      &&L_RetVoid, &&L_Trap,  &&L_FusedGRmwD, &&L_FusedFCmpBr,
  };
#define VM_CASE(op) L_##op:
#define VM_NEXT()                                                         \
  do {                                                                    \
    ++IP;                                                                 \
    if (++Steps > MaxSteps)                                               \
      goto L_StepLimit;                                                   \
    goto *Lbl[static_cast<uint8_t>(IP->Opc)];                             \
  } while (0)
#define VM_JUMP(pc)                                                       \
  do {                                                                    \
    IP = Code + (pc);                                                     \
    if (++Steps > MaxSteps)                                               \
      goto L_StepLimit;                                                   \
    goto *Lbl[static_cast<uint8_t>(IP->Opc)];                             \
  } while (0)

  if (++Steps > MaxSteps)
    goto L_StepLimit;
  goto *Lbl[static_cast<uint8_t>(IP->Opc)];
#else
#define VM_CASE(op) case Op::op:
#define VM_NEXT()                                                         \
  {                                                                       \
    ++IP;                                                                 \
    break;                                                                \
  }
#define VM_JUMP(pc)                                                       \
  {                                                                       \
    IP = Code + (pc);                                                     \
    break;                                                                \
  }
  for (;;) {
    if (++Steps > MaxSteps)
      goto L_StepLimit;
    switch (IP->Opc) {
#endif

  VM_CASE(FAdd) {
    R[IP->Dest].D = canonicalizeNaN(R[IP->A].D + R[IP->B].D);
    VM_NEXT();
  }
  VM_CASE(FSub) {
    R[IP->Dest].D = canonicalizeNaN(R[IP->A].D - R[IP->B].D);
    VM_NEXT();
  }
  VM_CASE(FMul) {
    R[IP->Dest].D = canonicalizeNaN(R[IP->A].D * R[IP->B].D);
    VM_NEXT();
  }
  VM_CASE(FDiv) {
    R[IP->Dest].D = canonicalizeNaN(R[IP->A].D / R[IP->B].D);
    VM_NEXT();
  }
  VM_CASE(FRem) {
    R[IP->Dest].D = canonicalizeNaN(std::fmod(R[IP->A].D, R[IP->B].D));
    VM_NEXT();
  }
  VM_CASE(FNeg) {
    R[IP->Dest].D = canonicalizeNaN(-R[IP->A].D);
    VM_NEXT();
  }
  VM_CASE(FAbs) {
    R[IP->Dest].D = canonicalizeNaN(std::fabs(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(Sqrt) {
    R[IP->Dest].D = canonicalizeNaN(std::sqrt(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(Sin) {
    R[IP->Dest].D = canonicalizeNaN(std::sin(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(Cos) {
    R[IP->Dest].D = canonicalizeNaN(std::cos(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(Tan) {
    R[IP->Dest].D = canonicalizeNaN(std::tan(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(Exp) {
    R[IP->Dest].D = canonicalizeNaN(std::exp(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(Log) {
    R[IP->Dest].D = canonicalizeNaN(std::log(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(Pow) {
    R[IP->Dest].D = canonicalizeNaN(std::pow(R[IP->A].D, R[IP->B].D));
    VM_NEXT();
  }
  VM_CASE(FMin) {
    R[IP->Dest].D = canonicalizeNaN(std::fmin(R[IP->A].D, R[IP->B].D));
    VM_NEXT();
  }
  VM_CASE(FMax) {
    R[IP->Dest].D = canonicalizeNaN(std::fmax(R[IP->A].D, R[IP->B].D));
    VM_NEXT();
  }
  VM_CASE(Floor) {
    R[IP->Dest].D = canonicalizeNaN(std::floor(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(FCmpEQ) {
    R[IP->Dest].I = R[IP->A].D == R[IP->B].D;
    VM_NEXT();
  }
  VM_CASE(FCmpNE) {
    R[IP->Dest].I = R[IP->A].D != R[IP->B].D;
    VM_NEXT();
  }
  VM_CASE(FCmpLT) {
    R[IP->Dest].I = R[IP->A].D < R[IP->B].D;
    VM_NEXT();
  }
  VM_CASE(FCmpLE) {
    R[IP->Dest].I = R[IP->A].D <= R[IP->B].D;
    VM_NEXT();
  }
  VM_CASE(FCmpGT) {
    R[IP->Dest].I = R[IP->A].D > R[IP->B].D;
    VM_NEXT();
  }
  VM_CASE(FCmpGE) {
    R[IP->Dest].I = R[IP->A].D >= R[IP->B].D;
    VM_NEXT();
  }
  VM_CASE(ICmpEQ) {
    R[IP->Dest].I = R[IP->A].I == R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(ICmpNE) {
    R[IP->Dest].I = R[IP->A].I != R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(ICmpLT) {
    R[IP->Dest].I = R[IP->A].I < R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(ICmpLE) {
    R[IP->Dest].I = R[IP->A].I <= R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(ICmpGT) {
    R[IP->Dest].I = R[IP->A].I > R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(ICmpGE) {
    R[IP->Dest].I = R[IP->A].I >= R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(IAdd) {
    R[IP->Dest].I = static_cast<int64_t>(R[IP->A].U + R[IP->B].U);
    VM_NEXT();
  }
  VM_CASE(ISub) {
    R[IP->Dest].I = static_cast<int64_t>(R[IP->A].U - R[IP->B].U);
    VM_NEXT();
  }
  VM_CASE(IMul) {
    R[IP->Dest].I = static_cast<int64_t>(R[IP->A].U * R[IP->B].U);
    VM_NEXT();
  }
  VM_CASE(IAnd) {
    R[IP->Dest].I = R[IP->A].I & R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(IOr) {
    R[IP->Dest].I = R[IP->A].I | R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(IXor) {
    R[IP->Dest].I = R[IP->A].I ^ R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(IShl) {
    R[IP->Dest].I =
        static_cast<int64_t>(R[IP->A].U << (R[IP->B].U & 63));
    VM_NEXT();
  }
  VM_CASE(ILShr) {
    R[IP->Dest].I =
        static_cast<int64_t>(R[IP->A].U >> (R[IP->B].U & 63));
    VM_NEXT();
  }
  VM_CASE(BAnd) {
    R[IP->Dest].I = R[IP->A].I & R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(BOr) {
    R[IP->Dest].I = R[IP->A].I | R[IP->B].I;
    VM_NEXT();
  }
  VM_CASE(BNot) {
    R[IP->Dest].I = R[IP->A].I ^ 1;
    VM_NEXT();
  }
  VM_CASE(SIToFP) {
    R[IP->Dest].D = static_cast<double>(R[IP->A].I);
    VM_NEXT();
  }
  VM_CASE(FPToSI) {
    R[IP->Dest].I = saturatingFPToSI(R[IP->A].D);
    VM_NEXT();
  }
  VM_CASE(HighWord) {
    R[IP->Dest].I = static_cast<int64_t>(highWord(R[IP->A].D));
    VM_NEXT();
  }
  VM_CASE(UlpDiff) {
    R[IP->Dest].D = ulpDistanceAsDouble(R[IP->A].D, R[IP->B].D);
    VM_NEXT();
  }
  VM_CASE(Select) {
    R[IP->Dest].U = R[IP->A].I ? R[IP->B].U : R[IP->C].U;
    VM_NEXT();
  }
  VM_CASE(SlotAddr) {
    R[IP->Dest].I = IP->Imm;
    VM_NEXT();
  }
  VM_CASE(SlotLoad) {
    R[IP->Dest].U = R[IP->Imm2].U;
    VM_NEXT();
  }
  VM_CASE(SlotStore) {
    R[IP->Imm2].U = R[IP->A].U;
    VM_NEXT();
  }
  VM_CASE(GLoadD) {
    R[IP->Dest].D = GS[IP->Imm].asDouble();
    VM_NEXT();
  }
  VM_CASE(GLoadI) {
    R[IP->Dest].I = GS[IP->Imm].asInt();
    VM_NEXT();
  }
  VM_CASE(GStoreD) {
    GS[IP->Imm] = RTValue::ofDouble(R[IP->A].D);
    VM_NEXT();
  }
  VM_CASE(GStoreI) {
    GS[IP->Imm] = RTValue::ofInt(R[IP->A].I);
    VM_NEXT();
  }
  VM_CASE(SiteEnabled) {
    const int64_t Id = IP->Imm;
    R[IP->Dest].I = (Id < 0 || Id >= NDis) ? 1 : (Dis[Id] ? 0 : 1);
    VM_NEXT();
  }
  VM_CASE(Call) {
    const CompiledFunction &Callee = CM.Functions[IP->Imm2];
    if (Depth + 1 >= Opts.MaxCallDepth) {
      Result.Kind = ExecResult::Outcome::StepLimitExceeded;
      Result.Steps = Steps;
      return Result;
    }
    const size_t CalleeBase = Base + F.NumRegs;
    if (Stack.size() < CalleeBase + Callee.NumRegs) {
      Stack.resize(
          std::max<size_t>(CalleeBase + Callee.NumRegs, Stack.size() * 2));
      R = Stack.data() + Base;
    }
    const uint16_t *ArgRegs = F.CallArgPool.data() + IP->Imm;
    for (unsigned K = 0; K < Callee.NumArgs; ++K)
      Stack[CalleeBase + K].U = R[ArgRegs[K]].U;
    initFrame(Callee, CalleeBase);
    ExecResult Sub =
        runFrame(Callee, CalleeBase, Ctx, Opts, Steps, Depth + 1);
    R = Stack.data() + Base; // The callee may have grown the stack.
    if (!Sub.ok()) {
      Sub.Steps = Steps;
      return Sub;
    }
    switch (Callee.RetType) {
    case ir::Type::Double:
      R[IP->Dest].D = Sub.ReturnValue.asDouble();
      break;
    case ir::Type::Int:
      R[IP->Dest].I = Sub.ReturnValue.asInt();
      break;
    case ir::Type::Bool:
      R[IP->Dest].I = Sub.ReturnValue.asBool() ? 1 : 0;
      break;
    case ir::Type::Void:
      break;
    }
    VM_NEXT();
  }
  VM_CASE(Jmp) { VM_JUMP(IP->Imm); }
  VM_CASE(CondBr) {
    const bool Taken = R[IP->A].I != 0;
    if (Obs)
      Obs->onBranch(F.Branches[IP->Dest], Taken);
    VM_JUMP(Taken ? IP->Imm : IP->Imm2);
  }
  VM_CASE(RetD) {
    Result.Kind = ExecResult::Outcome::Ok;
    Result.ReturnValue = RTValue::ofDouble(R[IP->A].D);
    Result.Steps = Steps;
    return Result;
  }
  VM_CASE(RetI) {
    Result.Kind = ExecResult::Outcome::Ok;
    Result.ReturnValue = RTValue::ofInt(R[IP->A].I);
    Result.Steps = Steps;
    return Result;
  }
  VM_CASE(RetB) {
    Result.Kind = ExecResult::Outcome::Ok;
    Result.ReturnValue = RTValue::ofBool(R[IP->A].I != 0);
    Result.Steps = Steps;
    return Result;
  }
  VM_CASE(RetVoid) {
    Result.Kind = ExecResult::Outcome::Ok;
    Result.Steps = Steps;
    return Result;
  }
  VM_CASE(Trap) {
    Result.Kind = ExecResult::Outcome::Trapped;
    Result.TrapId = IP->Imm;
    Result.TrapMessage = F.TrapMessages[IP->Imm2];
    Result.Steps = Steps;
    return Result;
  }
  VM_CASE(FusedGRmwD) {
    // The dispatch step covered the fused loadg; the fop and the storeg
    // cost one step each, with the limit checked at every virtual
    // instruction boundary — bit-for-bit the unfused accounting. The
    // global is only written once all three steps fit (an unfused run
    // crossing the limit mid-triple never reached its storeg either).
    if (Steps + 2 > MaxSteps) {
      Steps = (Steps + 1 > MaxSteps) ? Steps + 1 : Steps + 2;
      goto L_StepLimit;
    }
    Steps += 2;
    const double T = GS[IP->Imm].asDouble();
    R[IP->Dest].D = T; // the loadg result may have later uses
    const double V = canonicalizeNaN(fusedEval(
        static_cast<FusedFOp>(IP->Imm2), R[IP->A].D, R[IP->B].D));
    R[IP->C].D = V;
    GS[IP->Imm] = RTValue::ofDouble(V);
    IP += 2; // skip the fused-away fop and storeg
    VM_NEXT();
  }
  VM_CASE(FusedFCmpBr) {
    // The dispatch step covered the compare; the condbr costs one more,
    // checked at its virtual boundary before the observer fires (an
    // unfused run crossing the limit there never reached the condbr
    // either — but had already written the compare result).
    const int64_t T = fusedCmpEval(static_cast<FusedCmp>(IP->Imm2),
                                   R[IP->A].D, R[IP->B].D);
    R[IP->Dest].I = T; // the compare result may have later uses
    if (++Steps > MaxSteps)
      goto L_StepLimit;
    const Inst &Br = IP[1]; // the fused-away condbr carries the targets
    const bool Taken = T != 0;
    if (Obs)
      Obs->onBranch(F.Branches[Br.Dest], Taken);
    VM_JUMP(Taken ? Br.Imm : Br.Imm2);
  }

#ifndef WDM_VM_THREADED
    }
  }
#endif

L_StepLimit:
  Result.Kind = ExecResult::Outcome::StepLimitExceeded;
  Result.Steps = Steps;
  return Result;

#undef VM_CASE
#undef VM_NEXT
#undef VM_JUMP
}

//===----------------------------------------------------------------------===//
// Batched (lockstep) execution
//===----------------------------------------------------------------------===//

void Machine::runBatch(const CompiledFunction &F, const double *Xs,
                       size_t K, unsigned WatchSlot, double WatchInit,
                       ExecContext &Ctx, const ExecOptions &Opts,
                       LaneOutcome *Out) {
  assert(F.Ok && "batch-running a rejected function");
  assert(!Ctx.observer() &&
         "batched runs are observer-free; observed callers run scalar");
  if (K == 0)
    return;
  // One rounding-mode switch for the whole block — the per-evaluation
  // fesetround pair is part of what batching amortizes away.
  RoundingScope Rounding(Opts.Rounding);

  // Per-lane global columns, seeded from the context's reset state. The
  // declared type of each slot is fixed (the lowering specializes
  // GLoadD/GLoadI by it), so the columns hold raw 64-bit payloads.
  Ctx.resetGlobals();
  RTValue *const GS = Ctx.globalSlots();
  const size_t NG = Ctx.module().numGlobals();
  assert(WatchSlot < NG && "watched slot outside the module's globals");
  BGlobType.resize(NG);
  BGlob.resize(NG * K);
  for (size_t G = 0; G < NG; ++G) {
    BGlobType[G] = GS[G].type();
    Reg R0;
    R0.U = 0;
    switch (GS[G].type()) {
    case ir::Type::Double:
      R0.D = GS[G].asDouble();
      break;
    case ir::Type::Int:
      R0.I = GS[G].asInt();
      break;
    case ir::Type::Bool:
      R0.I = GS[G].asBool() ? 1 : 0;
      break;
    case ir::Type::Void:
      break;
    }
    for (size_t L = 0; L < K; ++L)
      BGlob[G * K + L] = R0;
  }
  for (size_t L = 0; L < K; ++L)
    BGlob[static_cast<size_t>(WatchSlot) * K + L].D = WatchInit;

  // The struct-of-arrays frame: [args][consts][results][slots] columns,
  // K lanes wide. Zero-fill covers the alloca slot registers.
  Reg Zero;
  Zero.U = 0;
  BStack.assign(static_cast<size_t>(F.NumRegs) * K, Zero);
  for (unsigned A = 0; A < F.NumArgs; ++A)
    for (size_t L = 0; L < K; ++L)
      BStack[static_cast<size_t>(A) * K + L].D = Xs[L * F.NumArgs + A];
  for (unsigned C = 0; C < F.NumConsts; ++C) {
    Reg V;
    V.U = F.ConstBits[C];
    for (size_t L = 0; L < K; ++L)
      BStack[static_cast<size_t>(F.NumArgs + C) * K + L] = V;
  }

  BSteps.assign(K, 0);
  BLanes.resize(K);
  for (size_t L = 0; L < K; ++L)
    BLanes[L] = static_cast<uint32_t>(L);
  BScratch.resize(K);

  const uint64_t MaxSteps = Opts.MaxSteps;
  const uint8_t *const Dis = Ctx.siteDisabledTable().data();
  const int64_t NDis =
      static_cast<int64_t>(Ctx.siteDisabledTable().size());
  const Inst *const Code = F.Code.data();
  Reg *const BS = BStack.data();

  auto Retire = [&](size_t L, ExecResult::Outcome Kind, double W) {
    Out[L].Kind = Kind;
    Out[L].Steps = BSteps[L];
    Out[L].Watched = W;
  };

  // Typed sync of one lane's global column into / out of the context —
  // the bridge to the scalar paths (per-lane calls, divergence finish).
  auto PushGlobals = [&](size_t L) {
    for (size_t G = 0; G < NG; ++G) {
      const Reg V = BGlob[G * K + L];
      switch (BGlobType[G]) {
      case ir::Type::Double:
        GS[G] = RTValue::ofDouble(V.D);
        break;
      case ir::Type::Int:
        GS[G] = RTValue::ofInt(V.I);
        break;
      case ir::Type::Bool:
        GS[G] = RTValue::ofBool(V.I != 0);
        break;
      case ir::Type::Void:
        break;
      }
    }
  };
  auto PullGlobals = [&](size_t L) {
    for (size_t G = 0; G < NG; ++G) {
      Reg &V = BGlob[G * K + L];
      switch (BGlobType[G]) {
      case ir::Type::Double:
        V.D = GS[G].asDouble();
        break;
      case ir::Type::Int:
        V.I = GS[G].asInt();
        break;
      case ir::Type::Bool:
        V.I = GS[G].asBool() ? 1 : 0;
        break;
      case ir::Type::Void:
        break;
      }
    }
  };

// Per-lane register / global column accessors. FOR_GROUP iterates the
// current group's contiguous span [B, E) of BLanes; LANE is the lane id
// at the loop position.
#define FOR_GROUP for (uint32_t J = B; J < E; ++J)
#define LANE (BLanes[J])
#define BREG(Idx) BS[static_cast<size_t>(Idx) * K + LANE]
#define BGLOB(Slot) BGlob[static_cast<size_t>(Slot) * K + LANE]

  // Group scheduler: each group is a span of BLanes sharing one pc.
  // Divergent branches split the span in place (taken lanes first) and
  // queue the not-taken half; queued groups are disjoint spans, so the
  // stack never exceeds K-1 entries and nothing is copied but lane ids.
  struct Seg {
    size_t Pc;
    uint32_t Begin, End;
  };
  std::vector<Seg> Work;

  size_t Pc = 0;
  uint32_t B = 0, E = static_cast<uint32_t>(K);
  for (;;) {
    while (B < E) {
    const Inst &I = Code[Pc];

    // One step per lane per executed instruction, checked before
    // execution — the scalar accounting, lanewise. Lanes that hit the
    // limit retire and the span compacts around them.
    {
      uint32_t W = B;
      FOR_GROUP {
        const uint32_t L = LANE;
        if (++BSteps[L] > MaxSteps)
          Retire(L, ExecResult::Outcome::StepLimitExceeded, 0);
        else
          BLanes[W++] = L;
      }
      E = W;
      if (B == E)
        break;
    }

    switch (I.Opc) {
    case Op::FAdd:
      FOR_GROUP BREG(I.Dest).D =
          canonicalizeNaN(BREG(I.A).D + BREG(I.B).D);
      ++Pc;
      break;
    case Op::FSub:
      FOR_GROUP BREG(I.Dest).D =
          canonicalizeNaN(BREG(I.A).D - BREG(I.B).D);
      ++Pc;
      break;
    case Op::FMul:
      FOR_GROUP BREG(I.Dest).D =
          canonicalizeNaN(BREG(I.A).D * BREG(I.B).D);
      ++Pc;
      break;
    case Op::FDiv:
      FOR_GROUP BREG(I.Dest).D =
          canonicalizeNaN(BREG(I.A).D / BREG(I.B).D);
      ++Pc;
      break;
    case Op::FRem:
      FOR_GROUP BREG(I.Dest).D =
          canonicalizeNaN(std::fmod(BREG(I.A).D, BREG(I.B).D));
      ++Pc;
      break;
    case Op::FNeg:
      FOR_GROUP BREG(I.Dest).D = canonicalizeNaN(-BREG(I.A).D);
      ++Pc;
      break;
    case Op::FAbs:
      FOR_GROUP BREG(I.Dest).D = canonicalizeNaN(std::fabs(BREG(I.A).D));
      ++Pc;
      break;
    case Op::Sqrt:
      FOR_GROUP BREG(I.Dest).D = canonicalizeNaN(std::sqrt(BREG(I.A).D));
      ++Pc;
      break;
    case Op::Sin:
      FOR_GROUP BREG(I.Dest).D = canonicalizeNaN(std::sin(BREG(I.A).D));
      ++Pc;
      break;
    case Op::Cos:
      FOR_GROUP BREG(I.Dest).D = canonicalizeNaN(std::cos(BREG(I.A).D));
      ++Pc;
      break;
    case Op::Tan:
      FOR_GROUP BREG(I.Dest).D = canonicalizeNaN(std::tan(BREG(I.A).D));
      ++Pc;
      break;
    case Op::Exp:
      FOR_GROUP BREG(I.Dest).D = canonicalizeNaN(std::exp(BREG(I.A).D));
      ++Pc;
      break;
    case Op::Log:
      FOR_GROUP BREG(I.Dest).D = canonicalizeNaN(std::log(BREG(I.A).D));
      ++Pc;
      break;
    case Op::Pow:
      FOR_GROUP BREG(I.Dest).D =
          canonicalizeNaN(std::pow(BREG(I.A).D, BREG(I.B).D));
      ++Pc;
      break;
    case Op::FMin:
      FOR_GROUP BREG(I.Dest).D =
          canonicalizeNaN(std::fmin(BREG(I.A).D, BREG(I.B).D));
      ++Pc;
      break;
    case Op::FMax:
      FOR_GROUP BREG(I.Dest).D =
          canonicalizeNaN(std::fmax(BREG(I.A).D, BREG(I.B).D));
      ++Pc;
      break;
    case Op::Floor:
      FOR_GROUP BREG(I.Dest).D = canonicalizeNaN(std::floor(BREG(I.A).D));
      ++Pc;
      break;
    case Op::FCmpEQ:
      FOR_GROUP BREG(I.Dest).I = BREG(I.A).D == BREG(I.B).D;
      ++Pc;
      break;
    case Op::FCmpNE:
      FOR_GROUP BREG(I.Dest).I = BREG(I.A).D != BREG(I.B).D;
      ++Pc;
      break;
    case Op::FCmpLT:
      FOR_GROUP BREG(I.Dest).I = BREG(I.A).D < BREG(I.B).D;
      ++Pc;
      break;
    case Op::FCmpLE:
      FOR_GROUP BREG(I.Dest).I = BREG(I.A).D <= BREG(I.B).D;
      ++Pc;
      break;
    case Op::FCmpGT:
      FOR_GROUP BREG(I.Dest).I = BREG(I.A).D > BREG(I.B).D;
      ++Pc;
      break;
    case Op::FCmpGE:
      FOR_GROUP BREG(I.Dest).I = BREG(I.A).D >= BREG(I.B).D;
      ++Pc;
      break;
    case Op::ICmpEQ:
      FOR_GROUP BREG(I.Dest).I = BREG(I.A).I == BREG(I.B).I;
      ++Pc;
      break;
    case Op::ICmpNE:
      FOR_GROUP BREG(I.Dest).I = BREG(I.A).I != BREG(I.B).I;
      ++Pc;
      break;
    case Op::ICmpLT:
      FOR_GROUP BREG(I.Dest).I = BREG(I.A).I < BREG(I.B).I;
      ++Pc;
      break;
    case Op::ICmpLE:
      FOR_GROUP BREG(I.Dest).I = BREG(I.A).I <= BREG(I.B).I;
      ++Pc;
      break;
    case Op::ICmpGT:
      FOR_GROUP BREG(I.Dest).I = BREG(I.A).I > BREG(I.B).I;
      ++Pc;
      break;
    case Op::ICmpGE:
      FOR_GROUP BREG(I.Dest).I = BREG(I.A).I >= BREG(I.B).I;
      ++Pc;
      break;
    case Op::IAdd:
      FOR_GROUP BREG(I.Dest).I =
          static_cast<int64_t>(BREG(I.A).U + BREG(I.B).U);
      ++Pc;
      break;
    case Op::ISub:
      FOR_GROUP BREG(I.Dest).I =
          static_cast<int64_t>(BREG(I.A).U - BREG(I.B).U);
      ++Pc;
      break;
    case Op::IMul:
      FOR_GROUP BREG(I.Dest).I =
          static_cast<int64_t>(BREG(I.A).U * BREG(I.B).U);
      ++Pc;
      break;
    case Op::IAnd:
    case Op::BAnd:
      FOR_GROUP BREG(I.Dest).I = BREG(I.A).I & BREG(I.B).I;
      ++Pc;
      break;
    case Op::IOr:
    case Op::BOr:
      FOR_GROUP BREG(I.Dest).I = BREG(I.A).I | BREG(I.B).I;
      ++Pc;
      break;
    case Op::IXor:
      FOR_GROUP BREG(I.Dest).I = BREG(I.A).I ^ BREG(I.B).I;
      ++Pc;
      break;
    case Op::IShl:
      FOR_GROUP BREG(I.Dest).I =
          static_cast<int64_t>(BREG(I.A).U << (BREG(I.B).U & 63));
      ++Pc;
      break;
    case Op::ILShr:
      FOR_GROUP BREG(I.Dest).I =
          static_cast<int64_t>(BREG(I.A).U >> (BREG(I.B).U & 63));
      ++Pc;
      break;
    case Op::BNot:
      FOR_GROUP BREG(I.Dest).I = BREG(I.A).I ^ 1;
      ++Pc;
      break;
    case Op::SIToFP:
      FOR_GROUP BREG(I.Dest).D = static_cast<double>(BREG(I.A).I);
      ++Pc;
      break;
    case Op::FPToSI:
      FOR_GROUP BREG(I.Dest).I = saturatingFPToSI(BREG(I.A).D);
      ++Pc;
      break;
    case Op::HighWord:
      FOR_GROUP BREG(I.Dest).I =
          static_cast<int64_t>(highWord(BREG(I.A).D));
      ++Pc;
      break;
    case Op::UlpDiff:
      FOR_GROUP BREG(I.Dest).D =
          ulpDistanceAsDouble(BREG(I.A).D, BREG(I.B).D);
      ++Pc;
      break;
    case Op::Select:
      FOR_GROUP BREG(I.Dest).U =
          BREG(I.A).I ? BREG(I.B).U : BREG(I.C).U;
      ++Pc;
      break;
    case Op::SlotAddr:
      FOR_GROUP BREG(I.Dest).I = I.Imm;
      ++Pc;
      break;
    case Op::SlotLoad:
      FOR_GROUP BREG(I.Dest).U = BREG(I.Imm2).U;
      ++Pc;
      break;
    case Op::SlotStore:
      FOR_GROUP BREG(I.Imm2).U = BREG(I.A).U;
      ++Pc;
      break;
    case Op::GLoadD:
      FOR_GROUP BREG(I.Dest).D = BGLOB(I.Imm).D;
      ++Pc;
      break;
    case Op::GLoadI:
      FOR_GROUP BREG(I.Dest).I = BGLOB(I.Imm).I;
      ++Pc;
      break;
    case Op::GStoreD:
      FOR_GROUP BGLOB(I.Imm).D = BREG(I.A).D;
      ++Pc;
      break;
    case Op::GStoreI:
      FOR_GROUP BGLOB(I.Imm).I = BREG(I.A).I;
      ++Pc;
      break;
    case Op::SiteEnabled: {
      const int64_t Id = I.Imm;
      const int64_t En = (Id < 0 || Id >= NDis) ? 1 : (Dis[Id] ? 0 : 1);
      FOR_GROUP BREG(I.Dest).I = En;
      ++Pc;
      break;
    }
    case Op::FusedGRmwD: {
      uint32_t W = B;
      FOR_GROUP {
        const uint32_t L = LANE;
        if (BSteps[L] + 2 > MaxSteps) {
          BSteps[L] += (BSteps[L] + 1 > MaxSteps) ? 1 : 2;
          Retire(L, ExecResult::Outcome::StepLimitExceeded, 0);
          continue;
        }
        BSteps[L] += 2;
        Reg &GW = BGLOB(I.Imm);
        BREG(I.Dest).D = GW.D;
        const double V = canonicalizeNaN(fusedEval(
            static_cast<FusedFOp>(I.Imm2), BREG(I.A).D, BREG(I.B).D));
        BREG(I.C).D = V;
        GW.D = V;
        BLanes[W++] = L;
      }
      E = W;
      Pc += 3;
      break;
    }
    case Op::FusedFCmpBr: {
      // The generic lane-step charge above covered the compare; the
      // condbr costs one more per lane, checked at its own virtual
      // boundary (over-limit lanes retire with the compare result
      // already written, exactly like an unfused run).
      FOR_GROUP BREG(I.Dest).I = fusedCmpEval(
          static_cast<FusedCmp>(I.Imm2), BREG(I.A).D, BREG(I.B).D);
      {
        uint32_t W = B;
        FOR_GROUP {
          const uint32_t L = LANE;
          if (++BSteps[L] > MaxSteps)
            Retire(L, ExecResult::Outcome::StepLimitExceeded, 0);
          else
            BLanes[W++] = L;
        }
        E = W;
        if (B == E)
          break;
      }
      // Then the CondBr partition, reading the just-written compare
      // result; the fused-away condbr at pc+1 carries the targets.
      const Inst &Br = Code[Pc + 1];
      uint32_t W = B, NumNot = 0;
      FOR_GROUP {
        const uint32_t L = LANE;
        if (BS[static_cast<size_t>(I.Dest) * K + L].I != 0)
          BLanes[W++] = L;
        else
          BScratch[NumNot++] = L;
      }
      const uint32_t NumTaken = W - B;
      for (uint32_t N = 0; N < NumNot; ++N)
        BLanes[W++] = BScratch[N];
      if (NumNot == 0) {
        Pc = static_cast<size_t>(Br.Imm);
        break;
      }
      if (NumTaken == 0) {
        Pc = static_cast<size_t>(Br.Imm2);
        break;
      }
      Work.push_back({static_cast<size_t>(Br.Imm2), B + NumTaken, E});
      E = B + NumTaken;
      Pc = static_cast<size_t>(Br.Imm);
      break;
    }
    case Op::Call: {
      // Calls leave lockstep lane by lane: each lane of the group runs
      // the callee on the scalar stack against its own global column.
      const CompiledFunction &Callee = CM.Functions[I.Imm2];
      const uint16_t *ArgRegs = F.CallArgPool.data() + I.Imm;
      uint32_t W = B;
      FOR_GROUP {
        const uint32_t L = LANE;
        if (1 >= Opts.MaxCallDepth) {
          Retire(L, ExecResult::Outcome::StepLimitExceeded, 0);
          continue;
        }
        PushGlobals(L);
        if (Stack.size() < Callee.NumRegs)
          Stack.resize(std::max<size_t>(Callee.NumRegs, 256));
        for (unsigned A = 0; A < Callee.NumArgs; ++A)
          Stack[A].U = BREG(ArgRegs[A]).U;
        initFrame(Callee, 0);
        ExecResult Sub = runFrame(Callee, 0, Ctx, Opts, BSteps[L], 1);
        PullGlobals(L); // the callee may have stored globals
        if (!Sub.ok()) {
          Retire(L, Sub.Kind,
                 Sub.Kind == ExecResult::Outcome::Trapped
                     ? BGLOB(WatchSlot).D
                     : 0);
          continue;
        }
        switch (Callee.RetType) {
        case ir::Type::Double:
          BREG(I.Dest).D = Sub.ReturnValue.asDouble();
          break;
        case ir::Type::Int:
          BREG(I.Dest).I = Sub.ReturnValue.asInt();
          break;
        case ir::Type::Bool:
          BREG(I.Dest).I = Sub.ReturnValue.asBool() ? 1 : 0;
          break;
        case ir::Type::Void:
          break;
        }
        BLanes[W++] = L;
      }
      E = W;
      ++Pc;
      break;
    }
    case Op::Jmp:
      Pc = static_cast<size_t>(I.Imm);
      break;
    case Op::CondBr: {
      // Stable in-place partition: taken lanes keep the front of the
      // span, not-taken lanes stage through the scratch buffer.
      uint32_t W = B, NumNot = 0;
      FOR_GROUP {
        const uint32_t L = LANE;
        if (BS[static_cast<size_t>(I.A) * K + L].I != 0)
          BLanes[W++] = L;
        else
          BScratch[NumNot++] = L;
      }
      const uint32_t NumTaken = W - B;
      for (uint32_t N = 0; N < NumNot; ++N)
        BLanes[W++] = BScratch[N];
      if (NumNot == 0) {
        Pc = static_cast<size_t>(I.Imm);
        break;
      }
      if (NumTaken == 0) {
        Pc = static_cast<size_t>(I.Imm2);
        break;
      }
      // Divergence: the not-taken half resumes in lockstep later.
      Work.push_back(
          {static_cast<size_t>(I.Imm2), B + NumTaken, E});
      E = B + NumTaken;
      Pc = static_cast<size_t>(I.Imm);
      break;
    }
    case Op::RetD:
    case Op::RetI:
    case Op::RetB:
    case Op::RetVoid:
      FOR_GROUP Retire(LANE, ExecResult::Outcome::Ok, BGLOB(WatchSlot).D);
      E = B; // the whole group is done
      break;
    case Op::Trap:
      // Traps leave w meaningful — same policy as the scalar driver.
      FOR_GROUP Retire(LANE, ExecResult::Outcome::Trapped,
                       BGLOB(WatchSlot).D);
      E = B;
      break;
    }
    }

    if (Work.empty())
      break;
    const Seg S = Work.back();
    Work.pop_back();
    Pc = S.Pc;
    B = S.Begin;
    E = S.End;
  }

#undef BREG
#undef BGLOB
#undef LANE
#undef FOR_GROUP
}
