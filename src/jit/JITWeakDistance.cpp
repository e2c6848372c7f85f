//===--- JITWeakDistance.cpp - Native-tier weak distance -------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "jit/JITWeakDistance.h"

#include "exec/RoundingScope.h"
#include "obs/Telemetry.h"
#include "support/FPUtils.h"

#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

using namespace wdm;
using namespace wdm::jit;
using namespace wdm::exec;

// The native entry's outcome codes ARE ExecResult::Outcome values; the
// emitter hard-codes them, so pin the correspondence here.
static_assert(static_cast<uint32_t>(ExecResult::Outcome::Ok) == 0 &&
                  static_cast<uint32_t>(ExecResult::Outcome::Trapped) == 1 &&
                  static_cast<uint32_t>(
                      ExecResult::Outcome::StepLimitExceeded) == 2,
              "emitted code returns ExecResult::Outcome by value");

std::string wdm::jit::engineNamesForErrors() {
  std::string S = "'interp', 'vm', 'jit'";
  if (!available())
    S += " (unavailable on this platform)";
  return S;
}

namespace {

void pullGlobalsRaw(const ExecContext &Ctx, std::vector<uint64_t> &Raw) {
  const RTValue *GS = Ctx.globalSlots();
  const size_t NG = Ctx.module().numGlobals();
  Raw.resize(NG);
  for (size_t G = 0; G < NG; ++G) {
    Reg V;
    V.U = 0;
    switch (GS[G].type()) {
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
    Raw[G] = V.U;
  }
}

void pushGlobalsRaw(ExecContext &Ctx, const std::vector<uint64_t> &Raw) {
  // The declared slot types are fixed (the lowering specializes
  // GLoadD/GLoadI by them), so the typed slots still carry the right
  // tags to write back through.
  RTValue *GS = Ctx.globalSlots();
  for (size_t G = 0; G < Raw.size(); ++G) {
    Reg V;
    V.U = Raw[G];
    switch (GS[G].type()) {
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
}

/// Fills the JitRT fields that stay fixed across runs against one
/// (module, context, options) binding. \p RawGlob and \p Arena are
/// sized here — the data pointers baked into RT must never move, so
/// callers keep both vectors untouched afterwards. Steps and Obs are
/// per-run state and are NOT set here.
void fillInvariantRT(JitRT &RT, const CompiledModule &JM,
                     const ExecContext &Ctx, const ExecOptions &Opts,
                     std::vector<uint64_t> &RawGlob,
                     std::vector<Reg> &Arena) {
  RawGlob.resize(Ctx.module().numGlobals());
  Arena.resize(static_cast<size_t>(Opts.MaxCallDepth) * JM.MaxCalleeRegs);
  RT.MaxSteps = Opts.MaxSteps;
  RT.Globals = RawGlob.data();
  RT.Dis = Ctx.siteDisabledTable().data();
  RT.NDis = static_cast<int64_t>(Ctx.siteDisabledTable().size());
  RT.QNaN = bitsOf(std::numeric_limits<double>::quiet_NaN());
  RT.MaxCallDepth = Opts.MaxCallDepth;
  RT.ArenaTop = Arena.data();
  RT.ArenaEnd = Arena.data() + Arena.size();
  RT.JM = &JM;
}

Reg toReg(double D) {
  Reg R;
  R.D = D;
  return R;
}

Reg toReg(const RTValue &V) {
  Reg R;
  R.U = 0;
  switch (V.type()) {
  case ir::Type::Double:
    R.D = V.asDouble();
    break;
  case ir::Type::Int:
    R.I = V.asInt();
    break;
  case ir::Type::Bool:
    R.I = V.asBool() ? 1 : 0;
    break;
  case ir::Type::Void:
    assert(false && "void argument");
    break;
  }
  return R;
}

// The frame contract every tier shares (vm::Machine::initFrame,
// wdm_jit_call): a frame is entered with its args and consts written and
// its alloca slots zeroed. The result registers keep whatever an earlier
// run left there — IR dominance guarantees each is written before it is
// read. No emitted code writes a const register, so a frame that only
// ever serves one function takes its consts once.

/// Writes \p VF's pooled constants into their registers.
void loadConsts(const vm::CompiledFunction &VF, Reg *Frame) {
  for (unsigned K = 0; K < VF.NumConsts; ++K)
    Frame[VF.NumArgs + K].U = VF.ConstBits[K];
}

/// Enters \p VF's frame, whose consts are already loaded: writes the
/// args and zeroes the alloca slots.
template <typename Arg>
void enterFrame(const vm::CompiledFunction &VF, Reg *Frame, const Arg *Args) {
  for (unsigned K = 0; K < VF.NumArgs; ++K)
    Frame[K] = toReg(Args[K]);
  for (unsigned K = 0; K < VF.NumSlots; ++K)
    Frame[VF.FirstSlotReg + K].U = 0;
}

/// Translates a native entry's outcome into an ExecResult.
ExecResult finishNative(uint32_t Out, const JitRT &RT,
                        const vm::CompiledFunction &VF) {
  ExecResult R;
  R.Steps = RT.Steps;
  switch (Out) {
  case 0:
    R.Kind = ExecResult::Outcome::Ok;
    switch (VF.RetType) {
    case ir::Type::Double:
      R.ReturnValue = RTValue::ofDouble(fromBits(RT.RetBits));
      break;
    case ir::Type::Int:
      R.ReturnValue = RTValue::ofInt(static_cast<int64_t>(RT.RetBits));
      break;
    case ir::Type::Bool:
      R.ReturnValue = RTValue::ofBool(RT.RetBits != 0);
      break;
    case ir::Type::Void:
      break;
    }
    break;
  case 1:
    R.Kind = ExecResult::Outcome::Trapped;
    R.TrapId = RT.TrapId;
    R.TrapMessage = *static_cast<const std::string *>(RT.TrapMsg);
    break;
  default:
    R.Kind = ExecResult::Outcome::StepLimitExceeded;
    break;
  }
  return R;
}

/// The typed run behind jit::run and Runner::run, on an RT whose
/// invariant fields are filled: stage the raw global mirror and the
/// frame, invoke the entry, write the globals back, and translate the
/// outcome. Expects the rounding mode to be installed by the caller.
ExecResult runTyped(const CompiledModule &JM, const CompiledFunction &JF,
                    ExecContext &Ctx, JitRT &RT,
                    std::vector<uint64_t> &RawGlob, std::vector<Reg> &Frame,
                    const std::vector<RTValue> &Args) {
  assert(JF.Ok && "running a rejected function");
  const vm::CompiledFunction &VF = *JF.VF;
  assert(Args.size() == VF.NumArgs && "argument count mismatch");
  if (Frame.size() < VF.NumRegs)
    Frame.resize(VF.NumRegs);
  loadConsts(VF, Frame.data());
  enterFrame(VF, Frame.data(), Args.data());
  pullGlobalsRaw(Ctx, RawGlob);
  RT.Steps = 0;
  // The observer and site-disabled flags may change between runs.
  RT.Obs = Ctx.observer();
  RT.Dis = Ctx.siteDisabledTable().data();
  RT.NDis = static_cast<int64_t>(Ctx.siteDisabledTable().size());
  const uint32_t Out =
      JM.entry(static_cast<unsigned>(&JF - JM.Functions.data()))(
          &RT, Frame.data());
  pushGlobalsRaw(Ctx, RawGlob);
  return finishNative(Out, RT, VF);
}

} // namespace

ExecResult wdm::jit::run(const CompiledModule &JM, const CompiledFunction &JF,
                         const std::vector<RTValue> &Args, ExecContext &Ctx,
                         const ExecOptions &Opts) {
  RoundingScope Rounding(Opts.Rounding);
  // Persistent per-thread buffers: like vm::Machine's stack, repeated
  // runs must not pay a frame/arena allocation per call. Native code
  // never re-enters this function, so reuse is safe.
  static thread_local std::vector<uint64_t> RawGlob;
  static thread_local std::vector<Reg> Frame, Arena;
  JitRT RT;
  fillInvariantRT(RT, JM, Ctx, Opts, RawGlob, Arena);
  return runTyped(JM, JF, Ctx, RT, RawGlob, Frame, Args);
}

//===----------------------------------------------------------------------===//
// Runner
//===----------------------------------------------------------------------===//

Runner::Runner(const CompiledModule &JM, ExecContext &Ctx, ExecOptions Opts)
    : JM(JM), Ctx(Ctx), Opts(Opts) {
  fillInvariantRT(RT, JM, Ctx, Opts, RawGlob, Arena);
}

ExecResult Runner::run(const CompiledFunction &JF,
                       const std::vector<RTValue> &Args) {
  RoundingScope Rounding(Opts.Rounding);
  return runTyped(JM, JF, Ctx, RT, RawGlob, Frame, Args);
}

//===----------------------------------------------------------------------===//
// JITWeakDistance
//===----------------------------------------------------------------------===//

JITWeakDistance::JITWeakDistance(const CompiledModule &JM,
                                 const CompiledFunction &JF, unsigned WIdx,
                                 double WInit, const ExecContext &Parent,
                                 ExecOptions Opts)
    : JF(JF), WIdx(WIdx), Ctx(*JM.VM->M), Rounding(Opts.Rounding),
      Entry(JM.entry(static_cast<unsigned>(&JF - JM.Functions.data()))) {
  assert(JF.Ok && "minting a JIT evaluator for a rejected function");
  Ctx.adoptSiteState(Parent);
  fillInvariantRT(RT, JM, Ctx, Opts, RawGlob, Arena);
  Frame.resize(JF.VF->NumRegs);
  loadConsts(*JF.VF, Frame.data());
  // Capture the evaluation precondition once: globals reset to their
  // initializers, w seeded. Every evaluation starts from this image.
  Ctx.resetGlobals();
  Ctx.globalSlots()[WIdx] = RTValue::ofDouble(WInit);
  pullGlobalsRaw(Ctx, ResetRawImage);
}

double JITWeakDistance::evalNative(const double *Args) {
  // Reset + seed + stage in one memcpy: resetGlobals() is
  // deterministic, so the cached image is bit-identical to the typed
  // reset/seed/pull sequence the slower tiers perform.
  std::memcpy(RawGlob.data(), ResetRawImage.data(),
              ResetRawImage.size() * sizeof(uint64_t));
  enterFrame(*JF.VF, Frame.data(), Args);
  RT.Steps = 0;
  if (Entry(&RT, Frame.data()) ==
      static_cast<uint32_t>(ExecResult::Outcome::StepLimitExceeded))
    return std::numeric_limits<double>::infinity();
  // Normal returns and traps both leave w meaningful (same policy as
  // instr::IRWeakDistance).
  return fromBits(RawGlob[WIdx]);
}

double JITWeakDistance::operator()(const std::vector<double> &X) {
  assert(X.size() == JF.VF->NumArgs && "input dimension mismatch");
  RoundingScope Scope(Rounding);
  return evalNative(X.data());
}

void JITWeakDistance::evalBatch(const double *Xs, std::size_t K,
                                double *Fs) {
  // One rounding-mode switch for the block; each lane is then exactly
  // the scalar evaluation, so results are bit-identical by construction.
  RoundingScope Scope(Rounding);
  const unsigned N = JF.VF->NumArgs;
  for (std::size_t L = 0; L < K; ++L)
    Fs[L] = evalNative(Xs + L * N);
}

//===----------------------------------------------------------------------===//
// TieredWeakDistance
//===----------------------------------------------------------------------===//

namespace wdm::jit {

/// A tiered factory's evaluator: a VM evaluator that moves to a native
/// one, between two evaluations, once the run is hot. Values are the
/// same bits either way, so the switch is invisible to the search.
class TieredWeakDistance final : public core::WeakDistance {
public:
  TieredWeakDistance(JITWeakDistanceFactory &Owner,
                     std::unique_ptr<vm::VMWeakDistance> VM)
      : Owner(Owner), VM(std::move(VM)) {}

  unsigned dim() const override { return VM->dim(); }
  unsigned preferredBatch() const override { return VM->preferredBatch(); }
  std::string name() const override { return VM->name(); }

  double operator()(const std::vector<double> &X) override {
    if (Native)
      return (*Native)(X);
    if (!StayOnVM && Owner.claim(1) == 0 && tierUp())
      return (*Native)(X);
    return (*VM)(X);
  }

  void evalBatch(const double *Xs, std::size_t K, double *Fs) override {
    if (Native) {
      Native->evalBatch(Xs, K, Fs);
      return;
    }
    const std::size_t Cold = StayOnVM ? K : Owner.claim(K);
    if (Cold)
      VM->evalBatch(Xs, Cold, Fs);
    if (Cold == K)
      return;
    const std::size_t Off = Cold * dim();
    if (tierUp())
      Native->evalBatch(Xs + Off, K - Cold, Fs + Cold);
    else
      VM->evalBatch(Xs + Off, K - Cold, Fs + Cold);
  }

private:
  /// Switches to native code; false (for good) when the JIT rejected the
  /// subject. The native evaluator adopts this evaluator's site-state
  /// snapshot, not the parent's current one.
  bool tierUp() {
    if (!Owner.promote()) {
      StayOnVM = true;
      return false;
    }
    Native = Owner.makeNative(VM->context());
    return true;
  }

  JITWeakDistanceFactory &Owner;
  std::unique_ptr<vm::VMWeakDistance> VM;
  std::unique_ptr<JITWeakDistance> Native;
  bool StayOnVM = false;
};

} // namespace wdm::jit

//===----------------------------------------------------------------------===//
// JITWeakDistanceFactory
//===----------------------------------------------------------------------===//

namespace {

/// The ski-rental promotion point for a lowered module of \p Insts
/// bytecode instructions. Staying on the VM is renting: each evaluation
/// costs the VM's excess over native code. Compiling is buying. Promote
/// once the rent already paid is about the predicted compile cost — never
/// worse than twice the cost of the best choice made in hindsight. Both
/// costs are linear fits over the builtin subjects' boundary and overflow
/// instrumentations (x86-64 Xeon, 2.1 GHz), with the compile measured
/// cold, as a job meets it: ~40 us (emitter warm-up, mmap, mprotect)
/// plus ~0.4 us per instruction; the VM's excess ~25 ns plus ~0.4 ns per
/// instruction per evaluation. The point lands between ~1000 (large
/// modules) and ~1400 (tiny ones) evaluations.
uint64_t derivedTierUpEvals(const vm::CompiledModule &CM) {
  uint64_t Insts = 0;
  for (const vm::CompiledFunction &VF : CM.Functions)
    if (VF.Ok)
      Insts += VF.Code.size();
  const double S = static_cast<double>(Insts);
  const double CompileNs = 40'000.0 + 400.0 * S;
  const double RentNs = 25.0 + 0.4 * S;
  return static_cast<uint64_t>(std::ceil(CompileNs / RentNs));
}

} // namespace

JITWeakDistanceFactory::JITWeakDistanceFactory(
    const exec::Engine &E, const ir::Function *F, const ir::GlobalVar *WVar,
    double WInit, const ExecContext &Parent, ExecOptions Opts,
    const vm::Limits &VL, const Limits &JL, bool Tiered)
    : F(F), WInit(WInit), Parent(Parent), Opts(Opts), JL(JL),
      VMFallback(E, F, WVar, WInit, Parent, Opts, VL), Tiered(Tiered) {
  if (!Tiered) {
    promote();
    return;
  }
  TierUpAt = VL.TierUpEvals ? VL.TierUpEvals
                            : derivedTierUpEvals(VMFallback.compiled());
}

const CompiledFunction *JITWeakDistanceFactory::promote() {
  std::call_once(CompileOnce, [this] {
    JITCompiled = compile(VMFallback.compiled(), JL);
    const CompiledFunction *JF = JITCompiled.lookup(F);
    assert(JF && "subject function outside the engine's module");
    if (JF->Ok)
      Target = JF;
    else
      Reason = JF->RejectReason;
  });
  if (Tiered && Target && !RunPromoted.exchange(true)) {
    static obs::Counter TierUps = obs::counter("engine.tier_ups");
    TierUps.add();
  }
  return Target;
}

uint64_t JITWeakDistanceFactory::claim(uint64_t K) {
  const uint64_t Before =
      RunEvals.fetch_add(K, std::memory_order_relaxed);
  return Before >= TierUpAt ? 0 : std::min(K, TierUpAt - Before);
}

void JITWeakDistanceFactory::beginRun() {
  RunEvals.store(0, std::memory_order_relaxed);
  RunPromoted.store(false, std::memory_order_relaxed);
  Counted = 0;
}

bool JITWeakDistanceFactory::reachedJIT() const {
  // Counted <= executed, so a run counted past the promotion point has
  // already compiled (and Target is final).
  return Counted > TierUpAt && Target;
}

std::unique_ptr<JITWeakDistance>
JITWeakDistanceFactory::makeNative(const ExecContext &P) {
  return std::make_unique<JITWeakDistance>(
      JITCompiled, *Target, VMFallback.accumulatorIndex(), WInit, P, Opts);
}

std::unique_ptr<core::WeakDistance> JITWeakDistanceFactory::make() {
  if (!Tiered)
    return Target ? makeNative(Parent) : VMFallback.make();
  if (!VMFallback.usingVM())
    return VMFallback.make(); // Interpreter: nothing to promote to.
  // Already hot this run: start native (the promotion point was passed
  // by an earlier evaluator of this run).
  if (RunEvals.load(std::memory_order_relaxed) >= TierUpAt && promote())
    return makeNative(Parent);
  return std::make_unique<TieredWeakDistance>(*this,
                                              VMFallback.makeCompiled());
}

//===----------------------------------------------------------------------===//
// vm::FactoryBundle and vm::makeWeakDistanceFactory
//
// Defined here (not in VMWeakDistance.cpp) so the JIT and tiered cases
// can mint jit factories without the vm layer depending on this one.
//===----------------------------------------------------------------------===//

void vm::FactoryBundle::beginRun() {
  if (Tiering)
    Tiering->beginRun();
}

vm::EngineKind vm::FactoryBundle::reached() const {
  return Tiering && Tiering->reachedJIT() ? EngineKind::JIT : Effective;
}

namespace {

/// Bumps engine.effective.<tier> and, on a fallback, engine.fallback.<the
/// requested tier> (a tiered bundle's fallback is the VM's rejection).
/// The handles are interned once, indexed by EngineKind.
void countEngine(const vm::FactoryBundle &B) {
  using Handles = std::array<obs::Counter, 4>;
  auto intern = [](const std::string &Prefix) {
    return Handles{obs::counter(Prefix + "interp"),
                   obs::counter(Prefix + "vm"), obs::counter(Prefix + "jit"),
                   obs::counter(Prefix + "vm")};
  };
  static Handles Effective = intern("engine.effective.");
  static Handles Fallback = intern("engine.fallback.");
  Effective[static_cast<size_t>(B.Effective)].add();
  if (!B.FallbackReason.empty())
    Fallback[static_cast<size_t>(B.Requested)].add();
}

} // namespace

vm::FactoryBundle wdm::vm::makeWeakDistanceFactory(
    EngineKind Requested, const exec::Engine &E, const ir::Function *F,
    const ir::GlobalVar *WVar, double WInit, const ExecContext &Parent,
    ExecOptions Opts, const Limits &L) {
  FactoryBundle B;
  B.Requested = Requested;
  switch (Requested) {
  case EngineKind::Interp: {
    B.Factory = std::make_unique<instr::IRWeakDistanceFactory>(
        E, F, WVar, WInit, Parent, Opts);
    B.Effective = EngineKind::Interp;
    break;
  }
  case EngineKind::VM: {
    auto VF = std::make_unique<VMWeakDistanceFactory>(E, F, WVar, WInit,
                                                      Parent, Opts, L);
    B.Effective = VF->usingVM() ? EngineKind::VM : EngineKind::Interp;
    B.FallbackReason = VF->fallbackReason();
    B.Factory = std::move(VF);
    break;
  }
  case EngineKind::JIT: {
    auto JF = std::make_unique<jit::JITWeakDistanceFactory>(
        E, F, WVar, WInit, Parent, Opts, L);
    if (JF->usingJIT()) {
      B.Effective = EngineKind::JIT;
    } else {
      B.FallbackReason = JF->fallbackReason();
      if (JF->vmFallback().usingVM()) {
        B.Effective = EngineKind::VM;
      } else {
        B.Effective = EngineKind::Interp;
        B.FallbackReason += "; vm: " + JF->vmFallback().fallbackReason();
      }
    }
    B.Factory = std::move(JF);
    break;
  }
  case EngineKind::Tiered:
    return jit::makeTieredFactory(E, F, WVar, WInit, Parent, Opts, L);
  }
  countEngine(B);
  return B;
}

vm::FactoryBundle wdm::jit::makeTieredFactory(
    const exec::Engine &E, const ir::Function *F, const ir::GlobalVar *WVar,
    double WInit, const ExecContext &Parent, ExecOptions Opts,
    const vm::Limits &VL, const Limits &JL) {
  vm::FactoryBundle B;
  B.Requested = vm::EngineKind::Tiered;
  auto TF = std::make_unique<JITWeakDistanceFactory>(
      E, F, WVar, WInit, Parent, Opts, VL, JL, /*Tiered=*/true);
  if (TF->vmFallback().usingVM()) {
    B.Effective = vm::EngineKind::VM;
    B.Tiering = TF.get();
  } else {
    B.Effective = vm::EngineKind::Interp;
    B.FallbackReason = TF->vmFallback().fallbackReason();
  }
  B.Factory = std::move(TF);
  countEngine(B);
  return B;
}
