//===--- JITWeakDistance.h - Native-tier weak distance ---------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native counterpart of vm::VMWeakDistance — the paper's W driver
/// (reset globals, seed w, run Prog_w, read w back) executed as
/// JIT-compiled machine code. The factory is a drop-in above
/// vm::VMWeakDistanceFactory with the same graceful-degradation
/// contract the VM has over the interpreter: when the JIT cannot take
/// the subject (or one of its callees, or the host at all), minted
/// evaluators come from the embedded VM factory instead — which itself
/// still degrades to the interpreter — and fallbackReason() says why.
/// Results are bit-for-bit identical on every tier; only throughput
/// changes.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_JIT_JITWEAKDISTANCE_H
#define WDM_JIT_JITWEAKDISTANCE_H

#include "jit/JITCompile.h"
#include "vm/VMWeakDistance.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wdm::jit {

/// "'interp', 'vm', 'jit'" with an availability annotation when the
/// JIT cannot run on this host — for strict engine-name errors (CLI
/// flags and spec validation), so users see what they can ask for.
std::string engineNamesForErrors();

/// Runs one JIT-compiled function against \p Ctx the way
/// vm::Machine::run does — same argument conversion, same rounding
/// scope, same ExecResult shape. The differential tests drive the
/// native tier through this.
exec::ExecResult run(const CompiledModule &JM, const CompiledFunction &JF,
                     const std::vector<exec::RTValue> &Args,
                     exec::ExecContext &Ctx,
                     const exec::ExecOptions &Opts = {});

/// Persistent-state native executor — the jit tier's analogue of
/// vm::Machine. Binds a module and context once, then serves repeated
/// runs without re-deriving per-call state: the JitRT invariants and the
/// callee arena are built once and reused. Observable semantics are
/// exactly jit::run's — typed globals are mirrored in before and
/// written back after every run, the rounding scope wraps each call,
/// and results are bit-for-bit identical.
class Runner {
public:
  Runner(const CompiledModule &JM, exec::ExecContext &Ctx,
         exec::ExecOptions Opts = {});

  exec::ExecResult run(const CompiledFunction &JF,
                       const std::vector<exec::RTValue> &Args);

private:
  const CompiledModule &JM;
  exec::ExecContext &Ctx;
  exec::ExecOptions Opts;
  JitRT RT;                      ///< Invariant fields filled once.
  std::vector<uint64_t> RawGlob; ///< 8-byte payload per global slot.
  std::vector<Reg> Frame;        ///< Subject frame (arena serves callees).
  std::vector<Reg> Arena;        ///< Callee frames, pre-sized.
};

/// One native weak-distance evaluator: owns its site-state snapshot,
/// raw global mirror, frame, and callee arena, so SearchEngine workers
/// never share mutable state. An evaluation does three things: copy the
/// reset global image into the mirror and enter the subject frame (the
/// frame contract every tier shares: args and consts written, alloca
/// slots zeroed — the consts once, since no code writes them), run the
/// native entry, and read w — or +inf on a step limit — straight from
/// the mirror. Nothing is written back to typed globals and no
/// ExecResult is built.
class JITWeakDistance final : public core::WeakDistance {
public:
  /// \p JM (and the vm module it was emitted from) must outlive the
  /// evaluator; \p WIdx is the dense slot of the accumulator global.
  JITWeakDistance(const CompiledModule &JM, const CompiledFunction &JF,
                  unsigned WIdx, double WInit,
                  const exec::ExecContext &Parent, exec::ExecOptions Opts);

  unsigned dim() const override { return JF.VF->NumArgs; }
  double operator()(const std::vector<double> &X) override;

  /// Native batch mode: one rounding-mode switch for the whole block,
  /// then a native run per lane (each identical to the scalar
  /// evaluation).
  void evalBatch(const double *Xs, std::size_t K, double *Fs) override;

  unsigned preferredBatch() const override { return 32; }

  std::string name() const override { return JF.VF->Source->name(); }

private:
  /// One native evaluation at \p Args under the installed rounding mode.
  double evalNative(const double *Args);

  const CompiledFunction &JF;
  unsigned WIdx;
  exec::ExecContext Ctx; ///< Owns the site-disabled table RT points into.
  exec::RoundingMode Rounding;
  NativeFn Entry;                ///< Resolved once in the constructor.
  JitRT RT;                      ///< Invariant fields filled once.
  std::vector<uint64_t> RawGlob; ///< 8-byte payload per global slot.
  std::vector<Reg> Frame;        ///< Subject frame (arena serves callees).
  std::vector<Reg> Arena;        ///< Callee frames, pre-sized — never grows.
  /// Raw mirror of the evaluation precondition — globals reset to their
  /// initializers with w seeded to WInit. resetGlobals() is
  /// deterministic, so one pull at construction replaces the per-call
  /// reset+seed+pull sequence bit-for-bit.
  std::vector<uint64_t> ResetRawImage;
};

/// Drop-in above vm::VMWeakDistanceFactory that mints native
/// evaluators, falling back to the embedded VM factory (and through it
/// to the interpreter) when the JIT rejected the subject, a callee, or
/// the host. The module is lowered once: the native code is compiled
/// from the embedded VM factory's CompiledModule.
///
/// In tiered mode (EngineKind::Tiered, the default) nothing is compiled
/// up front. Minted evaluators run on the VM and count this run's
/// evaluations; the evaluation that reaches the promotion point compiles
/// the native code (once, thread-safe) and it and every later one — in
/// every evaluator, including the rest of the current start — run on
/// the JIT. The promotion point is a ski-rental one: the evaluation
/// count at which the time the VM has already lost to native code is
/// about the predicted compile cost, both predicted from the lowered
/// module's size.
class JITWeakDistanceFactory : public core::WeakDistanceFactory {
public:
  JITWeakDistanceFactory(const exec::Engine &E, const ir::Function *F,
                         const ir::GlobalVar *WVar, double WInit,
                         const exec::ExecContext &Parent,
                         exec::ExecOptions Opts = {},
                         const vm::Limits &VL = {}, const Limits &JL = {},
                         bool Tiered = false);

  unsigned dim() const override { return F->numArgs(); }
  std::unique_ptr<core::WeakDistance> make() override;
  void noteCountedEvals(uint64_t N) override { Counted += N; }

  /// True when minted evaluators execute native code (pinned mode; in
  /// tiered mode, once the subject has been compiled).
  bool usingJIT() const { return Target != nullptr; }
  /// Why the JIT refused (empty when usingJIT() or not yet compiled).
  const std::string &fallbackReason() const { return Reason; }
  /// The embedded VM factory: the one lowering, and the fallback path
  /// (it reports its own, further, interpreter fallback).
  vm::VMWeakDistanceFactory &vmFallback() { return VMFallback; }
  const CompiledModule &compiled() const { return JITCompiled; }

  /// Tiered mode: resets the per-run hotness and counted evaluations
  /// (compiled code is kept).
  void beginRun();
  /// Tiered mode: true when this run's counted evaluations passed the
  /// promotion point and the JIT took the subject.
  bool reachedJIT() const;

private:
  friend class TieredWeakDistance;

  /// Claims \p K evaluations of this run; returns how many of them
  /// (a prefix) still run on the VM.
  uint64_t claim(uint64_t K);
  /// Compiles the native code once; the subject's entry, or null when
  /// the JIT rejected it. Counts one tier-up per run.
  const CompiledFunction *promote();
  std::unique_ptr<JITWeakDistance> makeNative(const exec::ExecContext &P);

  const ir::Function *F;
  double WInit;
  const exec::ExecContext &Parent;
  exec::ExecOptions Opts;
  Limits JL;

  vm::VMWeakDistanceFactory VMFallback; ///< Owns the lowering the native
                                        ///< code points into, so it must
                                        ///< outlive JITCompiled.
  std::once_flag CompileOnce;
  CompiledModule JITCompiled;
  const CompiledFunction *Target = nullptr; ///< Null => fallback.
  std::string Reason;

  bool Tiered;
  uint64_t TierUpAt = 0;
  std::atomic<uint64_t> RunEvals{0}; ///< Executed this run (promotion).
  std::atomic<bool> RunPromoted{false};
  uint64_t Counted = 0; ///< Counted this run (the Report's tier).
};

/// The bundle vm::makeWeakDistanceFactory builds for EngineKind::Tiered,
/// with both tiers' limits exposed (tests shrink them). Evaluators start
/// on the VM, or on the interpreter — with the VM's reason as the
/// fallback — when the lowering rejected the subject. A JIT that later
/// rejects the subject is not a fallback: the run stays on the VM.
vm::FactoryBundle makeTieredFactory(const exec::Engine &E,
                                    const ir::Function *F,
                                    const ir::GlobalVar *WVar, double WInit,
                                    const exec::ExecContext &Parent,
                                    exec::ExecOptions Opts = {},
                                    const vm::Limits &VL = {},
                                    const Limits &JL = {});

} // namespace wdm::jit

#endif // WDM_JIT_JITWEAKDISTANCE_H
